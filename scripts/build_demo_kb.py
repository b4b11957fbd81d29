#!/usr/bin/env python3
"""Build the demo knowledge base from the checked-in fixtures.

The result is the same knowledge base the tests and the walkthrough use:
a small JDK slice with two same-named distractor types, filtered against
the ground-truth coordinates.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from depsketch import Coordinate, KnowledgeBase

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

LISTINGS = (
    ("jdk8_classes.txt", "jdk:java8:8"),
    ("regexkit_classes.txt", "com.regexkit:regexkit:1.2"),
)


def build(kb_path: Path) -> KnowledgeBase:
    kb = KnowledgeBase()
    for listing, coordinate in LISTINGS:
        added = kb.ingest_class_listing(FIXTURES / listing, Coordinate.parse(coordinate))
        print(f"{listing}: {added} entries for {coordinate}")
    known = kb.ingest_ground_truth(FIXTURES / "ground_truth.txt")
    removed = kb.filter_against_ground_truth()
    print(f"ground_truth.txt: {known} coordinates known, {removed} entries filtered")
    kb.save(kb_path)
    print(f"saved {kb_path}")
    return kb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kb", default="demo_kb.txt", help="output knowledge base file")
    args = parser.parse_args()
    kb = build(Path(args.kb))
    print(" ".join(f"{key}={value}" for key, value in kb.stats().items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
