#!/usr/bin/env python3
"""The depsketch command line with span recording, for traced benchmark runs.

    python3 perfbench/traced_cli.py SPANS_FILE depsketch-arguments...

Installs the span wrappers, runs ``depsketch.cli.main`` on the arguments,
writes the spans as JSON rows to SPANS_FILE and exits with main's code.
Stdout and the files written are those of the plain command.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    import depsketch.cli

    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.unit = "child"
    try:
        code = depsketch.cli.main(sys.argv[2:])
    finally:
        tracer.unit = None
        rows = [span.as_row() for span in tracer.spans]
        Path(sys.argv[1]).write_text(json.dumps(rows) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
