"""The golden corpus: byte-identical CLI transcripts of fixed requests.

Every case in ``scripts/update_golden.py`` is run again and compared with
its file in ``tests/golden/``.  A failure shows which command's output
moved; rerun the script only when the move is intended.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("update_golden", ROOT / "scripts" / "update_golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", list(golden.CASES))
def test_case_matches_its_transcript(name):
    assert golden.render(name).decode("utf-8") == golden.path_of(name).read_bytes().decode("utf-8")


def test_every_transcript_has_a_case():
    assert sorted(golden.GOLDEN.glob("*.txt")) == sorted(golden.path_of(name) for name in golden.CASES)
