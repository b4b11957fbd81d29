"""Start-up guard: what a cold ``depsketch`` process imports.

A process per snippet is how the tool is used, so start-up is most of a
``resolve``.  Nothing on the ``resolve`` path needs ``dataclasses`` or the
``inspect`` it imports, and only ``--output machine`` needs ``json``.
"""

from __future__ import annotations

import os
import subprocess
import sys

from conftest import FIXTURES

ROOT = FIXTURES.parent


def _modules_after(statement: str, names: tuple[str, ...]) -> list[str]:
    """Which of *names* a fresh interpreter holds after running *statement*."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    code = f"import sys\n{statement}\nprint(*[n for n in {names!r} if n in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_needs_no_dataclasses_inspect_or_json():
    assert _modules_after("import depsketch.cli", ("dataclasses", "inspect", "json")) == []

