#!/usr/bin/env python3
"""Self time of each depsketch module's import, as a cold process pays it.

    python3 scripts/importtime.py

Runs ``python -X importtime -c "import depsketch.cli"`` in `RUNS` fresh
processes twice over: once compiling depsketch from source, as a checkout
without bytecode does, and once reading its bytecode.  Prints, per
depsketch module, the median of its self time (its own body, without the
modules it imports), the median of the summed self times, and the median
of the whole import, standard-library modules included.

The processes import a copy of ``src/depsketch`` made in a temporary
directory without its ``__pycache__``.  Bytecode goes only to a temporary
``PYTHONPYCACHEPREFIX``, never into the checkout: one extra process writes
it there before the bytecode runs read it.
"""

from __future__ import annotations

import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 12  # fresh processes per mode
# "import time: <self us> | <cumulative us> | <indent><module>"
_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| +(\S+)")


def import_times(env: dict[str, str]) -> tuple[dict[str, float], float]:
    """Self time in ms of each depsketch module, and the whole import's
    time in ms, from one fresh process."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import depsketch.cli"],
        capture_output=True, text=True, env=env, check=True,
    )
    times, whole = {}, 0.0
    for match in _LINE.finditer(proc.stderr):
        if match[3] == "depsketch" or match[3].startswith("depsketch."):
            times[match[3]] = int(match[1]) / 1000
        if match[3] == "depsketch.cli":
            whole = int(match[2]) / 1000
    return times, whole


def measure(env: dict[str, str], runs: int) -> tuple[dict[str, float], float, float]:
    """Medians: self time per module, the per-run sum of them, the whole import."""
    samples = [import_times(env) for _ in range(runs)]
    modules = {name: statistics.median(s[name] for s, _ in samples) for name in samples[0][0]}
    summed = statistics.median(sum(s.values()) for s, _ in samples)
    return modules, summed, statistics.median(whole for _, whole in samples)


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        src = Path(work) / "src"
        shutil.copytree(
            ROOT / "src" / "depsketch", src / "depsketch",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
        env.pop("PYTHONPYCACHEPREFIX", None)
        source = measure(env, RUNS)
        cached = {**env, "PYTHONPYCACHEPREFIX": str(Path(work) / "cache")}
        import_times({**cached, "PYTHONDONTWRITEBYTECODE": ""})  # writes the bytecode
        compiled = measure(cached, RUNS)
    print(f"import depsketch.cli, ms, median of {RUNS} fresh processes")
    print(f"{'self time of':<28} {'no bytecode':>12} {'bytecode':>9}")
    for name in source[0]:
        print(f"{name:<28} {source[0][name]:>12.2f} {compiled[0].get(name, 0.0):>9.2f}")
    print(f"{'sum':<28} {source[1]:>12.2f} {compiled[1]:>9.2f}")
    print(f"{'whole import':<28} {source[2]:>12.2f} {compiled[2]:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
