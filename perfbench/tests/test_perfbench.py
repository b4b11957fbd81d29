"""Self-tests of the benchmark.

Every workload runs at a tiny size, untraced and traced, and must come out
correct with every metric BENCHMARK.json names.  A corrupted expected
answer and an impossible budget must both show up as failed requests, so the
output check and the timeout path are not vacuous.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(name: str, tmp_path: Path, trace: bool = False, corrupt=None) -> dict:
    return run.run_workload(
        ROOT, name, 7, 0.0, trace, tmp_path / "work",
        tiny=True, min_requests=2, setup_repeats=2, corrupt=corrupt,
    )


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_is_correct_and_reports_every_metric(name, trace, tmp_path):
    result = _tiny(name, tmp_path, trace)
    assert result["correct"], result["details"]["problems"]
    assert result["attempted"] >= 2
    assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    if trace:
        assert (tmp_path / "work" / "spans.json").is_file()
        assert result["metrics"]["trace.self_time_share"]["value"] >= 0.9


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    assert workloads.build(name, 3, tiny=True).digest() == workloads.build(name, 3, tiny=True).digest()
    assert workloads.build(name, 3, tiny=True).digest() != workloads.build(name, 4, tiny=True).digest()


@pytest.mark.parametrize("name", ["long-snippets", "cli-cold"])
def test_corrupted_expected_answer_is_a_failure(name, tmp_path):
    def corrupt(wl):
        first = wl.requests[0]
        first.expected = dataclasses.replace(first.expected, patch=first.expected.patch + "// extra\n")

    result = _tiny(name, tmp_path, corrupt=corrupt)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("differs in patch" in problem for problem in result["details"]["problems"])


def test_request_over_budget_counts_as_timeout(tmp_path):
    def corrupt(wl):
        wl.budget_s = 1e-5

    result = _tiny("shared-names", tmp_path, corrupt=corrupt)
    assert result["failed"] == result["attempted"] == result["details"]["timeouts"]


def test_refuses_to_run_without_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-cold", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
