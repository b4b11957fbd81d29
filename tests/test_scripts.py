"""Smoke tests for the runnable scripts, each in a fresh interpreter."""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from conftest import FIXTURES

ROOT = FIXTURES.parent


def run_script(name: str, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    # the scripts import depsketch from src/, whatever the working directory
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_build_demo_kb(tmp_path):
    kb = tmp_path / "demo_kb.txt"
    proc = run_script("build_demo_kb.py", "--kb", str(kb), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"saved {kb}" in lines
    assert lines[-1] == "entries=10 types=6 methods=3 fields=1 dependencies=2"
    assert kb.read_text().startswith("FQNKB v2\n")


def test_run_walkthrough(tmp_path):
    proc = run_script("run_walkthrough.py", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "dependencies: jdk:java8:8" in lines
    bindings = lines[lines.index("== bindings ==") + 1 : lines.index("cost 3") - 1]
    assert bindings == [
        "java.lang.String -> java.lang.String [jdk:java8:8]",
        "?.Pattern -> java.util.regex.Pattern [jdk:java8:8]",
        "?.compile(java.lang.String)? -> "
        "java.util.regex.Pattern.compile(java.lang.String)java.util.regex.Pattern [jdk:java8:8]",
        "?.Matcher -> java.util.regex.Matcher [jdk:java8:8]",
        "?.matcher(java.lang.String)? -> "
        "java.util.regex.Pattern.matcher(java.lang.String)java.util.regex.Matcher [jdk:java8:8]",
        "?.find()? -> java.util.regex.Matcher.find()boolean [jdk:java8:8]",
    ]


def test_importtime_reports_every_module_and_writes_no_bytecode(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("importtime", ROOT / "scripts" / "importtime.py")
    importtime = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(importtime)
    monkeypatch.setattr(importtime, "RUNS", 1)  # one process per mode keeps the test fast
    before = sorted(ROOT.rglob("__pycache__/*.pyc"))
    assert importtime.main() == 0
    rows = {line.split()[0] for line in capsys.readouterr().out.splitlines()[2:]}
    assert {"depsketch", "depsketch.cli", "depsketch.model", "depsketch.frontend.parser"} <= rows
    assert {"sum", "whole"} <= rows
    assert sorted(ROOT.rglob("__pycache__/*.pyc")) == before
