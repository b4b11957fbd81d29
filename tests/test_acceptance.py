"""Acceptance criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion; each test also prints an explicit ``criterion N PASS`` line.
The corpus of random covering problems is seeded, so every run checks the
same 1000 instances.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from depsketch import KnowledgeBase, resolve
from depsketch.cli import main
from depsketch.model import Coordinate, EntryKind, KbEntry
from depsketch.resolver import build_problem
from depsketch.solver import CoveringProblem, brute_force_min, check, preprocess, solve_min

from conftest import DISTRACTOR, FIXTURES, JDK8, build_fixture_kb

CORPUS_SEED = 20260819


@pytest.fixture(scope="module")
def problem_corpus() -> list[CoveringProblem]:
    rng = random.Random(CORPUS_SEED)
    problems = []
    for _ in range(1000):
        num_vars = rng.randint(1, 15)
        num_clauses = rng.randint(1, 10)
        clauses = [
            rng.sample(range(num_vars), rng.randint(1, min(5, num_vars)))
            for _ in range(num_clauses)
        ]
        problems.append(CoveringProblem(num_vars, clauses))
    return problems


@pytest.fixture(scope="module")
def kb_file(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("acceptance") / "kb.txt"
    build_fixture_kb().save(path)
    return path


def test_criterion_1_walkthrough(snippet_source, kb_file):
    kb = build_fixture_kb()
    started = time.perf_counter()
    resolution = resolve(snippet_source, kb)
    elapsed = time.perf_counter() - started

    assert resolution.dependencies == ["jdk:java8:8"]
    assert "java.util.regex.Pattern" in resolution.imports
    assert "java.util.regex.Matcher" in resolution.imports
    bound_fqns = {binding.entry.provider_fqn for binding in resolution.bindings}
    assert "com.regexkit.Pattern" not in bound_fqns
    assert "com.sun.org.apache.xalan.in.xsltc.compiler.Pattern" not in bound_fqns
    string_spans = [
        span.render()
        for sketch in resolution.sketches
        if sketch.render() == "java.lang.String"
        for span in sketch.occurrences
    ]
    assert "3:37-3:42" in string_spans  # regex argument usage
    assert "4:31-4:36" in string_spans  # input argument usage
    assert elapsed < 1.0

    exit_code = main(["resolve", str(FIXTURES / "snippet.java"), "--kb", str(kb_file)])
    assert exit_code == 0
    print(
        f"criterion 1 PASS: walkthrough picks jdk:java8:8 alone, "
        f"ignores both distractors, in {elapsed:.3f}s"
    )


def test_criterion_2_solver_matches_oracle(problem_corpus):
    started = time.perf_counter()
    disagreements = 0
    for problem in problem_corpus:
        if solve_min(problem) != brute_force_min(problem):
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 30.0
    print(
        f"criterion 2 PASS: solver and oracle agree on all "
        f"{len(problem_corpus)} random problems in {elapsed:.1f}s"
    )


def test_criterion_2_solver_matches_oracle_with_groups(problem_corpus):
    # the same corpus, each problem's variables dealt into seeded groups
    rng = random.Random(CORPUS_SEED + 2)
    disagreements = 0
    for problem in problem_corpus:
        groups = [rng.randrange(min(problem.num_vars, 4)) for _ in range(problem.num_vars)]
        grouped = CoveringProblem(problem.num_vars, problem.clauses, groups=groups)
        if solve_min(grouped) != brute_force_min(grouped):
            disagreements += 1
    assert disagreements == 0
    print(
        f"criterion 2 PASS: solver and oracle agree on all "
        f"{len(problem_corpus)} random problems with groups"
    )


def test_criterion_3_preprocessing_soundness(problem_corpus):
    for problem in problem_corpus:
        assert solve_min(preprocess(problem)) == solve_min(problem)
    print(
        f"criterion 3 PASS: preprocessing preserves the optimum on all "
        f"{len(problem_corpus)} problems"
    )


def test_criterion_4_minimality_witness(problem_corpus):
    violations = 0
    for problem in problem_corpus:
        model = solve_min(problem)
        assert check(problem, model.true_vars)
        for var in model.true_vars - problem.forced:
            if check(problem, model.true_vars - {var}):
                violations += 1
    assert violations == 0
    print(
        f"criterion 4 PASS: every chosen variable is necessary "
        f"({len(problem_corpus)} problems, 0 violations)"
    )


def test_criterion_5_sketch_listing(capsys):
    exit_code = main(["sketch", str(FIXTURES / "snippet.java")])
    assert exit_code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "R java.lang.String",
        "U ?.Pattern",
        "U ?.compile(java.lang.String)?",
        "U ?.Matcher",
        "U ?.matcher(java.lang.String)?",
        "U ?.find()?",
    ]
    print("criterion 5 PASS: sketch listing prints exactly the six expected lines")


def test_criterion_6_deterministic_outputs(kb_file, tmp_path):
    # two fresh interpreter processes: different hash seeds, same bytes
    def run_once(tag: str) -> tuple[bytes, bytes, bytes]:
        cnf = tmp_path / f"{tag}.cnf"
        patch = tmp_path / f"{tag}.java"
        proc = subprocess.run(
            [
                sys.executable, "-m", "depsketch", "resolve",
                str(FIXTURES / "snippet.java"),
                "--kb", str(kb_file),
                "--output", "machine",
                "--emit-cnf", str(cnf),
                "--patch", str(patch),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        return proc.stdout, cnf.read_bytes(), patch.read_bytes()

    first = run_once("first")
    second = run_once("second")
    assert first == second
    report = json.loads(first[0])
    assert sorted(report) == [
        "ambiguities", "bindings", "cost", "dependencies",
        "imports", "sketches", "unresolved",
    ]
    print(
        "criterion 6 PASS: report, covering-problem dump, and patch are "
        "byte-identical across two fresh processes"
    )


def test_criterion_7_kb_round_trip(tmp_path):
    kb = build_fixture_kb()
    assert kb.ingest_class_listing(FIXTURES / "jdk8_classes.txt", JDK8) == 0
    assert kb.ingest_class_listing(FIXTURES / "regexkit_classes.txt", DISTRACTOR) == 0

    first_path = tmp_path / "first.txt"
    second_path = tmp_path / "second.txt"
    kb.save(first_path)
    loaded = KnowledgeBase.load(first_path)
    loaded.save(second_path)
    assert first_path.read_bytes() == second_path.read_bytes()
    assert loaded.stats() == kb.stats()

    loaded.add_entry(
        KbEntry(EntryKind.TYPE, "stale.pkg", "Stale", dep=Coordinate.parse("jdk:java8:99"))
    )
    loaded.ingest_ground_truth(FIXTURES / "ground_truth.txt")
    assert loaded.filter_against_ground_truth() == 1
    assert loaded.filter_against_ground_truth() == 0
    print(
        "criterion 7 PASS: save/load round-trips byte-identically, re-ingest "
        "adds nothing, filtering is idempotent"
    )


# -- criterion 8: declared-dependency preference -------------------------------

_NAMES = ("Alpha", "Beta", "Gamma")
_SNIPPET = "Alpha a = null; Beta b = null; Gamma g = null;"
_SAFE = Coordinate("base", "base", "1")
_POOL = (
    Coordinate("libs", "alpha", "1"),
    Coordinate("libs", "alpha", "2"),
    Coordinate("libs", "beta", "1"),
    Coordinate("org", "gamma", "3"),
)


def _random_kb(rng: random.Random) -> KnowledgeBase:
    kb = KnowledgeBase()
    for index, name in enumerate(_NAMES):
        kb.add_entry(KbEntry(EntryKind.TYPE, f"base.p{index}", name, dep=_SAFE))
    for extra in range(rng.randint(0, 6)):
        kb.add_entry(
            KbEntry(
                EntryKind.TYPE,
                f"v{extra}.q{rng.randrange(4)}",
                _NAMES[rng.randrange(3)],
                dep=_POOL[rng.randrange(len(_POOL))],
            )
        )
    return kb


def _oracle_min_cost(problem, deps, declared: set[Coordinate]) -> int | None:
    """Independent enumeration: cheapest covering, version-consistent subset."""
    weights = [0 if dep in declared else 1 for dep in deps]
    best = None
    for bits in itertools.product((0, 1), repeat=problem.num_vars):
        chosen = {var for var, bit in enumerate(bits) if bit}
        if any(not (clause & chosen) for clause in problem.clauses):
            continue
        versions: dict[tuple[str, str], str] = {}
        consistent = True
        for var in chosen:
            dep = deps[var]
            key = (dep.group, dep.artifact)
            if versions.setdefault(key, dep.version) != dep.version:
                consistent = False
                break
        if not consistent:
            continue
        cost = sum(weights[var] for var in chosen)
        if best is None or cost < best:
            best = cost
    return best


def test_criterion_8_declared_preference(fixture_kb, snippet_source):
    # fixture: declaring the distractor must not change the answer or raise cost
    plain = resolve(snippet_source, fixture_kb)
    with_distractor = resolve(snippet_source, fixture_kb, declared_deps=[DISTRACTOR])
    with_jdk = resolve(snippet_source, fixture_kb, declared_deps=[JDK8])
    assert with_distractor.cost <= plain.cost
    assert with_distractor.dependencies == ["jdk:java8:8"]
    assert with_jdk.cost == 0

    rng = random.Random(CORPUS_SEED + 8)
    from depsketch.frontend import sketch_source

    for trial in range(100):
        kb = _random_kb(rng)
        _, analysis = sketch_source(_SNIPPET)
        problem, names, group_deps, *_ = build_problem(analysis.sketches, kb)
        deps = [group_deps[g] for g in problem.groups]

        undeclared = resolve(_SNIPPET, kb)
        assert undeclared.cost == _oracle_min_cost(problem, deps, set())

        # declaring a random dependency never raises the objective
        candidate = deps[rng.randrange(len(deps))]
        helped = resolve(_SNIPPET, kb, declared_deps=[candidate])
        assert helped.cost <= undeclared.cost
        assert helped.cost == _oracle_min_cost(problem, deps, {candidate})

        # when a full cover exists inside the declared set, it is used
        winners = [Coordinate.parse(text) for text in undeclared.dependencies]
        replay = resolve(_SNIPPET, kb, declared_deps=winners)
        assert replay.cost == 0
        assert set(replay.dependencies) <= set(undeclared.dependencies)

    print(
        "criterion 8 PASS: declared dependencies never cost more and match an "
        "independent enumeration on 100 randomized knowledge bases"
    )
