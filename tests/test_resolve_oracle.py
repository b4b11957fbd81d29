"""`resolve` against an exhaustive reference written from README's rules.

The reference shares only the frontend's sketches with depsketch.  It
matches each sketch against ``kb.entries`` with its own rule (a ``?`` in the
sketch's render matches any type or name, the rest must be equal), keys a
candidate by ``dependency:providing type``, tries every set of keys, keeps
the irredundant covers (each key the only chosen one of some sketch) that
use at most one version of each artifact, ranks them by (cost with declared
dependencies free, distinct dependencies, sorted keys) and binds each
sketch to its first candidate, in (key, render) order, whose key the best
set holds.
"""

from __future__ import annotations

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsketch import KnowledgeBase, resolve
from depsketch.frontend import sketch_source
from depsketch.model import Coordinate, EntryKind, KbEntry
from depsketch.resolver import CoverageError
from depsketch.solver import InfeasibleError

_ARTIFACTS = (("org.x", "core"), ("org.x", "util"), ("com.y", "core"), ("com.z", "lib"))
_VERSIONS = ("1", "2", "10")
_PACKAGES = ("p", "q")
_SIMPLE_NAMES = ("A", "B")
_WRITTEN_TYPES = ("A", "B", "D", "p.A", "q.B")  # D is in no knowledge base
_ARGUMENTS = ('"s"', "1", "null")  # java.lang.String, int and a hole
_RUN_OVERLOADS = ((), ("java.lang.String",), ("int",), ("java.lang.String", "int"))
_HOLE = r"[\w.$\[\]]+"


@st.composite
def _knowledge_bases(draw) -> tuple[KnowledgeBase, set[Coordinate]]:
    """A knowledge base and a declared subset of its dependencies.

    2-4 artifacts of 1-3 versions.  A type ships in every version of its
    artifact, with ``run`` overloads and a field that differ between
    versions; types of different artifacts share simple names.  At most
    12 (dependency, type) pairs, so the reference can try every set.
    """
    artifacts = draw(st.lists(st.sampled_from(_ARTIFACTS), min_size=2, max_size=4, unique=True))
    releases = [
        [Coordinate(group, artifact, version) for version in _VERSIONS[: draw(st.integers(1, 3))]]
        for group, artifact in artifacts
    ]
    types = st.tuples(
        st.integers(0, len(releases) - 1), st.sampled_from(_PACKAGES), st.sampled_from(_SIMPLE_NAMES)
    )
    shipped = [
        (dep, f"{package}.{simple}")
        for release, package, simple in draw(st.lists(types, min_size=1, max_size=6, unique=True))
        for dep in releases[release]
    ]
    kb = KnowledgeBase()
    for dep, owner in shipped[:12]:
        kb.add_entry(KbEntry.from_listing(f"T {owner}", dep))
        for param in draw(st.sampled_from(_RUN_OVERLOADS)):
            kb.add_entry(KbEntry.from_listing(f"M {owner}.run({param})void", dep))
        if draw(st.booleans()):
            kb.add_entry(KbEntry.from_listing(f"F {owner}.size:int", dep))
    deps = [dep for versions in releases for dep in versions]
    return kb, set(draw(st.lists(st.sampled_from(deps), unique=True)))


@st.composite
def _snippets(draw) -> str:
    """Declarations, static calls, and member calls and field reads on typed locals."""
    statements: list[str] = []
    locals_: list[str] = []
    for index in range(draw(st.integers(1, 5))):
        form = draw(st.sampled_from(("declare", "static", "call", "field")))
        if form == "declare" or (form in ("call", "field") and not locals_):
            statements.append(f"{draw(st.sampled_from(_WRITTEN_TYPES))} v{index} = null;")
            locals_.append(f"v{index}")
        elif form == "static":
            written = draw(st.sampled_from(_WRITTEN_TYPES))
            statements.append(f"{written}.run({draw(st.sampled_from(_ARGUMENTS))});")
        elif form == "call":
            receiver = draw(st.sampled_from(locals_))
            statements.append(f"{receiver}.run({draw(st.sampled_from(_ARGUMENTS))});")
        else:
            statements.append(f"Object f{index} = {draw(st.sampled_from(locals_))}.size;")
    return " ".join(statements)


def _key(entry: KbEntry) -> str:
    provider = entry.render() if entry.kind is EntryKind.TYPE else entry.owner
    return f"{entry.dep.render()}:{provider}"


def _reference(sketches, kb: KnowledgeBase, declared: set[Coordinate]) -> dict:
    tables, builtins, unresolved = [], [], []
    for sketch in sketches:
        render = sketch.render()
        pattern = re.compile(re.escape(render).replace(r"\?", _HOLE))
        found = sorted(
            (
                (_key(entry), entry)
                for entry in kb.entries
                if entry.kind is sketch.kind and pattern.fullmatch(entry.render())
            ),
            key=lambda pair: (pair[0], pair[1].render()),
        )
        if found:
            tables.append((render, found))
        else:
            (unresolved if "?" in render else builtins).append(render)
    if unresolved and not tables and not builtins:
        raise CoverageError(unresolved[0])

    dep_of = {key: entry.dep for _, found in tables for key, entry in found}
    keys = sorted(dep_of)
    clauses = [sum(1 << keys.index(key) for key in {key for key, _ in found}) for _, found in tables]
    best = None
    for mask in range(1 << len(keys)):
        if not all(mask & clause for clause in clauses):
            continue
        bits = [1 << bit for bit in range(len(keys)) if mask >> bit & 1]
        if any(all(mask & ~bit & clause for clause in clauses) for bit in bits):
            continue  # holds a key no sketch needs alone
        chosen = [key for bit, key in enumerate(keys) if mask >> bit & 1]
        deps = {dep_of[key] for key in chosen}
        if len({(dep.group, dep.artifact) for dep in deps}) < len(deps):
            continue  # two versions of one artifact
        rank = (sum(dep_of[key] not in declared for key in chosen), len(deps), chosen)
        if best is None or rank < best:
            best = rank
    if best is None:
        raise InfeasibleError("every cover mixes versions")

    cost, _, chosen = best
    bound, ambiguities = [], []
    for render, found in tables:
        covering = sorted({key for key, _ in found} & set(chosen))
        if len(covering) > 1:
            ambiguities.append(
                f"{render} is satisfied by {len(covering)} choices: " + ", ".join(covering)
            )
        key, entry = next((key, entry) for key, entry in found if key in chosen)
        bound.append((render, entry, key))
    return {
        "cost": cost,
        "chosen": chosen,
        "bindings": [(render, entry.render(), key) for render, entry, key in bound],
        "ambiguities": ambiguities,
        "builtins": builtins,
        "unresolved": unresolved,
        "dependencies": sorted({entry.dep.render() for _, entry, _ in bound}),
        "imports": sorted({key.rsplit(":", 1)[1] for _, _, key in bound}),
    }


def _answer(resolution) -> dict:
    return {
        "cost": resolution.cost,
        "chosen": sorted(resolution.variable_names[var] for var in resolution.model.true_vars),
        "bindings": [
            (binding.sketch.render(), binding.entry.render(), binding.variable_key)
            for binding in resolution.bindings
        ],
        "ambiguities": resolution.ambiguities,
        "builtins": resolution.builtins,
        "unresolved": resolution.unresolved,
        "dependencies": resolution.dependencies,
        "imports": resolution.imports,
    }


def _outcome(run):
    try:
        return run()
    except (CoverageError, InfeasibleError) as exc:
        return type(exc)


def _pinned(declared: tuple[str, ...], *listings: tuple[str, str]):
    """A fixed case for `example`: a knowledge base from listing lines."""
    kb = KnowledgeBase()
    for listing, coordinate in listings:
        kb.add_entry(KbEntry.from_listing(listing, Coordinate.parse(coordinate)))
    return kb, {Coordinate.parse(text) for text in declared}


# Cases each rule decides, so that every run exercises it.
@example(  # the version rule: two versions of com.y:core would sort first
    drawn=_pinned((), ("T p.A", "com.y:core:1"), ("T q.B", "com.y:core:2"), ("T q.B", "org.x:util:1")),
    snippet="A a = null; B b = null;",
)
@example(  # the version rule with no way out
    drawn=_pinned((), ("T p.OnlyOld", "org.x:core:1"), ("T q.OnlyNew", "org.x:core:2")),
    snippet="OnlyOld o = null; OnlyNew n = null;",
)
@example(  # the tie order
    drawn=_pinned((), ("T p.A", "com.y:core:1"), ("T p.A", "org.x:util:1")),
    snippet="A a = null;",
)
@example(  # a declared dependency is free
    drawn=_pinned(("org.x:util:1",), ("T p.A", "com.y:core:1"), ("T p.A", "org.x:util:1")),
    snippet="A a = null;",
)
@example(  # all free once g:a:1 is declared: {p.A, p.B} sorts first but
    # holds p.A, which no sketch needs alone, so of the irredundant covers
    # {p.A, p.C} and {p.B} the first wins, with no ambiguity
    drawn=_pinned(
        ("g:a:1",),
        ("M p.A.run(int)void", "g:a:1"),
        ("M p.B.run(int)void", "g:a:1"), ("M p.B.stop(int)void", "g:a:1"),
        ("M p.C.stop(int)void", "g:a:1"),
    ),
    snippet="run(1); stop(1);",
)
@example(  # the first of two entries under the chosen key
    drawn=_pinned(
        (), ("M p.A.run(int)void", "com.y:core:1"), ("M p.A.run(java.lang.String)void", "com.y:core:1")
    ),
    snippet="A a = null; a.run(null);",
)
@settings(max_examples=100, deadline=None)
@given(drawn=_knowledge_bases(), snippet=_snippets())
def test_resolve_is_the_exhaustive_reference(drawn, snippet):
    kb, declared = drawn
    sketches = sketch_source(snippet)[1].sketches
    expected = _outcome(lambda: _reference(sketches, kb, declared))
    actual = _outcome(lambda: _answer(resolve(snippet, kb, declared)))
    assert actual == expected
