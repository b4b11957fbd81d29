"""`resolve` against `solve_min` on the full covering problem.

`build_problem` leaves out the clause of a sketch whose candidate keys
include every key of another sketch's clause, since covering the smaller
clause covers it.  These tests build the full problem themselves, with one
variable per distinct key numbered in order of first use over every lookup
list, solve it with the same version rule and tie order `resolve` uses,
and bind each sketch from it.  `resolve`'s chosen keys, bindings and
ambiguities must be the same.
"""

from __future__ import annotations

from hypothesis import example, given, settings

from depsketch import resolve
from depsketch.frontend import sketch_source
from depsketch.resolver import CoverageError
from depsketch.solver import CoveringProblem, InfeasibleError, solve_min

from test_resolve_oracle import _knowledge_bases, _outcome, _pinned, _snippets


def _full_answer(snippet: str, kb, declared) -> dict:
    sketches = sketch_source(snippet)[1].sketches
    tables = [(sketch, kb.lookup(sketch)) for sketch in sketches]
    tables = [(sketch, found) for sketch, found in tables if found]
    if not tables and sketches and all(sketch.has_holes for sketch in sketches):
        raise CoverageError("nothing to cover")
    names, index_of, weights, groups, group_of, clauses = [], {}, [], [], {}, []
    for _, found in tables:
        clause = set()
        for entry, key in found:
            if key not in index_of:
                index_of[key] = len(names)
                names.append(key)
                weights.append(0 if entry.dep in declared else 1)
                groups.append(group_of.setdefault(entry.dep, len(group_of)))
            clause.add(index_of[key])
        clauses.append(clause)
    dep_of_group = {group: dep for dep, group in group_of.items()}

    def feasible(chosen: frozenset[int]) -> bool:
        deps = {dep_of_group[groups[var]] for var in chosen}
        return len(deps) == len({(dep.group, dep.artifact) for dep in deps})

    model = solve_min(
        CoveringProblem(len(names), clauses, weights, groups=groups),
        feasible=feasible,
        tie_key=lambda chosen: tuple(sorted(names[var] for var in chosen)),
    )
    bindings, ambiguities = [], []
    for (sketch, found), clause in zip(tables, clauses):
        keys = sorted(names[var] for var in clause & model.true_vars)
        if len(keys) > 1:
            ambiguities.append(
                f"{sketch.render()} is satisfied by {len(keys)} choices: " + ", ".join(keys)
            )
        entry = next(entry for entry, key in found if key == keys[0])
        bindings.append((sketch.render(), entry.render(), keys[0]))
    return {
        "cost": model.cost,
        "chosen": sorted(names[var] for var in model.true_vars),
        "bindings": bindings,
        "ambiguities": ambiguities,
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
    }


_RUNNERS = (("T p.A", "org.x:core:1"), ("M p.A.run(java.lang.String)void", "org.x:core:1"),
            ("T q.A", "com.y:core:1"), ("M q.A.run(java.lang.String)void", "com.y:core:1"),
            ("T r.X", "com.z:lib:1"), ("M r.X.run(java.lang.String)void", "com.z:lib:1"))


@example(  # the wide clause comes before the type clause that implies it
    drawn=_pinned((), *_RUNNERS),
    snippet='D d = null; d.run("s"); A v = null;',
)
@example(  # two sketches with equal key sets: the first is kept
    drawn=_pinned(
        (),
        ("T p.A", "org.x:core:1"), ("F p.A.size:int", "org.x:core:1"),
        ("T q.A", "com.y:core:1"), ("F q.A.size:int", "com.y:core:1"),
    ),
    snippet="A v = null; Object f = v.size;",
)
@example(  # the implied list holds fewer entries than the smaller clause's overloads
    drawn=_pinned(
        (),
        ("T p.A", "org.x:core:1"), ("T q.A", "com.y:core:1"),
        ("M p.A.run(java.lang.String)void", "org.x:core:1"),
        ("M p.A.run(int)void", "org.x:core:1"),
        ("M p.A.run(long)void", "org.x:core:1"),
        ("M q.A.run(int)void", "com.y:core:1"),
    ),
    snippet="A v = null; v.run(null); D d = null; d.run(null);",
)
@example(  # a chain: size's keys within run's, A's within size's, run first
    drawn=_pinned(
        (),
        *_RUNNERS,
        ("F p.A.size:int", "org.x:core:1"), ("F q.A.size:int", "com.y:core:1"),
        ("T q.B", "com.y:core:1"), ("F q.B.size:int", "com.y:core:1"),
        ("M q.B.run(java.lang.String)void", "com.y:core:1"),
    ),
    snippet='D d = null; d.run("s"); Object f = d.size; A v = null;',
)
@example(  # the implied `run` clause holds p.Alpha before q.Item, which
    # numbers them in that order in the full problem only; with g:x:1
    # declared both cost nothing, but once q.Item covers `Item` no sketch
    # needs p.Alpha alone, so both problems bind every sketch to q.Item
    drawn=_pinned(
        ("g:x:1",),
        ("M p.Alpha.run(java.lang.String)void", "g:x:1"), ("M p.Alpha.foo()void", "g:x:1"),
        ("T q.Item", "g:x:1"), ("M q.Item.run(java.lang.String)void", "g:x:1"),
        ("M q.Item.foo()void", "g:x:1"),
        ("T r.Item", "g:y:1"), ("M r.Item.run(java.lang.String)void", "g:y:1"),
    ),
    snippet='D d = null; d.run("s"); Item v = null; d.foo();',
)
@settings(max_examples=200, deadline=None)
@given(drawn=_knowledge_bases(), snippet=_snippets())
def test_resolve_is_the_full_problem(drawn, snippet):
    kb, declared = drawn
    expected = _outcome(lambda: _full_answer(snippet, kb, declared))
    assert _outcome(lambda: _answer(resolve(snippet, kb, declared))) == expected
