"""End-to-end resolution: sketches in, dependencies and imports out.

Each sketch becomes a clause over candidate variables.  A variable is not
one knowledge-base entry but one (dependency, providing type) pair, keyed
``group:artifact:version:provider``; the provider is the type itself for
type entries and the declaring type for members.  A static call like
``Pattern.compile(...)`` therefore pins the same variable the ``Pattern``
type sketch offers, unit propagation does the rest, and the import list
falls out of the chosen variables directly.

A clause whose keys include every key of another clause is implied by it
and left out before its candidates are numbered, so a member sketch that
thousands of types offer costs nothing once a type sketch offers a few of
them.  Its sketch is still bound, from the chosen keys its lookup list
holds.

Weights are 1 per variable, 0 when the variable's dependency was declared
by the caller, so solutions reuse what the project already has.  Each
dependency is one solver group, so among irredundant covers of equal
weight the solver prefers fewer distinct dependencies, then the sorted
variable keys.  A feasibility predicate allows one group per artifact, so
versions never mix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .frontend import sketch_source
from .kb import KnowledgeBase
from .model import LINE_END, Coordinate, DepsketchError, KbEntry, Record, Sketch
from .solver import CoveringProblem, InfeasibleError, solve_min


class ResolutionError(DepsketchError):
    pass


class CoverageError(ResolutionError):
    """Sketches exist but none is covered: the knowledge base offers nothing
    for any of them, and none is hole-free and so platform-provided."""


class Binding(Record):
    """The entry a sketch is bound to, and its solver variable; immutable.

    Unhashable, as its `Sketch` is.
    """

    __slots__ = ("sketch", "entry", "variable_key")
    __setattr__ = __delattr__ = Record._read_only


class Resolution(Record):
    """Everything `resolve` found for one snippet.

    ``imports`` are the provider FQNs of everything bound, ``dependencies``
    the coordinate renders actually used, ``builtins`` the sketch renders
    assumed platform-provided and ``unresolved`` those nothing matched.
    """

    __slots__ = (
        "snippet", "analysis", "sketches", "problem", "variable_names", "model", "bindings",
        "imports", "dependencies", "builtins", "unresolved", "ambiguities",
    )

    @property
    def cost(self) -> int:
        return self.model.cost


def build_problem(
    sketches: Iterable[Sketch],
    kb: KnowledgeBase,
    declared: Iterable[Coordinate] = (),
) -> tuple[CoveringProblem, list[str], list[Coordinate], list[tuple[Sketch, list]], list[str], list[str]]:
    """Clauses for *sketches* against *kb*, implied clauses left out.

    Returns the problem, variable names, each group's dependency (one group
    per distinct dependency, numbered in order of first use), per-sketch
    ``(sketch, found)`` tables where *found* is the list `KnowledgeBase.lookup`
    returned, builtin renders, and unresolved renders.  A hole-free sketch
    nothing matches is taken as platform-provided.

    Every sketch with candidates has a table, but a clause only when
    `_implied` keeps it, in sketch order: a cover of the kept clauses covers
    the rest, so no candidate only an implied clause offers is numbered.
    The variables are the kept clauses' keys, numbered by first use among
    them; the solver ranks only irredundant covers, so the numbering moves
    no answer.
    """
    declared = set(declared)
    tables: list[tuple[Sketch, list[tuple[KbEntry, str]]]] = []
    builtins: list[str] = []
    unresolved: list[str] = []
    for sketch in sketches:
        found = kb.lookup(sketch)
        if found:
            tables.append((sketch, found))
        elif sketch.has_holes:
            unresolved.append(sketch.render())
        else:
            builtins.append(sketch.render())
    if unresolved and not tables and not builtins:
        raise CoverageError(
            "the knowledge base cannot cover any sketch in this snippet "
            f"(first unresolved: {unresolved[0]})"
        )

    lists = [found for _, found in tables]
    implied = _implied(lists)
    dep_of: dict[str, Coordinate] = {}  # kept keys by first use, and their dependency
    for found, gone in zip(lists, implied):
        if not gone:
            for entry, key in found:
                dep_of.setdefault(key, entry.dep)
    names = list(dep_of)
    index_of = {key: index for index, key in enumerate(names)}
    groups: list[int] = []
    group_of: dict[Coordinate, int] = {}
    last_dep = group = None
    for dep in dep_of.values():
        if dep is not last_dep:  # keys of one list sort by dependency first
            last_dep, group = dep, group_of.setdefault(dep, len(group_of))
        groups.append(group)
    group_deps = list(group_of)
    weight_of = [0 if dep in declared else 1 for dep in group_deps]
    weights = [weight_of[group] for group in groups]
    clauses = [
        set(map(index_of.__getitem__, map(_KEY, found)))
        for found, gone in zip(lists, implied)
        if not gone
    ]
    problem = CoveringProblem(len(names), clauses, weights, groups=groups)
    return problem, names, group_deps, tables, builtins, unresolved


_KEY = itemgetter(1)


def _offers(found: list[tuple[KbEntry, str]], key: str) -> bool:
    """Does the key-sorted lookup list *found* hold *key*?"""
    at = bisect_left(found, key, key=_KEY)
    return at < len(found) and found[at][1] == key


def _within(small: list[tuple[KbEntry, str]], large: list[tuple[KbEntry, str]]) -> bool:
    """Is every key of *small* one of *large*'s?  Stops at the first miss."""
    return all(_offers(large, key) for _, key in small)


def _keys(found: list[tuple[KbEntry, str]]) -> dict[str, None]:
    """The distinct keys of a lookup list, in its order."""
    return dict.fromkeys(map(_KEY, found))


def _implied(lists: list[list[tuple[KbEntry, str]]]) -> list[bool]:
    """For each key-sorted lookup list, does it hold every key of another?

    Such a clause is implied by the smaller one (row dominance, Coudert,
    "On Solving Covering Problems", DAC 1996), so it can be left out.  Of
    lists with equal key sets the first is kept.

    A list that holds every key of another holds each one of them, so every
    list is indexed under one of its keys, its watch: the key the fewest
    lists hold, counted over the entries of the lists shorter than the
    number of lists, since those are read key by key anyway; a longer list
    watches its smallest key.  A list's candidates come from that index,
    read by whichever is shorter: the list's own keys, or the watch keys
    within its range, each looked up by bisection.  Rare watches keep the
    candidates few: were the smallest key every list's watch, calls to many
    methods that one type offers among others would check every pair of
    their lists.
    """
    short = len(lists)
    holders = Counter(
        map(_KEY, chain.from_iterable(found for found in lists if len(found) < short))
    )
    watchers: dict[str, list[int]] = {}
    alone: dict[str, int] = {}  # key -> first list holding that key alone
    for position, found in enumerate(lists):
        watch = found[0][1]
        if watch == found[-1][1]:
            alone.setdefault(watch, position)
        elif len(found) < short:
            watch = min(_keys(found), key=holders.__getitem__)
        watchers.setdefault(watch, []).append(position)
    watched = sorted(watchers)
    implied = []
    for position, found in enumerate(lists):
        smallest, largest = found[0][1], found[-1][1]
        if smallest == largest:  # only an earlier list of that key alone implies it
            implied.append(alone[smallest] < position)
            continue
        if len(found) < len(watched):
            keys = [key for key in _keys(found) if key in watchers]
        else:
            low = bisect_left(watched, smallest)
            keys = [
                key for key in watched[low : bisect_right(watched, largest, low)] if _offers(found, key)
            ]
        implied.append(
            any(
                other != position
                and _within(lists[other], found)
                and (other < position or not _within(found, lists[other]))
                for key in keys
                for other in watchers[key]
            )
        )
    return implied


def _feasible_versions(group_deps: list[Coordinate], groups: tuple[int, ...]):
    # Each group is one dependency, and two dependencies of one artifact
    # differ in version: a set is feasible when its groups' artifacts differ.
    artifact = [(dep.group, dep.artifact) for dep in group_deps]

    def feasible(chosen: frozenset[int]) -> bool:
        picked = {groups[var] for var in chosen}
        return len(picked) == len({artifact[group] for group in picked})

    return feasible


def _tie_key(names: list[str]):
    # Lexicographic variable keys; fewer distinct dependencies is the
    # solver's own groups count, ranked before this.
    def key(chosen: frozenset[int]) -> tuple:
        return tuple(sorted(names[var] for var in chosen))

    return key


def resolve(
    source: str,
    kb: KnowledgeBase,
    declared_deps: Iterable[Coordinate] = (),
    *,
    strict: bool = False,
    require_unit: bool = False,
) -> Resolution:
    """Sketch *source*, pick a minimal dependency set, bind every sketch.

    Raises the frontend errors for unparseable input, ``CoverageError`` when
    no sketch is covered, by the knowledge base or the platform, and ``InfeasibleError``,
    naming each artifact offered in several versions, when covering would
    mix versions of one.
    """
    snippet, analysis = sketch_source(source, allow_wrap=not require_unit)
    declared = tuple(declared_deps)
    problem, names, group_deps, tables, builtins, unresolved = build_problem(
        analysis.sketches, kb, declared
    )
    if strict and (unresolved or builtins):
        raise ResolutionError(
            "no candidates for: " + ", ".join(sorted(unresolved + builtins))
        )
    try:
        model = solve_min(
            problem,
            feasible=_feasible_versions(group_deps, problem.groups),
            tie_key=_tie_key(names),
        )
    except InfeasibleError as exc:  # the version rule is the only constraint
        # Read from every lookup list: an implied clause may offer versions
        # the kept clauses' variables do not.
        versions: dict[str, list[str]] = {}
        for dep in sorted({entry.dep for _, found in tables for entry, _ in found}):
            versions.setdefault(f"{dep.group}:{dep.artifact}", []).append(dep.version)
        raise InfeasibleError(
            "every cover mixes versions of one artifact: "
            + "; ".join(f"{a} at {', '.join(v)}" for a, v in versions.items() if len(v) > 1)
        ) from exc

    chosen = sorted([names[var] for var in model.true_vars])
    held = set(chosen)
    bindings: list[Binding] = []
    ambiguities: list[str] = []
    for sketch, found in tables:
        # Lookup order is (variable key, entry render), so the chosen keys a
        # list holds come from a pass over the shorter of the two, bisecting
        # into the list, never a pass over a list of thousands of candidates;
        # the sketch binds the first entry under the smallest of them.
        if len(found) > len(chosen):
            keys = [key for key in chosen if _offers(found, key)]
        else:
            keys = [key for key in _keys(found) if key in held]
        if len(keys) > 1:
            ambiguities.append(
                f"{sketch.render()} is satisfied by {len(keys)} choices: " + ", ".join(keys)
            )
        entry = found[bisect_left(found, keys[0], key=_KEY)][0]
        bindings.append(Binding(sketch, entry, keys[0]))

    imports = sorted({binding.entry.provider_fqn for binding in bindings})
    dependencies = sorted({binding.entry.dep.render() for binding in bindings})
    return Resolution(
        snippet=snippet,
        analysis=analysis,
        sketches=list(analysis.sketches),
        problem=problem,
        variable_names=names,
        model=model,
        bindings=bindings,
        imports=imports,
        dependencies=dependencies,
        builtins=builtins,
        unresolved=unresolved,
        ambiguities=ambiguities,
    )


def emit_patch(resolution: Resolution, source: str, *, partial: bool = False) -> str:
    """*source* with the missing imports added above its first non-import line.

    *source* is the text *resolution* was resolved from.  A ``package``
    declaration stays above the new imports: the search for that line
    starts on the first line that begins after the declaration.  When the
    first token after the package and imports starts mid-line, behind one
    of them, that line is split before the token and the imports go
    between.  Lines end as `LINE_END` says; the new ones end as every line
    of the input does, or in LF when the input mixes line terminators.
    Everything below the inserted block is byte-identical to the input.
    The ``java.lang`` package and dotless names need no import and are
    skipped; so is anything the snippet already imports.  Unresolved
    sketches block patching unless *partial*.
    """
    if resolution.unresolved and not partial:
        raise ResolutionError(
            f"{len(resolution.unresolved)} sketches are unresolved, pass partial to patch anyway"
        )
    existing = set(resolution.analysis.imports.values())
    wanted = [
        fqn
        for fqn in resolution.imports
        if "." in fqn and fqn.rsplit(".", 1)[0] != "java.lang" and fqn not in existing
    ]
    if not wanted:
        return source
    endings = set(LINE_END.findall(source)) if "\r" in source else {"\n"}
    newline = endings.pop() if len(endings) == 1 else "\n"
    unit = resolution.snippet.unit
    package_end = 0
    if unit.package is not None:
        package_end = _offset(source, unit.package.end_line, unit.package.end_col)
    offset = 0
    for end in chain((match.end() for match in LINE_END.finditer(source)), (len(source),)):
        if offset >= package_end and not source[offset:end].strip().startswith("import "):
            break
        offset = end
    block = "".join(f"import {fqn};{newline}" for fqn in wanted)
    if unit.body is not None:
        body = _offset(source, unit.body.line, unit.body.col)
        if body < offset:
            return source[:body].rstrip(" \t") + newline + block + source[body:]
    return source[:offset] + block + source[offset:]


def _offset(source: str, line: int, col: int) -> int:
    """Index in *source* of *line*:*col* as the lexer counts them.

    Only a literal can hold a line break the lexer does not count, and
    none precedes the package and import declarations.
    """
    offset = 0
    for _ in range(line - 1):
        offset = LINE_END.search(source, offset).end()
    return offset + col - 1
