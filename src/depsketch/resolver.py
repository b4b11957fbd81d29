"""End-to-end resolution: sketches in, dependencies and imports out.

Each sketch becomes a clause over candidate variables.  A variable is not
one knowledge-base entry but one (dependency, providing type) pair, keyed
``group:artifact:version:provider``; the provider is the type itself for
type entries and the declaring type for members.  A static call like
``Pattern.compile(...)`` therefore pins the same variable the ``Pattern``
type sketch offers, unit propagation does the rest, and the import list
falls out of the chosen variables directly.

Weights are 1 per variable, 0 when the variable's dependency was declared
by the caller, so solutions reuse what the project already has.  Each
dependency is one solver group, so among covers of equal weight the solver
prefers fewer distinct dependencies, then the sorted variable keys.  A
feasibility predicate forbids mixing two versions of one artifact.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterable

from .frontend import sketch_source
from .kb import KnowledgeBase
from .model import LINE_END, Coordinate, DepsketchError, KbEntry, Record, Sketch
from .solver import CoveringProblem, solve_min


class ResolutionError(DepsketchError):
    pass


class CoverageError(ResolutionError):
    """Sketches exist but the knowledge base offers nothing for any of them."""


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
    """Clauses for *sketches* against *kb*.

    Returns the problem, variable names, variable dependencies, per-sketch
    ``(sketch, [(variable, entry)])`` candidates in lookup order, builtin
    renders, and unresolved renders.  A hole-free sketch nothing matches is
    taken as platform-provided.
    """
    declared = set(declared)
    index_of: dict[str, int] = {}
    names: list[str] = []
    deps: list[Coordinate] = []
    weights: list[int] = []
    groups: list[int] = []
    group_of: dict[Coordinate, int] = {}  # one group per distinct dependency
    group_weight: list[int] = []
    last_dep = group = None
    clauses: list[set[int]] = []
    tables: list[tuple[Sketch, list[tuple[int, KbEntry]]]] = []
    builtins: list[str] = []
    unresolved: list[str] = []

    for sketch in sketches:
        found = kb.lookup(sketch)
        if not found:
            if sketch.has_holes:
                unresolved.append(sketch.render())
            else:
                builtins.append(sketch.render())
            continue
        candidates: list[tuple[int, KbEntry]] = []
        clause: set[int] = set()
        for entry, key in found:
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(names)
                names.append(key)
                dep = entry.dep
                if dep is not last_dep:  # keys sort by dependency first
                    last_dep = dep
                    group = group_of.get(dep)
                    if group is None:
                        group = group_of[dep] = len(group_weight)
                        group_weight.append(0 if dep in declared else 1)
                deps.append(dep)
                groups.append(group)
                weights.append(group_weight[group])
            candidates.append((index, entry))
            clause.add(index)
        clauses.append(clause)
        tables.append((sketch, candidates))

    if unresolved and not clauses:
        raise CoverageError(
            "the knowledge base cannot cover any sketch in this snippet "
            f"(first unresolved: {unresolved[0]})"
        )
    problem = CoveringProblem(len(names), clauses, weights, groups=groups)
    return problem, names, deps, tables, builtins, unresolved


def _feasible_versions(deps: list[Coordinate], groups: tuple[int, ...]):
    # Each group is one dependency, and two dependencies of one artifact
    # differ in version: a set is feasible when its groups' artifacts differ.
    # `build_problem` numbers groups in order of first use, so each group's
    # first variable lies past the previous group's: the scans for them
    # cover *groups* once, in C.
    artifact: list[tuple[str, str]] = []
    first = 0
    try:
        while True:
            first = groups.index(len(artifact), first)
            artifact.append((deps[first].group, deps[first].artifact))
    except ValueError:  # no variable has the next group
        pass

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
    the knowledge base is useless for the snippet, and ``InfeasibleError``
    when covering would mix versions of one artifact.
    """
    snippet, analysis = sketch_source(source, allow_wrap=not require_unit)
    declared = tuple(declared_deps)
    problem, names, deps, tables, builtins, unresolved = build_problem(
        analysis.sketches, kb, declared
    )
    if strict and (unresolved or builtins):
        raise ResolutionError(
            "no candidates for: " + ", ".join(sorted(unresolved + builtins))
        )
    model = solve_min(
        problem,
        feasible=_feasible_versions(deps, problem.groups),
        tie_key=_tie_key(names),
    )

    bindings: list[Binding] = []
    ambiguities: list[str] = []
    for (sketch, candidates), clause in zip(tables, problem.clauses):
        # Lookup order is (variable key, entry render): bind the first entry
        # under the smallest chosen key, found by bisection, not by a pass
        # over a clause that may hold thousands of candidates.
        keys = sorted([names[index] for index in clause & model.true_vars])
        if len(keys) > 1:
            ambiguities.append(
                f"{sketch.render()} is satisfied by {len(keys)} choices: " + ", ".join(keys)
            )
        first = bisect_left(candidates, keys[0], key=lambda candidate: names[candidate[0]])
        bindings.append(Binding(sketch, candidates[first][1], keys[0]))

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
