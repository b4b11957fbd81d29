"""Minimal-model search over positive covering formulas.

A problem is a conjunction of positive clauses: each clause lists variable
ids of which at least one must be true.  The goal is an irredundant
satisfying set of true variables, one where every variable not forced is
the only true one of some clause, ranked by one key, smallest first:

    (total weight, distinct groups, tie_key(set), sorted ids)

Each variable belongs to a group (the resolver's groups are dependencies);
without groups every variable shares group 0 and the second part never
separates two models.  The empty clause is unsatisfiable by construction
and rejected up front.

``solve_min`` is the production path: unit-clause preprocessing followed by
branch and bound over the remaining clauses on an explicit stack.  It
prunes a node when a lower bound on the first two parts of the key of every
model below it is already greater than the best model's; the bounds come
from greedy sets of pairwise-disjoint uncovered clauses (Coudert, "On
Solving Covering Problems", DAC 1996).  ``brute_force_min`` is an
independent oracle that enumerates candidate sets directly and ranks them
by the same key; the two agree on the chosen set for every input, zero
weights included.  Ranking only irredundant sets costs nothing: dropping a
variable never raises the weight or the groups, so some best model is
irredundant, and no set is picked for holding a variable no clause needs,
so renumbering the variables moves no answer.  Keep the two solvers
separate, the tests compare one against the other.
"""

from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import Callable, Iterable

from .model import DepsketchError, Record

_BRUTE_FORCE_CAP = 25


class SolverError(DepsketchError):
    pass


class EmptyClauseError(SolverError):
    """A clause with no candidates at all; nothing can cover it."""


class InfeasibleError(SolverError):
    """Every cover violates the feasibility predicate."""


class CoveringProblem(Record):
    """Positive clauses over ``num_vars`` variables, with optional weights,
    groups, and a set of variables forced true before the search starts.

    ``groups[v]`` is the group of variable ``v``, a number below
    ``num_vars``; by default all variables share group 0.  Immutable.
    """

    __slots__ = ("num_vars", "clauses", "weights", "forced", "groups")
    __setattr__ = __delattr__ = Record._read_only
    __hash__ = Record._hash

    def __init__(
        self,
        num_vars: int,
        clauses: Iterable[Iterable[int]],
        weights: Iterable[int] = (),
        forced: Iterable[int] = (),
        groups: Iterable[int] = (),
    ):
        _set = object.__setattr__
        _set(self, "num_vars", num_vars)
        _set(self, "clauses", tuple(frozenset(c) for c in clauses))
        _set(self, "weights", tuple(weights) or (1,) * num_vars)
        _set(self, "forced", frozenset(forced))
        _set(self, "groups", tuple(groups) or (0,) * num_vars)
        if num_vars < 0:
            raise ValueError("negative variable count")
        if len(self.weights) != num_vars:
            raise ValueError(f"expected {num_vars} weights, got {len(self.weights)}")
        if num_vars and min(self.weights) < 0:
            raise ValueError("weights must be non-negative")
        if len(self.groups) != num_vars:
            raise ValueError(f"expected {num_vars} groups, got {len(self.groups)}")
        if num_vars and not (min(self.groups) >= 0 and max(self.groups) < num_vars):
            raise ValueError(f"groups must lie in [0, {num_vars})")
        for clause in self.clauses:
            if not clause:
                raise EmptyClauseError("a clause with no candidates cannot be covered")
            self._check_range(clause)
        self._check_range(self.forced)

    def _check_range(self, variables: frozenset[int]) -> None:
        if variables and (min(variables) < 0 or max(variables) >= self.num_vars):
            var = next(v for v in variables if not 0 <= v < self.num_vars)
            raise ValueError(f"variable {var} out of range [0, {self.num_vars})")

    def cost(self, variables: Iterable[int]) -> int:
        return sum(self.weights[v] for v in variables)

    def group_count(self, variables: Iterable[int]) -> int:
        return len({self.groups[v] for v in variables})


class Model(Record):
    """A chosen set of true variables and its total weight; immutable."""

    __slots__ = ("true_vars", "cost")
    __setattr__ = __delattr__ = Record._read_only
    __hash__ = Record._hash


Feasible = Callable[[frozenset[int]], bool]
TieKey = Callable[[frozenset[int]], object]


def preprocess(problem: CoveringProblem) -> CoveringProblem:
    """Force every unit clause's variable and drop all covered clauses.

    Clauses never shrink (variables are only ever set true), so one pass
    reaches the fixpoint: surviving clauses had two or more candidates and
    still do.
    """
    forced = set(problem.forced)
    live = [c for c in problem.clauses if not (c & forced)]
    for clause in live:
        if len(clause) == 1:
            forced.update(clause)
    remaining = tuple(c for c in live if not (c & forced))
    return CoveringProblem(problem.num_vars, remaining, problem.weights, forced, problem.groups)


def _score(problem: CoveringProblem, variables: frozenset[int], tie_key: TieKey | None) -> tuple:
    """The ranking key of a model; both solvers keep its minimum."""
    key: tuple = (problem.cost(variables), problem.group_count(variables))
    if tie_key is not None:
        key += (tie_key(variables),)
    return key + (tuple(sorted(variables)),)


def solve_min(
    problem: CoveringProblem,
    *,
    feasible: Feasible | None = None,
    tie_key: TieKey | None = None,
) -> Model:
    """The best irredundant model by the ranking key; see the module docstring.

    ``feasible`` must be anti-monotone (infeasible sets stay infeasible when
    grown); it prunes branches and raises ``InfeasibleError`` when nothing
    passes.  ``tie_key`` is called once per scored leaf.

    The search branches on the smallest uncovered clause, one child per
    variable; a child excludes its siblings with smaller ids, so each
    irredundant cover is reached once, down the children of its smallest
    variable in each branching clause.  A leaf that is not irredundant is
    skipped before it is scored.  A node is pruned when a lower bound on
    ``(cost, groups)`` of every model below it is strictly greater than the
    best model's: the cost bound adds to the cost so far the cheapest weight
    of each clause in a greedy set of pairwise-disjoint uncovered clauses,
    and the groups bound adds to the groups so far one per uncovered clause
    in a greedy set whose groups are new and pairwise disjoint.  Exact ties
    are never pruned, so they still reach ``tie_key``.

    Children likeliest to be best go first: cheapest, then in a group
    already picked, then in the group that can cover the most clauses; a
    one-group model is then usually the first leaf and bounds the rest.
    Nodes live on an explicit stack, so the depth is not limited by the
    interpreter's recursion limit.
    """
    pre = preprocess(problem)
    if feasible is not None and not feasible(pre.forced):
        raise InfeasibleError("the forced choices already conflict")

    weights, groups = problem.weights, problem.groups
    # Sorted once, smallest first: the branching clause is then always the
    # first uncovered one, and the greedy bounds take small clauses first.
    clauses = sorted(pre.clauses, key=lambda c: (len(c), sorted(c)))
    ascending = [sorted(c) for c in clauses]
    # One itemgetter call reads a wide clause's weights in C; given one
    # index, it returns the bare weight.
    cheapest = [min(itemgetter(*c)(weights)) if len(c) > 1 else weights[c[0]] for c in ascending]
    group_sets = [{groups[v] for v in c} for c in clauses]
    clause_groups = [sum(1 << g for g in found) for found in group_sets]
    reach = [0] * problem.num_vars  # group -> live clauses it can cover
    for found in group_sets:
        for group in found:
            reach[group] += 1

    def bounds(uncovered, picked: int) -> tuple[int, int]:
        """Least cost still to pay and least groups in all, over every model
        below: greedy sets of uncovered clauses pairwise disjoint in
        variables, and in groups (counting the picked ones as taken)."""
        used: set[int] = set()
        cost, taken, count = 0, picked, picked.bit_count()
        for index in uncovered:
            if used.isdisjoint(clauses[index]):
                used.update(clauses[index])
                cost += cheapest[index]
            if not clause_groups[index] & taken:
                taken |= clause_groups[index]
                count += 1
        return cost, count

    best: tuple | None = None  # the key of best_vars; best[:2] is (cost, groups)
    best_vars: frozenset[int] | None = None
    cost = problem.cost(pre.forced)
    picked = sum(1 << g for g in {groups[v] for v in pre.forced})
    # A node: the variable it adds (None at the root), the parent's set,
    # cost, group mask and uncovered clauses, the variables it may not use,
    # and a lower bound on the cost of every model below it.
    stack: list[tuple] = [(None, pre.forced, cost, picked, range(len(clauses)), 0, cost)]
    while stack:
        var, chosen, cost, picked, uncovered, blocked, low = stack.pop()
        if var is not None:
            cost += weights[var]
            picked |= 1 << groups[var]
            if best is not None and (low, picked.bit_count()) > best[:2]:
                continue
            chosen = chosen | {var}
            uncovered = [index for index in uncovered if var not in clauses[index]]
        to_pay, least_groups = bounds(uncovered, picked)
        if best is not None and (max(low, cost + to_pay), least_groups) > best[:2]:
            continue
        if var is not None and feasible is not None and not feasible(chosen):
            continue
        if not uncovered:
            # Irredundant: each branched variable is the only chosen one of
            # some clause.  The live clauses hold no forced variable, so
            # `sole` holds branched ones only.
            sole: set[int] = set()
            for clause in clauses:
                hit = clause & chosen
                if len(hit) == 1:
                    sole |= hit
            if len(sole) + len(pre.forced) < len(chosen):
                continue
            key = _score(problem, chosen, tie_key)
            if best is None or key < best:
                best, best_vars = key, chosen
            continue
        first = uncovered[0]
        # The greedy set starts with the branching clause, and a child's
        # variable lies in no other clause of it: those stay uncovered below
        # the child, which inherits their bound plus its own weight.
        base = cost + to_pay - cheapest[first]
        children = []
        for v in ascending[first]:
            if not blocked >> v & 1:
                children.append((v, chosen, cost, picked, uncovered, blocked, base + weights[v]))
                blocked |= 1 << v

        def promise(child: tuple) -> tuple:
            v = child[0]
            return (weights[v], not picked >> groups[v] & 1, -reach[groups[v]], v)

        stack.extend(sorted(children, key=promise, reverse=True))  # best on top
    if best_vars is None:
        raise InfeasibleError("no cover satisfies the constraints")
    return Model(best_vars, problem.cost(best_vars))


def brute_force_min(
    problem: CoveringProblem,
    *,
    feasible: Feasible | None = None,
    tie_key: TieKey | None = None,
) -> Model:
    """Reference answer by direct enumeration; capped at 25 variables.

    Subsets of the free variables join ``forced`` by increasing size; a
    model counts when removing any one of those free variables breaks
    `check`.  When every weight is one positive value, the first size that
    holds a model holds the best one; otherwise every size is scored.
    Agreement with ``solve_min`` on the chosen set holds for every weight.
    """
    if problem.num_vars > _BRUTE_FORCE_CAP:
        raise SolverError(f"brute force is capped at {_BRUTE_FORCE_CAP} variables")
    uniform = len(set(problem.weights)) <= 1 and 0 not in problem.weights
    free = [v for v in range(problem.num_vars) if v not in problem.forced]
    best: tuple | None = None
    best_vars: frozenset[int] | None = None
    for size in range(len(free) + 1):
        for combo in combinations(free, size):
            candidate = problem.forced.union(combo)
            if (
                check(problem, candidate)
                and not any(check(problem, candidate - {v}) for v in combo)
                and (feasible is None or feasible(candidate))
            ):
                key = _score(problem, candidate, tie_key)
                if best is None or key < best:
                    best, best_vars = key, candidate
        if uniform and best_vars is not None:
            break
    if best_vars is None:
        raise InfeasibleError("no cover satisfies the constraints")
    return Model(best_vars, problem.cost(best_vars))


def check(problem: CoveringProblem, true_vars: frozenset[int]) -> bool:
    """Is this set a model: forced included and every clause intersected."""
    return problem.forced <= true_vars and all(c & true_vars for c in problem.clauses)


def dump_problem(problem: CoveringProblem, names: Iterable[str] = ()) -> str:
    """Debug dump: clause lines are 0-terminated, so ids are 1-based.

    Forced variables appear as unit clauses; the header counts them as such.
    ``c`` lines name variables, ``w`` lines give non-default weights.
    """
    lines = [f"p cover {problem.num_vars} {len(problem.clauses) + len(problem.forced)}"]
    for index, name in enumerate(names):
        lines.append(f"c {index + 1} {name}")
    for var, weight in enumerate(problem.weights):
        if weight != 1:
            lines.append(f"w {var + 1} {weight}")
    for var in sorted(problem.forced):
        lines.append(f"{var + 1} 0")
    for clause in problem.clauses:
        lines.append(" ".join(str(var + 1) for var in sorted(clause)) + " 0")
    return "\n".join(lines) + "\n"
