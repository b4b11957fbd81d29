from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depsketch.solver import (
    CoveringProblem,
    EmptyClauseError,
    InfeasibleError,
    Model,
    SolverError,
    _score,
    brute_force_min,
    check,
    dump_problem,
    preprocess,
    solve_min,
)


class TestConstruction:
    def test_empty_clause_rejected(self):
        with pytest.raises(EmptyClauseError):
            CoveringProblem(2, [[0], []])

    def test_out_of_range_variable_rejected(self):
        with pytest.raises(ValueError):
            CoveringProblem(2, [[0, 2]])
        with pytest.raises(ValueError):
            CoveringProblem(2, [[-1]])
        with pytest.raises(ValueError):
            CoveringProblem(2, [[0]], forced=[5])

    def test_weights_must_match_and_be_non_negative(self):
        with pytest.raises(ValueError):
            CoveringProblem(2, [[0]], weights=(1,))
        with pytest.raises(ValueError):
            CoveringProblem(2, [[0]], weights=(1, -1))

    def test_default_weights_are_unit(self):
        assert CoveringProblem(3, [[0]]).weights == (1, 1, 1)

    def test_zero_variable_problem(self):
        problem = CoveringProblem(0, [])
        assert solve_min(problem) == Model(frozenset(), 0)
        assert brute_force_min(problem) == Model(frozenset(), 0)

    def test_cost_uses_weights(self):
        problem = CoveringProblem(3, [[0]], weights=(2, 3, 4))
        assert problem.cost({0, 2}) == 6

    def test_default_groups_are_one_shared_group(self):
        problem = CoveringProblem(3, [[0]])
        assert problem.groups == (0, 0, 0)
        assert problem.group_count({0, 1, 2}) == 1

    def test_groups_must_match_and_lie_in_range(self):
        with pytest.raises(ValueError):
            CoveringProblem(2, [[0]], groups=(0,))
        with pytest.raises(ValueError):
            CoveringProblem(2, [[0]], groups=(0, 2))
        with pytest.raises(ValueError):
            CoveringProblem(2, [[0]], groups=(-1, 0))


class TestPreprocess:
    def test_unit_clause_forces_and_covers(self):
        problem = CoveringProblem(3, [[0], [0, 1], [1, 2]])
        pre = preprocess(problem)
        assert pre.forced == frozenset({0})
        assert pre.clauses == (frozenset({1, 2}),)

    def test_two_units_both_forced(self):
        pre = preprocess(CoveringProblem(2, [[0], [1]]))
        assert pre.forced == frozenset({0, 1})
        assert pre.clauses == ()

    def test_no_units_is_identity(self):
        problem = CoveringProblem(3, [[0, 1], [1, 2]])
        pre = preprocess(problem)
        assert pre.forced == frozenset()
        assert set(pre.clauses) == {frozenset({0, 1}), frozenset({1, 2})}

    def test_existing_forced_covers_clauses(self):
        pre = preprocess(CoveringProblem(3, [[0, 1], [2]], forced=[1]))
        assert pre.forced == frozenset({1, 2})
        assert pre.clauses == ()

    def test_groups_carried_through(self):
        pre = preprocess(CoveringProblem(3, [[0], [1, 2]], groups=(2, 1, 0)))
        assert pre.groups == (2, 1, 0)


class TestSolveMin:
    def test_shared_variable_wins(self):
        model = solve_min(CoveringProblem(3, [[0, 1], [1, 2]]))
        assert model == Model(frozenset({1}), 1)

    def test_unit_clause(self):
        assert solve_min(CoveringProblem(1, [[0]])) == Model(frozenset({0}), 1)

    def test_weights_redirect_the_choice(self):
        problem = CoveringProblem(4, [[0, 1], [2, 3]], weights=(5, 1, 1, 5))
        assert solve_min(problem) == Model(frozenset({1, 2}), 2)

    def test_forced_vars_count_into_cost(self):
        problem = CoveringProblem(3, [[1, 2]], forced=[0])
        model = solve_min(problem)
        assert model.true_vars == frozenset({0, 1})
        assert model.cost == 2

    def test_lexicographic_tie_break(self):
        # {0} and {1} both cover; smallest sorted tuple wins
        assert solve_min(CoveringProblem(2, [[0, 1]])).true_vars == frozenset({0})

    def test_tie_key_overrides_lexicographic(self):
        prefer_high = lambda s: tuple(sorted(-v for v in s))
        model = solve_min(CoveringProblem(2, [[0, 1]]), tie_key=prefer_high)
        assert model.true_vars == frozenset({1})

    def test_feasible_prunes_to_alternative(self):
        # cheapest cover {1} conflicts; must fall back to {0, 2}
        no_one = lambda s: 1 not in s
        model = solve_min(CoveringProblem(3, [[0, 1], [1, 2]]), feasible=no_one)
        assert model.true_vars == frozenset({0, 2})

    def test_infeasible_everything_raises(self):
        with pytest.raises(InfeasibleError):
            solve_min(CoveringProblem(2, [[0], [1]]), feasible=lambda s: len(s) < 2)

    def test_infeasible_forced_raises(self):
        with pytest.raises(InfeasibleError):
            solve_min(CoveringProblem(1, [], forced=[0]), feasible=lambda s: 0 not in s)

    def test_problem_without_groups_keeps_its_model(self):
        # zero weights tie the irredundant covers {0, 2} and {1} ({0, 1}
        # holds 0, which no clause needs alone); without groups the ids
        # decide, with one group per variable {1} touches fewest
        problem = CoveringProblem(3, [[0, 1], [1, 2]], weights=(0, 0, 0))
        assert solve_min(problem) == Model(frozenset({0, 2}), 0)
        regrouped = CoveringProblem(3, problem.clauses, problem.weights, groups=(0, 1, 2))
        assert solve_min(regrouped) == Model(frozenset({1}), 0)

    def test_search_tree_does_not_depend_on_exploration_order(self):
        # {0, 1, 3} ranks below {0, 3} but holds 1, which no clause needs
        # alone; branching on [0, 2] first, 2 (weight 0) is explored first
        # yet excludes 0 from its subtree as in ascending order, and the
        # model stays the one ascending order gives
        problem = CoveringProblem(4, [[3], [2, 0], [0, 1]], weights=(1, 0, 1, 1))
        assert solve_min(problem) == Model(frozenset({0, 3}), 2)

    def test_fewer_groups_beat_smaller_ids(self):
        problem = CoveringProblem(4, [[0, 1], [2, 3]])
        assert solve_min(problem).true_vars == frozenset({0, 2})
        grouped = CoveringProblem(4, [[0, 1], [2, 3]], groups=(0, 1, 1, 0))
        assert solve_min(grouped).true_vars == frozenset({0, 3})
        assert brute_force_min(grouped).true_vars == frozenset({0, 3})

    def test_cost_outranks_groups(self):
        # one group costs 3, two groups cost 2
        problem = CoveringProblem(3, [[0, 1], [0, 2]], weights=(3, 1, 1), groups=(0, 1, 2))
        assert solve_min(problem) == Model(frozenset({1, 2}), 2)

    def test_tie_key_sees_only_exact_ties_of_cost_and_groups(self):
        seen = []

        def tie_key(chosen):
            seen.append(chosen)
            return tuple(sorted(-v for v in chosen))

        problem = CoveringProblem(4, [[0, 1], [2, 3]], groups=(0, 1, 0, 1))
        assert solve_min(problem, tie_key=tie_key).true_vars == frozenset({1, 3})
        assert all(problem.group_count(chosen) == 1 for chosen in seen)

    def test_deep_problem_runs_on_an_explicit_stack(self):
        # 1200 disjoint two-way clauses, one variable of each in group 0:
        # deeper than the interpreter's default recursion limit
        n = 1200
        problem = CoveringProblem(
            2 * n, [[2 * i, 2 * i + 1] for i in range(n)], groups=[v % 2 for v in range(2 * n)]
        )
        leaves = []
        model = solve_min(problem, tie_key=lambda chosen: leaves.append(chosen) or 0)
        assert model.true_vars == frozenset(range(0, 2 * n, 2))
        assert len(leaves) <= 2


class TestBruteForce:
    def test_matches_frozen_examples(self):
        assert brute_force_min(CoveringProblem(3, [[0, 1], [1, 2]])) == Model(
            frozenset({1}), 1
        )
        weighted = CoveringProblem(4, [[0, 1], [2, 3]], weights=(5, 1, 1, 5))
        assert brute_force_min(weighted) == Model(frozenset({1, 2}), 2)

    def test_no_clauses_empty_model(self):
        assert brute_force_min(CoveringProblem(4, [])) == Model(frozenset(), 0)

    def test_cap_at_26_variables(self):
        with pytest.raises(SolverError) as err:
            brute_force_min(CoveringProblem(26, [[0]]))
        assert "capped" in str(err.value)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            brute_force_min(CoveringProblem(2, [[0], [1]]), feasible=lambda s: len(s) < 2)


class TestCheck:
    def test_model_passes(self):
        problem = CoveringProblem(3, [[0, 1], [1, 2]])
        assert check(problem, frozenset({1}))
        assert check(problem, frozenset({0, 2}))

    def test_uncovered_clause_fails(self):
        assert not check(CoveringProblem(3, [[0, 1], [2]]), frozenset({0}))

    def test_missing_forced_fails(self):
        assert not check(CoveringProblem(2, [[1]], forced=[0]), frozenset({1}))


class TestDump:
    def test_frozen_dump(self):
        problem = CoveringProblem(3, [[0, 1], [1, 2]], weights=(1, 2, 1), forced=[0])
        assert dump_problem(problem, ["x", "y", "z"]) == (
            "p cover 3 3\n"
            "c 1 x\n"
            "c 2 y\n"
            "c 3 z\n"
            "w 2 2\n"
            "1 0\n"
            "1 2 0\n"
            "2 3 0\n"
        )

    def test_minimal_dump_has_no_decorations(self):
        assert dump_problem(CoveringProblem(2, [[0, 1]])) == "p cover 2 1\n1 2 0\n"


# -- property tests ------------------------------------------------------------


@st.composite
def covering_problems(draw, max_vars=15, max_clauses=10, weight_pool=None, grouped=False):
    num_vars = draw(st.integers(min_value=1, max_value=max_vars))
    clauses = draw(
        st.lists(
            st.sets(
                st.integers(min_value=0, max_value=num_vars - 1),
                min_size=1,
                max_size=min(5, num_vars),
            ),
            max_size=max_clauses,
        )
    )
    weights: tuple[int, ...] = ()
    if weight_pool is not None:
        weights = tuple(
            draw(st.sampled_from(weight_pool)) for _ in range(num_vars)
        )
    groups: tuple[int, ...] = ()
    if grouped:
        groups = tuple(
            draw(st.integers(0, min(num_vars, 4) - 1)) for _ in range(num_vars)
        )
    return CoveringProblem(num_vars, clauses, weights, groups=groups)


@st.composite
def conflict_predicates(draw, max_vars=15):
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(0, max_vars - 1), st.integers(0, max_vars - 1)
            ).filter(lambda p: p[0] != p[1]),
            max_size=4,
        )
    )

    def feasible(chosen: frozenset[int]) -> bool:
        return not any(a in chosen and b in chosen for a, b in pairs)

    return feasible


@given(problem=covering_problems())
def test_solver_agrees_with_oracle_on_unit_weights(problem):
    assert solve_min(problem) == brute_force_min(problem)


@given(problem=covering_problems(max_vars=10, weight_pool=(1, 2, 3)))
def test_solver_agrees_with_oracle_on_positive_weights(problem):
    assert solve_min(problem) == brute_force_min(problem)


@example(problem=CoveringProblem(2, [[1]], (0, 1)))  # (0, 1) sorts before (1,)
@given(problem=covering_problems(max_vars=10, weight_pool=(0, 1, 2, 3)))
def test_solver_matches_oracle_cost_with_zero_weights(problem):
    # a zero weight lets a cover hold a variable no clause needs at no
    # cost; neither solver ranks such a cover, so the models agree
    assert solve_min(problem) == brute_force_min(problem)


@given(problem=covering_problems())
def test_preprocessing_is_sound(problem):
    assert solve_min(preprocess(problem)) == solve_min(problem)


@given(problem=covering_problems())
def test_solutions_always_check(problem):
    model = solve_min(problem)
    assert check(problem, model.true_vars)
    assert model.cost == problem.cost(model.true_vars)


@given(problem=covering_problems(weight_pool=(0, 1, 2, 3), grouped=True))
def test_minimality_witness(problem):
    model = solve_min(problem)
    for var in model.true_vars - problem.forced:
        assert not check(problem, model.true_vars - {var})


@given(
    problem=covering_problems(max_clauses=9),
    extra=st.sets(st.integers(0, 14), min_size=1, max_size=5),
)
def test_extra_clause_never_cheapens(problem, extra):
    clause = {v % problem.num_vars for v in extra}
    grown = CoveringProblem(
        problem.num_vars, problem.clauses + (clause,), problem.weights
    )
    assert solve_min(grown).cost >= solve_min(problem).cost


@given(problem=covering_problems(max_vars=10, weight_pool=(1, 2, 3), grouped=True), data=st.data())
def test_grouped_solver_agrees_with_oracle(problem, data):
    feasible = data.draw(conflict_predicates(max_vars=10))
    try:
        fast = solve_min(problem, feasible=feasible)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            brute_force_min(problem, feasible=feasible)
        return
    assert fast == brute_force_min(problem, feasible=feasible)


@given(problem=covering_problems(max_vars=10), data=st.data())
def test_feasibility_parity(problem, data):
    feasible = data.draw(conflict_predicates(max_vars=10))
    try:
        fast = solve_min(problem, feasible=feasible)
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            brute_force_min(problem, feasible=feasible)
        return
    slow = brute_force_min(problem, feasible=feasible)
    assert fast == slow
    assert feasible(fast.true_vars)


@example(  # {0, 1} sorts first but holds 0, which no clause needs alone
    problem=CoveringProblem(3, [[0, 1], [1, 2]], (0, 0, 0)),
    forced=set(),
    ids=[1, 0, 2, 3, 4, 5, 6, 7],
    labels=list(range(8)),
)
@given(
    problem=covering_problems(max_vars=8, weight_pool=(0, 1), grouped=True),
    forced=st.sets(st.integers(0, 7), max_size=2),
    ids=st.permutations(range(8)),
    labels=st.permutations(range(8)),
)
def test_renumbering_keeps_the_chosen_names(problem, forced, ids, labels):
    # Each variable keeps its name and `tie_key` ranks by names, as the
    # resolver's does, so only the ids and group labels move; the chosen
    # names must not, zero weights included.
    n = problem.num_vars
    forced = {var % n for var in forced}
    new_id = [var for var in ids if var < n]
    new_group = [group for group in labels if group < n]
    names = [f"v{var}" for var in range(n)]
    renamed, weights, groups = [""] * n, [0] * n, [0] * n
    for var in range(n):
        renamed[new_id[var]] = names[var]
        weights[new_id[var]] = problem.weights[var]
        groups[new_id[var]] = new_group[problem.groups[var]]
    renumbered = CoveringProblem(
        n,
        [{new_id[var] for var in clause} for clause in problem.clauses],
        weights,
        {new_id[var] for var in forced},
        groups,
    )
    problem = CoveringProblem(n, problem.clauses, problem.weights, forced, problem.groups)

    def chosen_names(problem, names):
        model = solve_min(problem, tie_key=lambda s: tuple(sorted(names[v] for v in s)))
        return sorted(names[var] for var in model.true_vars), model.cost

    assert chosen_names(renumbered, renamed) == chosen_names(problem, names)


@given(problem=covering_problems())
@settings(max_examples=25)
def test_determinism(problem):
    assert solve_min(problem) == solve_min(problem)
    rebuilt = CoveringProblem(
        problem.num_vars, list(problem.clauses), problem.weights, problem.forced
    )
    assert solve_min(rebuilt) == solve_min(problem)


def _score_every_subset(problem, feasible, tie_key):
    """The oracle's answer worked out the slow way: every subset that is an
    irredundant feasible model, ranked by `_score`, with no early stop."""
    subsets = (
        frozenset(combo)
        for size in range(problem.num_vars + 1)
        for combo in combinations(range(problem.num_vars), size)
    )
    models = [
        s
        for s in subsets
        if check(problem, s)
        and not any(check(problem, s - {v}) for v in s - problem.forced)
        and (feasible is None or feasible(s))
    ]
    if not models:
        return None
    best = min(models, key=lambda s: _score(problem, s, tie_key))
    return Model(best, problem.cost(best))


@given(
    problem=st.sampled_from([(1,), (2,), (1, 2, 3), (0, 1, 2), (0,)]).flatmap(
        lambda pool: covering_problems(max_vars=8, max_clauses=6, weight_pool=pool, grouped=True)
    ),
    data=st.data(),
)
def test_oracle_matches_every_subset_scored(problem, data):
    # uniform (1 and 2), mixed and zero weights, forced variables, groups,
    # a conflict predicate and a tie_key, against one exhaustive ranking
    forced = data.draw(st.sets(st.integers(0, problem.num_vars - 1), max_size=2))
    problem = CoveringProblem(
        problem.num_vars, problem.clauses, problem.weights, forced, problem.groups
    )
    feasible = data.draw(st.none() | conflict_predicates(max_vars=8))
    tie_key = data.draw(st.sampled_from([None, lambda s: tuple(sorted(-v for v in s))]))
    expected = _score_every_subset(problem, feasible, tie_key)
    if expected is None:
        with pytest.raises(InfeasibleError):
            brute_force_min(problem, feasible=feasible, tie_key=tie_key)
        return
    assert brute_force_min(problem, feasible=feasible, tie_key=tie_key) == expected
