from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import depsketch.resolver as resolver_module
from depsketch import KnowledgeBase, emit_patch, resolve
from depsketch.frontend import JavaSyntaxError, sketch_source, wrap
from depsketch.kb import variable_key
from depsketch.model import Coordinate, EntryKind, KbEntry, Sketch, matches
from depsketch.resolver import CoverageError, ResolutionError, build_problem
from depsketch.solver import CoveringProblem, InfeasibleError

from conftest import DISTRACTOR, JDK8


def kb_from(*entries: tuple[str, str]) -> KnowledgeBase:
    kb = KnowledgeBase()
    for listing, coord in entries:
        kb.add_entry(KbEntry.from_listing(listing, Coordinate.parse(coord)))
    return kb


class TestBuildProblem:
    def test_fixture_problem_shape(self, fixture_kb, snippet_source):
        from depsketch.frontend import sketch_source

        _, analysis = sketch_source(snippet_source)
        problem, names, deps, tables, builtins, unresolved = build_problem(
            analysis.sketches, fixture_kb
        )
        assert problem.num_vars == 5
        assert names == [
            "jdk:java8:8:java.lang.String",
            "com.regexkit:regexkit:1.2:com.regexkit.Pattern",
            "jdk:java8:8:com.sun.org.apache.xalan.in.xsltc.compiler.Pattern",
            "jdk:java8:8:java.util.regex.Pattern",
            "jdk:java8:8:java.util.regex.Matcher",
        ]
        assert [d.render() for d in deps] == [
            "jdk:java8:8",
            "com.regexkit:regexkit:1.2",
            "jdk:java8:8",
            "jdk:java8:8",
            "jdk:java8:8",
        ]
        assert list(problem.clauses) == [
            frozenset({0}),
            frozenset({1, 2, 3}),
            frozenset({3}),
            frozenset({4}),
            frozenset({3}),
            frozenset({4}),
        ]
        assert problem.weights == (1, 1, 1, 1, 1)
        assert (builtins, unresolved) == ([], [])
        assert len(tables) == len(analysis.sketches)

    def test_member_sketch_reuses_the_type_variable(self, fixture_kb, snippet_source):
        from depsketch.frontend import sketch_source

        _, analysis = sketch_source(snippet_source)
        problem, names, *_ = build_problem(analysis.sketches, fixture_kb)
        pattern_var = names.index("jdk:java8:8:java.util.regex.Pattern")
        compile_clause = problem.clauses[2]
        type_clause = problem.clauses[1]
        assert compile_clause == frozenset({pattern_var})
        assert pattern_var in type_clause

    def test_declared_dependency_zeroes_weights(self, fixture_kb, snippet_source):
        from depsketch.frontend import sketch_source

        _, analysis = sketch_source(snippet_source)
        problem, names, deps, *_ = build_problem(
            analysis.sketches, fixture_kb, declared=[JDK8]
        )
        assert problem.weights == (0, 1, 0, 0, 0)

    def test_every_sketch_lands_in_one_bucket(self, fixture_kb):
        from depsketch.frontend import sketch_source

        _, analysis = sketch_source(
            'Pattern p = null; Unknown u = null; String s = "x"; s.unheard();'
        )
        _, _, _, tables, builtins, unresolved = build_problem(
            analysis.sketches, fixture_kb
        )
        assert len(tables) + len(builtins) + len(unresolved) == len(analysis.sketches)
        assert unresolved == ["?.Unknown", "java.lang.String.unheard()?"]

    def test_variable_key_of_member_is_its_owner(self, fixture_kb):
        entry = KbEntry.from_listing(
            "M java.util.regex.Pattern.compile(java.lang.String)java.util.regex.Pattern",
            JDK8,
        )
        assert variable_key(entry) == "jdk:java8:8:java.util.regex.Pattern"


def _reference_build_problem(sketches, kb, declared=()):
    """`build_problem` as one Python step per candidate: the reference."""
    declared = set(declared)
    index_of, names, deps, weights, groups = {}, [], [], [], []
    group_of, group_weight = {}, []
    clauses, tables, builtins, unresolved = [], [], [], []
    for sketch in sketches:
        found = kb.lookup(sketch)
        if not found:
            (unresolved if sketch.has_holes else builtins).append(sketch.render())
            continue
        candidates, clause = [], set()
        for entry, key in found:
            index = index_of.get(key)
            if index is None:
                index = index_of[key] = len(names)
                names.append(key)
                group = group_of.get(entry.dep)
                if group is None:
                    group = group_of[entry.dep] = len(group_weight)
                    group_weight.append(0 if entry.dep in declared else 1)
                deps.append(entry.dep)
                groups.append(group)
                weights.append(group_weight[group])
            candidates.append((index, entry))
            clause.add(index)
        clauses.append(clause)
        tables.append((sketch, candidates))
    if unresolved and not clauses:
        raise CoverageError(f"first unresolved: {unresolved[0]}")
    problem = CoveringProblem(len(names), clauses, weights, groups=groups)
    return problem, names, deps, tables, builtins, unresolved


_DEPS = [Coordinate.parse(text) for text in ("g:a:1", "g:a:2", "g:b:1", "h:c:1")]
_PACKAGES = ("p", "q", "r.s")
_SIMPLE_NAMES = ("A", "B", "C")


@st.composite
def _provider_kbs(draw) -> KnowledgeBase:
    """Types and their `run` and `size` members, spread over a few
    dependencies, so many sketches share providers."""
    kb = KnowledgeBase()
    providers = st.tuples(
        st.sampled_from(_DEPS), st.sampled_from(_PACKAGES), st.sampled_from(_SIMPLE_NAMES)
    )
    for dep, package, simple in draw(st.lists(providers)):
        owner = f"{package}.{simple}"
        kb.add_entry(KbEntry.from_listing(f"T {owner}", dep))
        if draw(st.booleans()):
            param = draw(st.sampled_from(("int", "p.A")))
            kb.add_entry(KbEntry.from_listing(f"M {owner}.run({param})void", dep))
        if draw(st.booleans()):
            kb.add_entry(KbEntry.from_listing(f"F {owner}.size:int", dep))
    return kb


@st.composite
def _provider_sketches(draw) -> Sketch:
    owners = ("?", *(f"{package}.{simple}" for package in _PACKAGES for simple in _SIMPLE_NAMES))
    kind = draw(st.sampled_from(list(EntryKind)))
    if kind is EntryKind.TYPE:
        owner = draw(st.sampled_from(("?", *_PACKAGES)))
        return Sketch(kind, owner, draw(st.sampled_from(_SIMPLE_NAMES + ("D",))))
    owner = draw(st.sampled_from(owners))
    if kind is EntryKind.METHOD:
        params = (draw(st.sampled_from(("?", "int", "p.A", "long"))),)
        return Sketch(kind, owner, "run", params, draw(st.sampled_from(("?", "void"))))
    return Sketch(kind, owner, draw(st.sampled_from(("size", "count"))), field_type="?")


@given(
    kb=_provider_kbs(),
    sketches=st.lists(_provider_sketches(), max_size=12),
    declared=st.sets(st.sampled_from(_DEPS)),
)
def test_build_problem_is_the_reference(kb, sketches, declared):
    try:
        expected = _reference_build_problem(sketches, kb, declared)
    except CoverageError:
        with pytest.raises(CoverageError):
            build_problem(sketches, kb, declared)
        return
    problem, names, deps, tables, builtins, unresolved = build_problem(sketches, kb, declared)
    assert problem == expected[0]
    assert (names, deps, tables, builtins, unresolved) == expected[1:]


class TestResolveWalkthrough:
    def test_fixture_resolution(self, fixture_kb, snippet_source):
        resolution = resolve(snippet_source, fixture_kb)
        assert resolution.cost == 3
        assert resolution.dependencies == ["jdk:java8:8"]
        assert resolution.imports == [
            "java.lang.String",
            "java.util.regex.Matcher",
            "java.util.regex.Pattern",
        ]
        assert resolution.unresolved == []
        assert resolution.builtins == []
        assert resolution.ambiguities == []
        assert len(resolution.bindings) == len(resolution.sketches) == 6

    def test_distractors_never_bound(self, fixture_kb, snippet_source):
        resolution = resolve(snippet_source, fixture_kb)
        bound_fqns = {binding.entry.provider_fqn for binding in resolution.bindings}
        assert "com.regexkit.Pattern" not in bound_fqns
        assert "com.sun.org.apache.xalan.in.xsltc.compiler.Pattern" not in bound_fqns

    def test_bindings_actually_match(self, fixture_kb, snippet_source):
        resolution = resolve(snippet_source, fixture_kb)
        for binding in resolution.bindings:
            assert matches(binding.sketch, binding.entry)
            assert binding.variable_key == variable_key(binding.entry)

    def test_imports_are_the_bound_providers(self, fixture_kb, snippet_source):
        resolution = resolve(snippet_source, fixture_kb)
        assert resolution.imports == sorted(
            {binding.entry.provider_fqn for binding in resolution.bindings}
        )
        assert resolution.dependencies == sorted(
            {binding.entry.dep.render() for binding in resolution.bindings}
        )

    def test_determinism(self, fixture_kb, snippet_source):
        first = resolve(snippet_source, fixture_kb)
        second = resolve(snippet_source, fixture_kb)
        assert first.variable_names == second.variable_names
        assert first.model == second.model
        assert [b.variable_key for b in first.bindings] == [
            b.variable_key for b in second.bindings
        ]


class TestEdges:
    def test_useless_kb_is_a_coverage_error(self):
        with pytest.raises(CoverageError) as err:
            resolve("Pattern p = null;", KnowledgeBase())
        assert "first unresolved: ?.Pattern" in str(err.value)

    def test_hole_free_miss_is_builtin(self):
        resolution = resolve('String s = "x";', KnowledgeBase())
        assert resolution.builtins == ["java.lang.String"]
        assert resolution.cost == 0
        assert resolution.bindings == []
        assert resolution.dependencies == []

    def test_strict_rejects_builtin_fallback(self):
        with pytest.raises(ResolutionError) as err:
            resolve('String s = "x";', KnowledgeBase(), strict=True)
        assert "no candidates for: java.lang.String" in str(err.value)

    def test_partial_miss_is_reported_not_fatal(self, fixture_kb):
        resolution = resolve(
            'Pattern p = Pattern.compile("x"); Unknown u = null;', fixture_kb
        )
        assert resolution.unresolved == ["?.Unknown"]
        assert resolution.dependencies == ["jdk:java8:8"]

    def test_lone_ambiguous_name_breaks_ties_by_key(self, fixture_kb):
        # with no member evidence, all three Patterns cost the same and the
        # smallest variable key wins
        resolution = resolve("Pattern p = null;", fixture_kb)
        assert resolution.dependencies == ["com.regexkit:regexkit:1.2"]
        assert resolution.cost == 1

    def test_strict_partial_miss_raises(self, fixture_kb):
        with pytest.raises(ResolutionError) as err:
            resolve("Pattern p = null; Unknown u = null;", fixture_kb, strict=True)
        assert "no candidates for: ?.Unknown" in str(err.value)

    def test_require_unit_rejects_bare_statements(self, fixture_kb):
        with pytest.raises(JavaSyntaxError):
            resolve("Pattern p = null;", fixture_kb, require_unit=True)


class TestChoiceRules:
    def test_ambiguity_recorded_and_resolved_lexicographically(self):
        kb = kb_from(
            ("T p.A", "g1:a1:1"),
            ("M p.A.m1()void", "g1:a1:1"),
            ("T q.A", "g2:a2:1"),
            ("M q.A.m2()void", "g2:a2:1"),
        )
        resolution = resolve("A a = new A(); a.m1(); a.m2();", kb)
        assert resolution.cost == 2
        assert sorted(resolution.dependencies) == ["g1:a1:1", "g2:a2:1"]
        assert resolution.ambiguities == [
            "?.A is satisfied by 2 choices: g1:a1:1:p.A, g2:a2:1:q.A"
        ]
        type_binding = next(
            b for b in resolution.bindings if b.sketch.render() == "?.A"
        )
        assert type_binding.variable_key == "g1:a1:1:p.A"
        assert type_binding.entry.render() == "p.A"

    def test_version_conflict_is_infeasible(self):
        kb = kb_from(("T p.OnlyOld", "g:a:1"), ("T q.OnlyNew", "g:a:2"))
        with pytest.raises(InfeasibleError):
            resolve("OnlyOld x = null; OnlyNew y = null;", kb)

    def test_no_version_mixing_when_one_suffices(self):
        kb = kb_from(("T p.Thing", "g:a:1"), ("T q.Thing", "g:a:2"))
        resolution = resolve("Thing t = null;", kb)
        assert resolution.dependencies == ["g:a:1"]
        assert resolution.cost == 1

    def test_fewer_distinct_dependencies_preferred(self):
        # one artifact supplies both names; two artifacts split them; the
        # cheaper cover uses two variables either way, the tie prefers one dep
        kb = kb_from(
            ("T aa.Left", "split:left:1"),
            ("T zz.Right", "split:right:1"),
            ("T mm.Left", "whole:both:1"),
            ("T mm.Right", "whole:both:1"),
        )
        resolution = resolve("Left l = null; Right r = null;", kb)
        assert resolution.dependencies == ["whole:both:1"]

    def test_declared_dependency_wins_ties_and_cost(self):
        kb = kb_from(("T q.Util", "aa:lib:1"), ("T p.Util", "bb:lib:1"))
        undeclared = resolve("Util u = null;", kb)
        assert undeclared.dependencies == ["aa:lib:1"]
        declared = resolve("Util u = null;", kb, declared_deps=[Coordinate.parse("bb:lib:1")])
        assert declared.dependencies == ["bb:lib:1"]
        assert declared.cost == 0 <= undeclared.cost

    def test_declared_never_costs_more(self, fixture_kb, snippet_source):
        plain = resolve(snippet_source, fixture_kb)
        helped = resolve(snippet_source, fixture_kb, declared_deps=[JDK8])
        hindered = resolve(snippet_source, fixture_kb, declared_deps=[DISTRACTOR])
        assert helped.cost == 0
        assert hindered.cost <= plain.cost
        assert hindered.dependencies == ["jdk:java8:8"]


@pytest.fixture
def scored_leaves(monkeypatch) -> list[frozenset[int]]:
    """The sets `resolve` scores, counted through the tie key it passes."""
    leaves: list[frozenset[int]] = []
    solve_min = resolver_module.solve_min

    def counting(problem, *, feasible=None, tie_key=None):
        def counted(chosen):
            leaves.append(chosen)
            return tie_key(chosen)

        return solve_min(problem, feasible=feasible, tie_key=counted)

    monkeypatch.setattr(resolver_module, "solve_min", counting)
    return leaves


def _two_artifacts(n: int) -> tuple[KnowledgeBase, str]:
    # Every name offered by both artifacts: 2^n covers of equal cost.
    kb = KnowledgeBase()
    for coord in ("org.left:left:1", "org.right:right:1"):
        package = coord.split(":")[0]
        for i in range(n):
            kb.add_entry(KbEntry.from_listing(f"T {package}.Name{i}", Coordinate.parse(coord)))
    return kb, "".join(f"Name{i} v{i} = null;\n" for i in range(n))


def _shared_names(k: int, seed: int) -> tuple[KnowledgeBase, str, str]:
    """k names each offered by 6, 8 or 10 of 60 versions; one planted
    version offers all k, and no other version does."""
    rng = random.Random(seed)
    coords = [f"org.shared{a:02d}:lib{a:02d}:{v}" for a in range(20) for v in ("1.0", "1.1", "2.0")]
    planted = coords[rng.randrange(len(coords))]
    others = [coord for coord in coords if coord != planted]
    names = [f"Item{i:02d}" for i in range(k)]
    offered = {coord: [] for coord in coords}
    for i, name in enumerate(names):
        for coord in [planted, *rng.sample(others, (6, 8, 10)[i % 3] - 1)]:
            offered[coord].append(name)
    assert [c for c, found in offered.items() if len(found) == k] == [planted]
    kb = KnowledgeBase()
    for coord, found in offered.items():
        package = coord.split(":")[0]
        for name in found:
            dep = Coordinate.parse(coord)
            kb.add_entry(KbEntry.from_listing(f"T {package}.{name}", dep))
            kb.add_entry(KbEntry.from_listing(f"M {package}.{name}.run(java.lang.String)void", dep))
    source = "".join(f'{name} v{i} = null;\nv{i}.run("x");\n' for i, name in enumerate(names))
    return kb, source, planted


class TestTiedCovers:
    @pytest.mark.parametrize("n", [16, 20])
    def test_two_artifacts_offering_every_name(self, n, scored_leaves):
        kb, source = _two_artifacts(n)
        resolution = resolve(source, kb)
        assert resolution.dependencies == ["org.left:left:1"]
        assert resolution.cost == n
        assert len(scored_leaves) <= 4

    def test_deep_snippet_needs_no_recursion(self, scored_leaves):
        kb, source = _two_artifacts(1500)
        resolution = resolve(source, kb)
        assert resolution.dependencies == ["org.left:left:1"]
        assert len(scored_leaves) <= 4

    def test_twelve_shared_names_find_the_planted_version(self, scored_leaves):
        # about 5e10 covers share the lowest cost; one uses one dependency
        kb, source, planted = _shared_names(12, seed=7)
        resolution = resolve(source, kb)
        assert resolution.dependencies == [planted]
        assert resolution.cost == 12
        assert len(scored_leaves) <= 10**4


class TestEmitPatch:
    def test_fixture_patch(self, fixture_kb, snippet_source):
        resolution = resolve(snippet_source, fixture_kb)
        patched = emit_patch(resolution, snippet_source)
        assert patched == (
            "import java.util.regex.Matcher;\n"
            "import java.util.regex.Pattern;\n" + snippet_source
        )

    def test_body_below_block_is_untouched(self, fixture_kb, snippet_source):
        patched = emit_patch(resolve(snippet_source, fixture_kb), snippet_source)
        assert patched.endswith(snippet_source)

    def test_existing_imports_kept_and_skipped(self, fixture_kb):
        source = (
            "import java.util.regex.Pattern;\n"
            "class A { void go(String s) { Pattern p = Pattern.compile(s); Matcher m = p.matcher(s); } }\n"
        )
        resolution = resolve(source, fixture_kb)
        patched = emit_patch(resolution, source)
        assert patched == (
            "import java.util.regex.Pattern;\n"
            "import java.util.regex.Matcher;\n"
            "class A { void go(String s) { Pattern p = Pattern.compile(s); Matcher m = p.matcher(s); } }\n"
        )

    def test_java_lang_needs_no_import(self):
        kb = kb_from(("T java.lang.String", "jdk:java8:8"))
        source = 'class A { String s = "x"; }'
        resolution = resolve(source, kb)
        assert resolution.imports == ["java.lang.String"]
        assert emit_patch(resolution, source) == source

    def test_unresolved_blocks_patch_unless_partial(self, fixture_kb):
        source = 'Pattern p = Pattern.compile("x"); Unknown u = null;'
        resolution = resolve(source, fixture_kb)
        with pytest.raises(ResolutionError) as err:
            emit_patch(resolution, source)
        assert "partial" in str(err.value)
        patched = emit_patch(resolution, source, partial=True)
        assert patched == "import java.util.regex.Pattern;\n" + source

    @pytest.mark.parametrize(
        "head, patched_head",
        [
            ("package com.example;\n", "package com.example;\n{matcher}{pattern}"),
            (
                "// header\n/* a comment */ package com\n    .example;\n\n",
                "// header\n/* a comment */ package com\n    .example;\n{matcher}{pattern}\n",
            ),
            (
                "package com.example;\n{pattern}",
                "package com.example;\n{pattern}{matcher}",
            ),
            ("/" * 80 + "\n", "{matcher}{pattern}" + "/" * 80 + "\n"),
            ("// x   \n" * 30, "{matcher}{pattern}" + "// x   \n" * 30),
            ("/" * 80 + "\npackage a;\n", "/" * 80 + "\npackage a;\n{matcher}{pattern}"),
            ("package a;\r", "package a;\r{matcher}{pattern}"),
            # str.splitlines breaks at these, a Java line terminator does not
            ("package a; /* x\u2028y */\n", "package a; /* x\u2028y */\n{matcher}{pattern}"),
            ("package a; /* x\u2029y */\n", "package a; /* x\u2029y */\n{matcher}{pattern}"),
            ("package a; /* x\x85y */\n", "package a; /* x\x85y */\n{matcher}{pattern}"),
        ],
        ids=[
            "package-line", "comments-and-two-lines", "package-and-import",
            "slash-banner", "comments-ending-in-blanks", "banner-and-package", "carriage-return",
            "line-separator-in-comment", "paragraph-separator-in-comment", "next-line-in-comment",
        ],
    )
    def test_imports_go_below_the_package(self, fixture_kb, head, patched_head):
        imports = {"matcher": "import java.util.regex.Matcher;\n", "pattern": "import java.util.regex.Pattern;\n"}
        body = "class A { void go(String s) { Pattern p = Pattern.compile(s); Matcher m = p.matcher(s); } }\n"
        source = head.format(**imports) + body
        assert emit_patch(resolve(source, fixture_kb), source) == patched_head.format(**imports) + body

    @pytest.mark.parametrize(
        "head",
        [
            "package a; ",
            "import a.B; ",
            "package a;\nimport a.B;  /* x */ ",
            "package a; import a.B;\t",
        ],
        ids=["package", "import", "package-and-import", "package-then-import"],
    )
    def test_one_line_unit_is_split_before_its_class(self, fixture_kb, head):
        body = "class A { void go(String s) { Pattern p = Pattern.compile(s); } }"
        source = head + body
        patched = emit_patch(resolve(source, fixture_kb), source)
        assert patched == head.rstrip(" \t") + "\nimport java.util.regex.Pattern;\n" + body
        imported = [decl.fqn for decl in wrap(patched, allow_wrap=False).unit.imports]
        assert imported[-1] == "java.util.regex.Pattern"

    def test_patch_of_wrapped_snippet_prepends(self, fixture_kb):
        source = "Matcher m = null;"
        patched = emit_patch(resolve(source, fixture_kb), source)
        assert patched == "import java.util.regex.Matcher;\n" + source


class TestLineEndings:
    # CR LF, CR and LF each end one line (JLS 3.4). The string continued by
    # a backslash and a line terminator is one token whatever the ending.
    SNIPPET = 'String s = "a"; // note\nPattern p = Pattern.compile(s);\nString t = "b\\\nc"; p.matcher(t);\n'
    UNIT = "package a;\nclass A { void go(String s) {\n  Pattern p = Pattern.compile(s);\n} }\n"

    @staticmethod
    def sketched(source: str) -> list[tuple[str, list[str]]]:
        _, analysis = sketch_source(source)
        return [(s.render(), [span.render() for span in s.occurrences]) for s in analysis.sketches]

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_sketches_and_spans_as_with_lf(self, newline):
        expected = self.sketched(self.SNIPPET)
        assert expected[1] == ("?.Pattern", ["2:1-2:8", "2:13-2:20", "2:9-2:10", "3:20-3:21"])
        assert self.sketched(self.SNIPPET.replace("\n", newline)) == expected

    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_patch_keeps_the_input_line_endings(self, fixture_kb, newline):
        source = self.UNIT.replace("\n", newline)
        head = f"package a;{newline}"
        patched = emit_patch(resolve(source, fixture_kb), source)
        assert patched == head + f"import java.util.regex.Pattern;{newline}" + source[len(head):]
