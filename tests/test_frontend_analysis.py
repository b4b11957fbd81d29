from __future__ import annotations

import pytest

from depsketch.frontend import AnalysisError, Origin, analyze, parse, sketch_source, wrap
from depsketch.model import EntryKind

FIXTURE_RENDERS = [
    "java.lang.String",
    "?.Pattern",
    "?.compile(java.lang.String)?",
    "?.Matcher",
    "?.matcher(java.lang.String)?",
    "?.find()?",
]


def renders(source: str) -> list[str]:
    _, analysis = sketch_source(source)
    return [sketch.render() for sketch in analysis.sketches]


def sketch_map(source: str):
    _, analysis = sketch_source(source)
    return {sketch.render(): sketch for sketch in analysis.sketches}


class TestFixtureWalkthrough:
    def test_sketches_in_first_occurrence_order(self, snippet_source):
        assert renders(snippet_source) == FIXTURE_RENDERS

    def test_string_occurrences(self, snippet_source):
        string = sketch_map(snippet_source)["java.lang.String"]
        assert [span.render() for span in string.occurrences] == [
            "2:19-2:25",  # parameter type of input
            "2:26-2:31",  # declaration of input
            "2:33-2:39",  # parameter type of regex
            "2:40-2:45",  # declaration of regex
            "3:37-3:42",  # regex passed to compile
            "4:31-4:36",  # input passed to matcher
        ]

    def test_pattern_occurrences_include_decl_and_receiver(self, snippet_source):
        pattern = sketch_map(snippet_source)["?.Pattern"]
        assert [span.render() for span in pattern.occurrences] == [
            "3:9-3:16",  # declared type of p
            "3:21-3:28",  # static receiver Pattern.compile
            "3:17-3:18",  # declaration of p
            "4:21-4:22",  # receiver p.matcher
        ]

    def test_method_sketch_shape(self, snippet_source):
        compile_sketch = sketch_map(snippet_source)["?.compile(java.lang.String)?"]
        assert compile_sketch.kind is EntryKind.METHOD
        assert compile_sketch.owner == "?"
        assert compile_sketch.params == ("java.lang.String",)
        assert compile_sketch.returns == "?"
        assert [s.render() for s in compile_sketch.occurrences] == ["3:29-3:36"]

    def test_every_holed_render_reports_holes(self, snippet_source):
        _, analysis = sketch_source(snippet_source)
        for sketch in analysis.sketches:
            assert sketch.has_holes == ("?" in sketch.render())

    def test_determinism(self, snippet_source):
        first = sketch_source(snippet_source)[1]
        second = sketch_source(snippet_source)[1]
        assert [s.render() for s in first.sketches] == [s.render() for s in second.sketches]
        assert [
            [o.render() for o in s.occurrences] for s in first.sketches
        ] == [[o.render() for o in s.occurrences] for s in second.sketches]


class TestLiteralsAndPrimitives:
    def test_primitives_emit_nothing(self):
        assert renders("class A { void go(int x) { boolean b = x < 2; } }") == []

    def test_literal_argument_types(self):
        assert renders('f(1, 2L, 3.5, true, \'c\', "s");') == [
            "?.f(int,long,double,boolean,char,java.lang.String)?"
        ]

    def test_null_argument_is_a_hole(self):
        assert renders("f(null);") == ["?.f(?)?"]

    def test_string_concatenation_stays_string(self):
        # s keeps java.lang.String through +, so the call owner is resolved
        assert renders('String s = "a" + 1; s.length();') == [
            "java.lang.String",
            "java.lang.String.length()?",
        ]

    def test_concat_receiver_resolves_owner(self):
        # binding through + : the receiver keeps java.lang.String
        rendered = renders('("a" + "b").length();')
        assert rendered == ["java.lang.String.length()?"]

    def test_comparison_yields_boolean(self):
        assert renders("boolean b = f() == g();") == ["?.f()?", "?.g()?"]


class TestNameResolution:
    def test_import_resolves_type_and_receiver(self):
        with_import = renders(
            "import java.util.regex.Pattern;\n"
            'class A { void go() { Pattern p = Pattern.compile("x"); } }'
        )
        assert with_import == [
            "java.util.regex.Pattern",
            "java.util.regex.Pattern.compile(java.lang.String)?",
        ]

    def test_same_body_without_import_uses_holes(self):
        without = renders('class A { void go() { Pattern p = Pattern.compile("x"); } }')
        assert without == [
            "?.Pattern",
            "?.compile(java.lang.String)?",
        ]

    def test_java_lang_defaults(self):
        assert renders("Integer x = null; Object o = new Object();") == [
            "java.lang.Integer",
            "java.lang.Object",
        ]

    def test_fully_qualified_declaration(self):
        assert renders("java.util.regex.Pattern p = null;") == ["java.util.regex.Pattern"]

    def test_conflicting_imports_rejected(self):
        with pytest.raises(AnalysisError) as err:
            sketch_source("import a.b.X;\nimport c.d.X;\nclass A {}")
        assert "conflicting imports" in err.value.reason

    def test_repeated_identical_import_allowed(self):
        source = "import a.b.X;\nimport a.b.X;\nclass A { X x; }"
        assert renders(source) == ["a.b.X"]

    def test_imports_exposed(self):
        _, analysis = sketch_source("import a.b.X;\nclass A { X x; }")
        assert analysis.imports == {"X": "a.b.X"}


class TestScoping:
    def test_undeclared_identifier_rejected(self):
        with pytest.raises(AnalysisError) as err:
            sketch_source("x = 1;")
        assert err.value.reason == "undeclared identifier 'x'"
        assert str(err.value) == "1:1: undeclared identifier 'x'"

    def test_declaration_not_visible_in_its_own_init(self):
        with pytest.raises(AnalysisError) as err:
            sketch_source("int x = x + 1;")
        assert "undeclared identifier 'x'" in err.value.reason

    def test_duplicate_variable_rejected(self):
        with pytest.raises(AnalysisError) as err:
            sketch_source("int x = 1; int x = 2;")
        assert err.value.reason == "duplicate variable 'x'"

    def test_shadowing_in_nested_block_allowed(self):
        assert renders("int x = 1; { String x = null; }") == ["java.lang.String"]

    def test_for_scope_is_isolated(self):
        assert renders("for (int i = 0; i < 3; i = i + 1) {} int i = 9;") == []

    def test_class_fields_visible_in_methods(self):
        source = (
            "class A { Pattern p; void go() { p.matcher(\"x\"); } }"
        )
        assert renders(source) == [
            "?.Pattern",
            "?.matcher(java.lang.String)?",
        ]

    def test_field_init_may_reference_later_field(self):
        assert renders("class A { int x = y; int y = 1; }") == []

    def test_duplicate_class_rejected(self):
        with pytest.raises(AnalysisError) as err:
            sketch_source("class A {} class A {}")
        assert "duplicate class 'A'" in err.value.reason


class TestDottedChains:
    def test_qualified_static_call(self):
        assert renders('java.util.regex.Pattern.compile("x");') == [
            "java.util.regex.Pattern",
            "java.util.regex.Pattern.compile(java.lang.String)?",
        ]

    def test_qualified_type_span_covers_all_segments(self):
        sketches = sketch_map('java.util.regex.Pattern.compile("x");')
        occurrence = sketches["java.util.regex.Pattern"].occurrences[0]
        assert occurrence.render() == "1:1-1:24"

    def test_static_field_on_simple_name(self):
        assert renders("int f = Pattern.CASE_INSENSITIVE;") == [
            "?.Pattern",
            "?.CASE_INSENSITIVE:?",
        ]

    def test_all_lowercase_chain_is_one_type(self):
        assert renders("a.b.c;") == ["a.b.c"]

    def test_capitalized_segment_splits_type_from_members(self):
        # the first access keeps the resolved owner; later hops are holes
        assert renders("a.b.C.d.e;") == ["a.b.C", "a.b.C.d:?", "?.e:?"]

    def test_variable_base_makes_field_accesses(self):
        assert renders("Pattern p = null; p.flags.x;") == [
            "?.Pattern",
            "?.flags:?",
            "?.x:?",
        ]

    def test_call_result_receiver(self):
        assert renders('String.valueOf(1).length();') == [
            "java.lang.String",
            "java.lang.String.valueOf(int)?",
            "?.length()?",
        ]

    def test_undeclared_bare_receiver_is_a_type(self):
        # A bare receiver that is not a variable is read as a type name even
        # without the capitalization hint.
        assert renders("foo.bar();") == ["?.foo", "?.bar()?"]

    def test_long_mixed_chain_keeps_order_and_spans(self):
        # 600 links of calls and field accesses, each link one occurrence
        source = "String s = null; s" + ".t(s.u).f" * 300 + ";"
        sketches = sketch_map(source)
        assert list(sketches) == [
            "java.lang.String",
            "java.lang.String.u:?",
            "java.lang.String.t(?)?",
            "?.f:?",
            "?.t(?)?",
        ]
        cols = {render: [span.col for span in sketch.occurrences] for render, sketch in sketches.items()}
        assert cols["java.lang.String.u:?"] == [24 + 9 * i for i in range(300)]
        assert cols["java.lang.String.t(?)?"] == [20]
        assert cols["?.t(?)?"] == [29 + 9 * i for i in range(299)]
        assert cols["?.f:?"] == [27 + 9 * i for i in range(300)]

    def test_long_sum_of_calls_keeps_order(self):
        source = "String s = null; int n = " + " + ".join(f"s.m{i}()" for i in range(2000)) + ";"
        assert renders(source) == ["java.lang.String"] + [f"java.lang.String.m{i}()?" for i in range(2000)]


class TestLocalTypes:
    def test_local_classes_emit_no_sketches(self):
        source = (
            "class Helper { void ping() {} }\n"
            "class Main { void run() { Helper h = new Helper(); h.ping(); } }"
        )
        assert renders(source) == []

    def test_forward_reference_to_local_class(self):
        source = (
            "class Main { void run(Helper h) { h.ping(); } }\n"
            "class Helper { void ping() {} }"
        )
        assert renders(source) == []

    def test_local_types_listed(self):
        _, analysis = sketch_source("class A {} class B extends A {}")
        assert analysis.local_types == ["A", "B"]

    def test_extends_of_foreign_type_is_a_sketch(self):
        assert renders("class A extends Base {}") == ["?.Base"]


class TestConstructorsAndMerging:
    def test_new_emits_only_the_type(self):
        sketches = sketch_map("Object o = new Object();")
        assert list(sketches) == ["java.lang.Object"]
        assert [s.render() for s in sketches["java.lang.Object"].occurrences] == [
            "1:1-1:7",  # declared type
            "1:16-1:22",  # new Object
            "1:8-1:9",  # declaration of o
        ]

    def test_constructor_arguments_are_analyzed(self):
        # literal arguments type-check silently; nested calls still sketch
        assert renders('new Thing("x", other());') == [
            "?.Thing",
            "?.other()?",
        ]

    def test_same_call_merges_occurrences(self):
        sketches = sketch_map("f(1); f(1); f(2);")
        assert list(sketches) == ["?.f(int)?"]
        assert len(sketches["?.f(int)?"].occurrences) == 3

    def test_named_holes_are_interned_per_name(self):
        sketches = sketch_map("Pattern a = null; Pattern b = null;")
        assert list(sketches) == ["?.Pattern"]
        assert len(sketches["?.Pattern"].occurrences) == 4


class TestWrappedCoordinates:
    def test_wrapped_statements_keep_original_positions(self):
        snippet, analysis = sketch_source('Pattern p = Pattern.compile("a");')
        assert snippet.origin is Origin.WRAPPED
        pattern = {s.render(): s for s in analysis.sketches}["?.Pattern"]
        assert pattern.occurrences[0].render() == "1:1-1:8"

    def test_synthetic_wrapper_contributes_nothing(self):
        _, analysis = sketch_source("int x = 1;")
        assert analysis.sketches == []
        assert analysis.local_types == ["__Snippet"]

    def test_analyze_accepts_parsed_unit(self, snippet_source):
        unit = parse(wrap(snippet_source))
        assert [s.render() for s in analyze(unit).sketches] == FIXTURE_RENDERS
