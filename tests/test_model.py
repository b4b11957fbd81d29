from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depsketch.model import (
    Coordinate,
    EntryKind,
    KbEntry,
    Sketch,
    Span,
    is_fqn,
    matches,
)

DEP = Coordinate.parse("jdk:java8:8")


class TestCoordinate:
    def test_parse_render_round_trip(self):
        text = "com.regexkit:regexkit:1.2"
        assert Coordinate.parse(text).render() == text

    @pytest.mark.parametrize(
        "bad",
        ["", "a:b", "a:b:c:d", ":b:1", "a::1", "a:b:", "a b:c:1", "a:b:1 2", "g:a:1.0\n"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Coordinate.parse(bad)

    @pytest.mark.parametrize(
        ("text", "label"),
        [("org.x:lib:1.0->2", "version"), ("org->x:lib:1", "group"), ("org.x:l->b:1", "artifact")],
    )
    def test_rejects_the_ground_truth_separator(self, text, label):
        # a ground-truth line holds one '->', so no such coordinate could be saved
        group, artifact, version = text.split(":")
        for make in (lambda: Coordinate.parse(text), lambda: Coordinate(group, artifact, version)):
            with pytest.raises(ValueError, match=f"^bad coordinate {label}: "):
                make()

    def test_orderable(self):
        a = Coordinate.parse("a:x:1")
        b = Coordinate.parse("b:x:1")
        assert a < b
        assert sorted([b, a]) == [a, b]


class TestIsFqn:
    @pytest.mark.parametrize("good", ["a.b", "java.util.regex.Pattern", "p.X9"])
    def test_accepts(self, good):
        assert is_fqn(good)

    @pytest.mark.parametrize("bad", ["Pattern", "", "a.", ".a", "a..b", "a.1b", "a.b\n"])
    def test_rejects(self, bad):
        assert not is_fqn(bad)


class TestKbEntry:
    def test_type_listing_round_trip(self):
        entry = KbEntry.from_listing("T java.util.regex.Pattern <: java.lang.Object", DEP)
        assert entry.kind is EntryKind.TYPE
        assert entry.render() == "java.util.regex.Pattern"
        assert entry.supertype == "java.lang.Object"
        assert KbEntry.from_listing(entry.listing_line(), DEP) == entry

    def test_method_listing_round_trip(self):
        line = "M java.util.regex.Pattern.compile(java.lang.String)java.util.regex.Pattern"
        entry = KbEntry.from_listing(line, DEP)
        assert entry.kind is EntryKind.METHOD
        assert entry.owner == "java.util.regex.Pattern"
        assert entry.name == "compile"
        assert entry.params == ("java.lang.String",)
        assert entry.returns == "java.util.regex.Pattern"
        assert entry.listing_line() == line

    def test_field_listing_round_trip(self):
        line = "F java.util.regex.Pattern.CASE_INSENSITIVE:int"
        entry = KbEntry.from_listing(line, DEP)
        assert entry.kind is EntryKind.FIELD
        assert entry.field_type == "int"
        assert entry.listing_line() == line

    def test_zero_arg_method(self):
        entry = KbEntry.from_listing("M java.util.regex.Matcher.find()boolean", DEP)
        assert entry.params == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "X what",
            "T Pattern",  # needs a package
            "M a.b.c(java.lang.String",  # unbalanced parens
            "M a.b.c)java.lang.String(",  # reversed parens
            "M a.b.c(x)y extra",
            "F a.b.c",  # no field type
            "F a.b.c:String",  # a non-primitive type must be package-qualified
            "M a.b.c(x)void",
            "T a.b.C <: Object",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            KbEntry.from_listing(bad, DEP)

    def test_provider_is_type_itself(self):
        entry = KbEntry.from_listing("T java.util.regex.Pattern", DEP)
        assert entry.provider_fqn == "java.util.regex.Pattern"

    def test_provider_is_owner_for_members(self):
        method = KbEntry.from_listing("M java.util.regex.Matcher.find()boolean", DEP)
        field = KbEntry.from_listing("F java.util.regex.Pattern.CASE_INSENSITIVE:int", DEP)
        assert method.provider_fqn == "java.util.regex.Matcher"
        assert field.provider_fqn == "java.util.regex.Pattern"

    def test_entry_needs_dep(self):
        with pytest.raises(ValueError):
            KbEntry(EntryKind.TYPE, "java.lang", "String", dep=None)


class TestSpan:
    def test_render(self):
        assert Span(3, 9, 3, 16).render() == "3:9-3:16"

    def test_repr_equality_and_hash_follow_the_fields(self):
        span = Span(3, 9, 3, 16)
        assert repr(span) == "Span(line=3, col=9, end_line=3, end_col=16)"
        assert span == Span(3, 9, 3, 16)
        assert span != Span(3, 9, 3, 17)
        assert span != (3, 9, 3, 16)
        assert hash(span) == hash((3, 9, 3, 16))
        assert len({span, Span(3, 9, 3, 16)}) == 1


class TestSketch:
    def test_type_render(self):
        assert Sketch(EntryKind.TYPE, "?", "Pattern").render() == "?.Pattern"
        assert Sketch(EntryKind.TYPE, "java.lang", "String").render() == "java.lang.String"

    def test_method_render(self):
        sketch = Sketch(EntryKind.METHOD, "?", "compile", ("java.lang.String",), "?")
        assert sketch.render() == "?.compile(java.lang.String)?"

    def test_field_render(self):
        sketch = Sketch(EntryKind.FIELD, "?", "CASE_INSENSITIVE", field_type="?")
        assert sketch.render() == "?.CASE_INSENSITIVE:?"

    def test_has_holes(self):
        assert Sketch(EntryKind.TYPE, "?", "Pattern").has_holes
        assert not Sketch(EntryKind.TYPE, "java.lang", "String").has_holes
        assert Sketch(EntryKind.METHOD, "a.B", "m", ("?",), "x.Y").has_holes
        assert Sketch(EntryKind.METHOD, "a.B", "m", ("x.Y",), "?").has_holes
        assert not Sketch(EntryKind.METHOD, "a.B", "m", (), "x.Y").has_holes


PATTERN_TYPE = KbEntry.from_listing("T java.util.regex.Pattern", DEP)
COMPILE = KbEntry.from_listing(
    "M java.util.regex.Pattern.compile(java.lang.String)java.util.regex.Pattern", DEP
)


class TestMatches:
    def test_holed_type_matches_any_package(self):
        assert matches(Sketch(EntryKind.TYPE, "?", "Pattern"), PATTERN_TYPE)

    def test_resolved_type_needs_exact_package(self):
        assert matches(Sketch(EntryKind.TYPE, "java.util.regex", "Pattern"), PATTERN_TYPE)
        assert not matches(Sketch(EntryKind.TYPE, "com.regexkit", "Pattern"), PATTERN_TYPE)

    def test_simple_name_always_exact(self):
        assert not matches(Sketch(EntryKind.TYPE, "?", "Matcher"), PATTERN_TYPE)

    def test_method_sketch_matches(self):
        sketch = Sketch(EntryKind.METHOD, "?", "compile", ("java.lang.String",), "?")
        assert matches(sketch, COMPILE)

    def test_method_arity_must_agree(self):
        sketch = Sketch(EntryKind.METHOD, "?", "compile", ("?", "?"), "?")
        assert not matches(sketch, COMPILE)

    def test_method_param_exact_when_not_hole(self):
        sketch = Sketch(EntryKind.METHOD, "?", "compile", ("java.lang.Object",), "?")
        assert not matches(sketch, COMPILE)

    def test_kind_must_agree(self):
        assert not matches(Sketch(EntryKind.TYPE, "?", "compile"), COMPILE)

    def test_field_type_position(self):
        entry = KbEntry.from_listing("F java.util.regex.Pattern.CASE_INSENSITIVE:int", DEP)
        assert matches(Sketch(EntryKind.FIELD, "?", "CASE_INSENSITIVE", field_type="?"), entry)
        assert not matches(
            Sketch(EntryKind.FIELD, "?", "CASE_INSENSITIVE", field_type="long"), entry
        )


_names = st.text(alphabet="abcXY", min_size=1, max_size=4).filter(lambda s: s[0].isalpha())
_fqns = st.lists(_names, min_size=2, max_size=3).map(".".join)


@st.composite
def _entries(draw):
    kind = draw(st.sampled_from(list(EntryKind)))
    owner = draw(_fqns)
    name = draw(_names)
    if kind is EntryKind.TYPE:
        return KbEntry(kind, owner, name, dep=DEP)
    if kind is EntryKind.METHOD:
        params = tuple(draw(st.lists(_fqns, max_size=3)))
        return KbEntry(kind, owner, name, params=params, returns=draw(_fqns), dep=DEP)
    return KbEntry(kind, owner, name, field_type=draw(_fqns), dep=DEP)


@given(entry=_entries(), holes=st.lists(st.booleans(), min_size=6, max_size=6))
def test_punching_holes_preserves_match(entry, holes):
    # Any sketch derived from an entry by replacing positions with ? matches it.
    owner = "?" if holes[0] else entry.owner
    if entry.kind is EntryKind.TYPE:
        sketch = Sketch(EntryKind.TYPE, owner, entry.name)
    elif entry.kind is EntryKind.METHOD:
        params = tuple(
            "?" if holes[2 + (i % 3)] else p for i, p in enumerate(entry.params)
        )
        returns = "?" if holes[1] else entry.returns
        sketch = Sketch(EntryKind.METHOD, owner, entry.name, params, returns)
    else:
        sketch = Sketch(
            EntryKind.FIELD, owner, entry.name, field_type="?" if holes[1] else entry.field_type
        )
    assert matches(sketch, entry)


@given(entry=_entries())
def test_renamed_sketch_never_matches(entry):
    sketch = Sketch(entry.kind, "?", entry.name + "x", ("?",) * len(entry.params), "?")
    if entry.kind is EntryKind.FIELD:
        sketch = Sketch(entry.kind, "?", entry.name + "x", field_type="?")
    if entry.kind is EntryKind.TYPE:
        sketch = Sketch(entry.kind, "?", entry.name + "x")
    assert not matches(sketch, entry)


# listing-line parts, valid and not: identifiers, types, dotted chains
_WORDS = st.sampled_from(
    ["a", "B1", "_x", "$", "int", "void", "x.Y", "p.q.R", "int.x", "1a", "a..b", "a b", ""]
)
_BLANKS = st.sampled_from(["", " ", "  ", "\t"])


@st.composite
def _listing_lines(draw):
    # tag, owner.name, then the tail of any kind, so tags and tails mismatch too
    tail = draw(
        st.one_of(
            st.just(""),
            st.tuples(_BLANKS, st.just("<:"), _BLANKS, _WORDS).map("".join),
            st.tuples(st.lists(_WORDS, max_size=3), _WORDS).map(
                lambda t: f"({','.join(t[0])}){t[1]}"
            ),
            _WORDS.map(lambda w: ":" + w),
        )
    )
    tag = draw(st.sampled_from(["T", "M", "F", "X", ""]))
    head = f"{draw(_WORDS)}.{draw(_WORDS)}"
    return f"{draw(_BLANKS)}{tag}{draw(_BLANKS)}{head}{tail}{draw(_BLANKS)}"


@settings(max_examples=500)
@given(line=_listing_lines())
def test_listing_grammar_agrees_with_stepwise_parse(line):
    # from_listing's one-pattern parse accepts exactly the lines the stepwise
    # parse (which builds through __post_init__) accepts, with equal fields.
    try:
        expected = KbEntry._parse_listing_stepwise(line, DEP)
    except ValueError:
        expected = None
    try:
        got = KbEntry.from_listing(line, DEP)
    except ValueError:
        got = None
    assert got == expected
