"""`wrap` parses each snippet once and reads it as the try-both rule did.

The reference below is the earlier classification, kept here as the oracle:
parse as a unit; failing that (and if wrapping is allowed) parse as
statements; when both fail, report the unit error only if the source starts
like a unit.  `wrap` now decides from the first token instead, and must give
the same origin and unit, or the same error, on every input.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import depsketch.frontend.parser as parser
from depsketch.frontend import (
    JavaSyntaxError,
    Origin,
    parse,
    parse_statements,
    parse_unit,
    sketch_source,
    tokenize,
    wrap,
)
from depsketch.frontend.lexer import MODIFIER_KEYWORDS
from depsketch.frontend.parser import Block, ClassDecl, CompilationUnit, MethodDecl, TypeName
from depsketch.model import Span

from conftest import FIXTURES

_ZERO = Span(1, 1, 1, 1)


def _holder(statements: list) -> CompilationUnit:
    body = Block(statements, _ZERO)
    run = MethodDecl(TypeName("void", _ZERO), "__run", _ZERO, [], body, _ZERO)
    return CompilationUnit([], [ClassDecl("__Snippet", None, [run], _ZERO)])


def _unit_like(source: str) -> bool:
    try:
        first = tokenize(source)[0]
    except JavaSyntaxError:
        return False
    return first.kind == "kw" and first.text in MODIFIER_KEYWORDS | {"package", "import", "class"}


def reference_wrap(source: str, allow_wrap: bool) -> tuple[Origin, CompilationUnit]:
    if not source.strip():
        raise JavaSyntaxError("empty source", 1, 1)
    try:
        return Origin.FREESTANDING, parse_unit(source)
    except JavaSyntaxError as unit_error:
        if not allow_wrap:
            raise
        try:
            statements = parse_statements(source)
        except JavaSyntaxError as statement_error:
            raise (unit_error if _unit_like(source) else statement_error) from None
        return Origin.WRAPPED, _holder(statements)


def outcome(read, source: str, allow_wrap: bool):
    try:
        origin, unit = read(source, allow_wrap)
    except JavaSyntaxError as err:
        return ("error", err.reason, err.line, err.col, err.expected, str(err))
    return ("ok", origin, unit)


def via_wrap(source: str, allow_wrap: bool) -> tuple[Origin, CompilationUnit]:
    snippet = wrap(source, allow_wrap=allow_wrap)
    return snippet.origin, parse(snippet)


_TOKENS = [
    "import", "class", "public", "static", "final", "private", "protected", "extends",
    "int", "void", "String", "Pattern", "p", "x", "s", "compile", "java.util.regex.Pattern",
    "=", ";", ",", ".", "(", ")", "{", "}", "+", "-", "*", "==", "<", "!", "&&", "->", "[", "@",
    "new", "return", "if", "else", "while", "for", "null", "true", "1", "2L", "3.5", '"s"', "'c'",
    "/* c */", "// c\n", "\n", "\t", "#", '"open',
]
_FIXTURE_WORDS = (FIXTURES / "snippet.java").read_text(encoding="utf-8").split(" ")

_soup = st.lists(st.sampled_from(_TOKENS), max_size=14).map(" ".join)


@st.composite
def _mutated_fixture(draw) -> str:
    words = list(_FIXTURE_WORDS)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(words) - 1))
        action = draw(st.sampled_from(["drop", "insert", "replace"]))
        if action == "drop":
            del words[at]
        elif action == "insert":
            words.insert(at, draw(st.sampled_from(_TOKENS)))
        else:
            words[at] = draw(st.sampled_from(_TOKENS))
    return " ".join(words)


@st.composite
def _statement_block(draw) -> str:
    statements = draw(
        st.lists(
            st.sampled_from([
                "Pattern p = Pattern.compile(\"x\");", "int x = 1 + 2 * 3;", "s.trim().length();",
                "if (x < 1) { x = 2; } else ;", "while (ok) run();", "for (int i = 0; i < n; i = i + 1) ;",
                "return p.matcher(s).find();", "{ String t = null; }", "a.b.C c = new a.b.C();",
            ]),
            max_size=5,
        )
    )
    return draw(st.sampled_from(["", "public ", "class A { void go() { "])) + " ".join(statements)


@settings(max_examples=400, deadline=None)
@given(source=st.one_of(_soup, _mutated_fixture(), _statement_block()), allow_wrap=st.booleans())
def test_wrap_matches_the_try_both_reference(source, allow_wrap):
    assert outcome(via_wrap, source, allow_wrap) == outcome(reference_wrap, source, allow_wrap)


@pytest.mark.parametrize("allow_wrap", [True, False])
@pytest.mark.parametrize(
    "source",
    [
        "class A { int x;",  # unit error, not the statement one
        "public int x = 1;",
        "import a.B; x = 1;",
        "x = ;",
        "int x = 1; class A {}",
        "// only a comment",
        "/* open",
        "int x = \"open;",
        "package a.b; x = 1;",
        "package a.b; class A {}",
    ],
)
def test_wrap_matches_the_reference_on_edge_cases(source, allow_wrap):
    assert outcome(via_wrap, source, allow_wrap) == outcome(reference_wrap, source, allow_wrap)


def test_snippet_equality_ignores_the_unit():
    first, second = wrap("int x = 1;"), wrap("int x = 1;")
    assert first.unit is not second.unit
    assert first == second and hash(first) == hash(second)
    assert "unit" not in repr(first)


@pytest.mark.parametrize(
    "source, parsed_by",
    [
        ((FIXTURES / "snippet.java").read_text(encoding="utf-8"), "parse_unit"),
        ("String s = null;\nPattern p = Pattern.compile(s);\np.matcher(s).find();", "parse_statements"),
    ],
    ids=["class", "statements"],
)
def test_sketch_source_tokenizes_and_parses_once(source, parsed_by, monkeypatch):
    # Replace the names the parser module looks up, as perfbench's tracer does.
    calls: list[str] = []

    def counted(name):
        original = getattr(parser, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(parser, name, wrapper)

    for name in ("tokenize", "parse_unit", "parse_statements"):
        counted(name)
    sketch_source(source)
    assert sorted(calls) == sorted(["tokenize", parsed_by])
