from __future__ import annotations

import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depsketch.frontend import (
    JavaSyntaxError,
    Origin,
    parse,
    parse_statements,
    parse_unit,
    tokenize,
    wrap,
)
from depsketch.frontend.parser import (
    AssignStmt,
    Binary,
    Block,
    EmptyStmt,
    ExprStmt,
    FieldAccess,
    ForStmt,
    Identifier,
    IfStmt,
    Literal,
    MethodCall,
    NewExpr,
    ReturnStmt,
    TypeName,
    Unary,
    VarDecl,
    WhileStmt,
)
from depsketch.frontend.lexer import KEYWORDS
from depsketch.model import LINE_END, Span


def kinds_and_texts(source: str) -> list[tuple[str, str]]:
    return [(t.kind, t.text) for t in tokenize(source)]


class TestTokenize:
    def test_basic_stream(self):
        assert kinds_and_texts("int x = 1;") == [
            ("kw", "int"),
            ("ident", "x"),
            ("punct", "="),
            ("int", "1"),
            ("punct", ";"),
            ("eof", ""),
        ]

    def test_comments_are_skipped(self):
        source = "// line comment\nx /* inline */ = 1; /* multi\nline */ y"
        texts = [t.text for t in tokenize(source) if t.kind != "eof"]
        assert texts == ["x", "=", "1", ";", "y"]

    def test_positions_are_one_based(self):
        second_line = tokenize("a\n  bc")[1]
        assert (second_line.line, second_line.col) == (2, 3)
        assert second_line.span.render() == "2:3-2:5"

    def test_string_escapes(self):
        tokens = tokenize(r'"a\"b\\" rest')
        assert tokens[0].kind == "string"
        assert tokens[0].text == r'"a\"b\\"'
        assert tokens[1].text == "rest"

    def test_numeric_kinds(self):
        assert [t.kind for t in tokenize("1 2L 3.5 4d")][:-1] == [
            "int",
            "long",
            "double",
            "double",
        ]

    @pytest.mark.parametrize(
        "source, message",
        [
            ('"open', "unterminated string literal"),
            ("'x", "unterminated char literal"),
            ("/* open", "unterminated block comment"),
            ("1.5f", "float literals are not supported"),
            ("3.5L", "bad numeric literal suffix"),
            ("a ~ b", "unexpected character '~'"),
        ],
    )
    def test_lexical_errors(self, source, message):
        with pytest.raises(JavaSyntaxError) as err:
            tokenize(source)
        assert err.value.reason == message

    @pytest.mark.parametrize(
        "source, expected",
        [
            # a backslash-newline continues the string on its start line, so
            # the next line only starts at the next newline outside it
            (
                's = "a\\\nb" + x;\ny',
                [("ident", "s", 1, 1), ("punct", "=", 1, 3), ("string", '"a\\\nb"', 1, 5),
                 ("punct", "+", 1, 12), ("ident", "x", 1, 14), ("punct", ";", 1, 15),
                 ("ident", "y", 2, 1), ("eof", "", 2, 2)],
            ),
            ("1.L", [("int", "1", 1, 1), ("punct", ".", 1, 2), ("ident", "L", 1, 3), ("eof", "", 1, 4)]),
            ("1.5d", [("double", "1.5d", 1, 1), ("eof", "", 1, 5)]),
            ("2Lx", [("long", "2L", 1, 1), ("ident", "x", 1, 3), ("eof", "", 1, 4)]),
            ("a$b", [("ident", "a$b", 1, 1), ("eof", "", 1, 4)]),
            ("a\r\n  b", [("ident", "a", 1, 1), ("ident", "b", 2, 3), ("eof", "", 2, 4)]),
            ("/*\n*/ z", [("ident", "z", 2, 4), ("eof", "", 2, 5)]),
            ("café = ß1", [("ident", "café", 1, 1), ("punct", "=", 1, 6), ("ident", "ß1", 1, 8),
                           ("eof", "", 1, 10)]),
            # a numeric character that is not a decimal digit is a word character
            ("² ٣", [("ident", "²", 1, 1), ("int", "٣", 1, 3), ("eof", "", 1, 4)]),
            # errors sit at the start of the literal or comment
            ("x /*/ y", ("unterminated block comment", 1, 3)),
            ('x = "a\\', ("unterminated string literal", 1, 5)),
            ('x = "a\nb";', ("unterminated string literal", 1, 5)),
            ("x = 12.5f;", ("float literals are not supported", 1, 5)),
            ("y = 3.5L;", ("bad numeric literal suffix", 1, 5)),
            ("a\tb\fc", ("unexpected character '\\x0c'", 1, 4)),
        ],
    )
    def test_tokens_and_positions(self, source, expected):
        try:
            got = [tuple(token) for token in tokenize(source)]
        except JavaSyntaxError as err:
            got = (err.reason, err.line, err.col)
        assert got == expected

    def test_error_position(self):
        with pytest.raises(JavaSyntaxError) as err:
            tokenize('x = \n  "open')
        assert (err.value.line, err.value.col) == (2, 3)

    @pytest.mark.parametrize("newline", ["\r", "\r\n", "\n"], ids=["cr", "crlf", "lf"])
    def test_line_comment_ends_at_any_line_terminator(self, newline):
        texts = [t.text for t in tokenize(f"a // note{newline}b = 1;") if t.kind != "eof"]
        assert texts == ["a", "b", "=", "1", ";"]


# The lexer as a per-position loop of one `match` per token or run of blanks
# and comments: the reference that `tokenize` must agree with on every input.
_REFERENCE_TOKEN = re.compile(r"""
    (?P<word>(?:[^\W\d]|\$)[\w$]*)
  | (?P<skip>(?:[ \t\r\n]+|//[^\r\n]*|/\*[\s\S]*?\*/)+)
  | (?P<float>\d+(?:\.\d+)?[fF])
  | (?P<bad_suffix>\d+\.\d+[lL])
  | (?P<long>\d+[lL])
  | (?P<double>\d+(?:\.\d+)?[dD]|\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>"(?:[^"\\\n]|\\[\s\S])*")
  | (?P<char>'(?:[^'\\\n]|\\[\s\S])*')
  | (?P<open_string>")
  | (?P<open_char>')
  | (?P<open_comment>/\*)
  | (?P<punct>==|!=|<=|>=|&&|\|\||->|[{}();,.=<>!+\-*/%\[\]@:])
""", re.VERBOSE).match

_REFERENCE_ERRORS = {
    "float": "float literals are not supported",
    "bad_suffix": "bad numeric literal suffix",
    "open_string": "unterminated string literal",
    "open_char": "unterminated char literal",
    "open_comment": "unterminated block comment",
}


def reference_tokenize(source: str) -> list[tuple]:
    source = LINE_END.sub("\n", source)
    tokens = []
    line, line_start, pos, end = 1, 0, 0, len(source)
    while pos < end:
        match = _REFERENCE_TOKEN(source, pos)
        col = pos - line_start + 1
        if match is None:
            raise JavaSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind, text, pos = match.lastgroup, match.group(), match.end()
        if kind == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rindex("\n", 0, pos) + 1
        elif kind == "word":
            tokens.append(("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind in _REFERENCE_ERRORS:
            raise JavaSyntaxError(_REFERENCE_ERRORS[kind], line, col)
        else:
            tokens.append((kind, text, line, col))
    tokens.append(("eof", "", line, end - line_start + 1))
    return tokens


def lexed(lex, source: str):
    """Token tuples, or the error's class, message, position and expectations."""
    try:
        return [tuple(token) for token in lex(source)]
    except JavaSyntaxError as err:
        return (type(err), str(err), err.line, err.col, err.expected)


_SOUP_PIECES = [
    # words, keywords and Unicode word characters and digits
    "x", "value", "a$b", "$", "_", "int", "class", "new", "null", "café", "ß", "中", "²", "Ⅻ",
    # numbers, good and bad
    "0", "12", "٣", "1.5", "2L", "4d", "3.5D", "1.5f", "7F", "3.5L", "1.", ".5",
    # literals, closed, escaped and unterminated
    '"s"', '"a\\"b"', '"\\\\"', '"a\\\nb"', '"', "'c'", "'\\''", "'",
    # comments, closed and unterminated
    "//", "// note", "/**/", "/* c */", "/* a\nb */", "/* a\r\nb */", "/*/", "/*", "*/",
    # punctuation
    "=", "==", "!=", "<=", ">=", "&&", "||", "->", "{", "}", "(", ")", ";", ",", ".", "<",
    ">", "!", "+", "-", "*", "/", "%", "[", "]", "@", ":", "&", "|",
    # blanks and line terminators
    " ", "  ", "\t", "\n", "\r", "\r\n", "\n\r",
    # rejected characters
    "~", "#", "\\", "`", "?", "\f", "\v", "\x00", "\u2028", "\x85",
]
TOKEN_SOUPS = st.lists(
    st.sampled_from(_SOUP_PIECES) | st.characters(codec="utf-8"), max_size=40
).map("".join)


class TestTokenizeDifferential:
    @settings(max_examples=500, deadline=None)
    @given(TOKEN_SOUPS)
    def test_token_soups_lex_as_the_reference_loop(self, source):
        assert lexed(tokenize, source) == lexed(reference_tokenize, source)

    @pytest.mark.parametrize(
        "source",
        ["", " ", "\r", "a", "a\r", "a\r\nb", "/*", "/*\n", "x /*/", "// c", "// c\r\nx", "\n\n x",
         '"a\\', "'", "1.5f", "~", "x\n~", "a /* b */ c // d\r e", "\x85x", "x\u2028y"],
    )
    def test_edge_inputs_lex_as_the_reference_loop(self, source):
        assert lexed(tokenize, source) == lexed(reference_tokenize, source)


class TestTokenizeAtScale:
    # Soups hold at most 40 pieces, so a position computed wrongly only
    # after many lines would not show there.  This source is thousands of
    # tokens over thousands of lines, with every kind of line end, in
    # blanks, comments and continued literals alike.
    TOKENS = ["x", "value", "a$b", "café", "int", "class", "null", "0", "12", "2L", "4d", "3.5",
              '"s"', '"a\\"b"', "'c'", "'\\''", '"a\\\nb"', '"a\\\r\nb\\\rc"', "'\\\n'",
              "==", "->", "{", "}", "(", ")", ";", ".", "<", "+", "/", "@"]
    # Each separator starts with a blank, so it never joins the token before it.
    SEPARATORS = [" ", "  ", "\t", "\n", "\r", "\r\n", " \r\n\t", " /* a\r\nb\n\rc */ ",
                  " /**/", " // note\r", " // note\r\n", " /* x */\n"]

    @staticmethod
    def mixed_source(seed: int, pieces: int) -> str:
        rng = random.Random(seed)
        parts = []
        for _ in range(pieces):
            parts.append(rng.choice(TestTokenizeAtScale.TOKENS))
            parts.append(rng.choice(TestTokenizeAtScale.SEPARATORS))
        return "".join(parts)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_long_source_lexes_as_the_reference_loop(self, seed):
        source = self.mixed_source(seed, 6000)
        expected = reference_tokenize(source)
        tokens = tokenize(source)
        assert len(tokens) == len(expected) == 6001
        assert expected[-1][2] > 3000  # the eof token's line
        rng = random.Random(seed)
        for index in rng.sample(range(len(expected)), 300) + [-1, -2, -len(expected)]:
            assert tuple(tokens[index]) == expected[index]
        assert [tuple(token) for token in tokens] == expected

    @pytest.mark.parametrize("seed", [1, 2])
    def test_a_bad_character_after_a_long_source(self, seed):
        source = self.mixed_source(seed, 6000) + "~"
        error = lexed(tokenize, source)
        assert error == lexed(reference_tokenize, source)
        assert error[2] > 3000


class TestTokenizeTime:
    # Blanks and comments are one repeated group of repeated parts; a
    # megabyte of them, or an unterminated comment that long, must lex in
    # one pass, far inside this bound, not hang.
    BOUND_S = 2.0
    BLANKS = " /* c * / */\n// line\r\n\t\r"

    def timed(self, source: str):
        start = time.perf_counter()
        result = lexed(tokenize, source)
        assert time.perf_counter() - start < self.BOUND_S
        return result

    def test_a_megabyte_of_blanks_and_comments(self):
        source = self.BLANKS * (1_000_000 // len(self.BLANKS))
        lines = source.count("\n") + source.count("\r") - source.count("\r\n") + 1
        assert self.timed(source) == [("eof", "", lines, 1)]

    def test_a_megabyte_long_unterminated_comment(self):
        source = "x /*" + "a * / b\n" * 125_000
        error = (JavaSyntaxError, "1:3: unterminated block comment", 1, 3, frozenset())
        assert self.timed(source) == error

    def test_a_long_line_without_a_newline(self):
        source = "x = y;" * 50_000
        tokens = self.timed(source)
        assert len(tokens) == 200_001
        assert tokens[-2:] == [("punct", ";", 1, len(source)), ("eof", "", 1, len(source) + 1)]

    @pytest.mark.parametrize(
        "piece, message",
        [('"\\', "unterminated string literal"), ("'\\", "unterminated char literal"),
         ("/* ", "unterminated block comment")],
        ids=["string", "char", "comment"],
    )
    def test_many_unterminated_openers(self, piece, message):
        # Each opener's form scans to the end of the source and fails; lexing
        # stops at the first, so the source is scanned once, not once per opener.
        source = piece * 300_000
        assert self.timed(source) == (JavaSyntaxError, f"1:1: {message}", 1, 1, frozenset())


class TestParseUnit:
    def test_fixture_structure(self, snippet_source):
        unit = parse_unit(snippet_source)
        assert unit.imports == []
        (cls,) = unit.classes
        assert cls.name == "Example"
        assert cls.extends is None
        (method,) = cls.methods
        assert method.name == "check"
        assert [p.name for p in method.params] == ["input", "regex"]
        assert [p.var_type.text for p in method.params] == ["String", "String"]
        assert len(method.body.statements) == 3

    def test_imports_and_fields(self):
        unit = parse_unit(
            "import java.util.regex.Pattern;\n"
            "class A extends B { Pattern p; int n = 3; void go() {} }"
        )
        assert [i.fqn for i in unit.imports] == ["java.util.regex.Pattern"]
        (cls,) = unit.classes
        assert cls.extends.text == "B"
        assert [f.name for f in cls.fields] == ["p", "n"]
        assert cls.fields[0].init is None
        assert isinstance(cls.fields[1].init, Literal)

    def test_package_is_checked_and_only_its_span_kept(self):
        unit = parse_unit("package com.example.app;\nimport java.util.regex.Pattern;\nclass A {}")
        assert [i.fqn for i in unit.imports] == ["java.util.regex.Pattern"]
        assert [c.name for c in unit.classes] == ["A"]
        assert unit.package.render() == "1:1-1:25"
        assert parse_unit("/* x */ package a\n  .b ;\nclass A {}").package.render() == "1:9-2:7"
        assert parse_unit("class A {}").package is None

    def test_two_classes(self):
        unit = parse_unit("class A {} class B {}")
        assert [c.name for c in unit.classes] == ["A", "B"]

    def test_modifiers_skipped(self):
        unit = parse_unit("public final class A { private static int go(int x) { return x; } }")
        assert unit.classes[0].methods[0].name == "go"

    @pytest.mark.parametrize(
        "source, message",
        [
            ("import java.util.*;", "wildcard imports are not supported"),
            ("import Pattern;", "import needs a package-qualified name, got 'Pattern'"),
            ("class A { List<String> x; }", "generic types are not supported"),
            ("class A { int[] x; }", "array types are not supported"),
            ("class A { @Override void go() {} }", "expected a type name"),
            ("class A { void go() { f(x -> x); } }", "lambdas are not supported"),
            ("class A { void go() { new int(); } }", "cannot instantiate a primitive type"),
            ("class A { void go() { 1 = 2; } }", "invalid assignment target"),
            ("class A { void go() {", "unexpected end of block"),
            ("class A { int x;", "unexpected end of class body"),
            ("package a.*; class A {}", "expected a package name"),
            ("package a.b class A {}", "expected ';'"),
            ("import a.B; package a; class A {}", "expected 'class'"),
            ("class A { int package; }", "expected a member name"),
        ],
    )
    def test_targeted_errors(self, source, message):
        with pytest.raises(JavaSyntaxError) as err:
            parse_unit(source)
        assert message in err.value.reason

    def test_error_carries_expectations(self):
        with pytest.raises(JavaSyntaxError) as err:
            parse_unit("class A { void go() { if x } }")
        assert err.value.expected == frozenset({"("})
        assert "found" in err.value.reason


class TestParseStatements:
    def stmt(self, source):
        statements = parse_statements(source)
        assert len(statements) == 1
        return statements[0]

    def test_var_decl_with_init(self):
        decl = self.stmt("Pattern p = Pattern.compile(regex);")
        assert isinstance(decl, VarDecl)
        assert decl.var_type.text == "Pattern"
        assert decl.name == "p"
        assert isinstance(decl.init, MethodCall)

    def test_qualified_type_decl(self):
        decl = self.stmt("java.util.regex.Pattern p;")
        assert isinstance(decl, VarDecl)
        assert decl.var_type.text == "java.util.regex.Pattern"
        assert decl.init is None

    def test_dotted_expression_is_not_a_decl(self):
        stmt = self.stmt("a.b.c;")
        assert isinstance(stmt, ExprStmt)
        access = stmt.expr
        assert isinstance(access, FieldAccess)
        assert access.name == "c"
        assert isinstance(access.receiver, FieldAccess)
        assert access.receiver.receiver == Identifier("a", access.receiver.receiver.span)

    def test_assignment_to_field(self):
        stmt = self.stmt("a.b = 1;")
        assert isinstance(stmt, AssignStmt)
        assert isinstance(stmt.target, FieldAccess)

    @pytest.mark.parametrize(
        "source, form",
        [
            ("a.b.c d = e;", VarDecl),
            ("a.b.c d;", VarDecl),
            ("a b;", VarDecl),
            ("a.b.c();", ExprStmt),
            ("a.b = c;", AssignStmt),
            ("a.b;", ExprStmt),
            ("a = b;", AssignStmt),
        ],
    )
    def test_statement_head_decides_declaration(self, source, form):
        assert isinstance(self.stmt(source), form)

    def test_dotted_declaration_keeps_its_type_span(self):
        decl = self.stmt("a.b. c d = e;")
        assert decl.var_type == TypeName("a.b.c", Span(1, 1, 1, 7))
        assert (decl.name, decl.name_span, decl.span) == ("d", Span(1, 8, 1, 9), Span(1, 1, 1, 7))
        assert decl.init == Identifier("e", Span(1, 12, 1, 13))

    def test_if_else(self):
        stmt = self.stmt("if (a) { b(); } else c();")
        assert isinstance(stmt, IfStmt)
        assert isinstance(stmt.then_branch, Block)
        assert isinstance(stmt.else_branch, ExprStmt)

    def test_while(self):
        stmt = self.stmt("while (m.find()) count = count + 1;")
        assert isinstance(stmt, WhileStmt)
        assert isinstance(stmt.body, AssignStmt)

    def test_for_full(self):
        stmt = self.stmt("for (int i = 0; i < n; i = i + 1) { go(i); }")
        assert isinstance(stmt, ForStmt)
        assert isinstance(stmt.init, VarDecl)
        assert isinstance(stmt.cond, Binary)
        assert isinstance(stmt.update, AssignStmt)

    def test_for_empty_slots(self):
        stmt = self.stmt("for (;;) {}")
        assert (stmt.init, stmt.cond, stmt.update) == (None, None, None)

    def test_for_expression_init(self):
        stmt = self.stmt("for (start(); ready; tick()) {}")
        assert isinstance(stmt.init, ExprStmt)

    def test_return_bare_and_valued(self):
        assert self.stmt("return;").value is None
        assert isinstance(self.stmt("return m.find();").value, MethodCall)

    def test_empty_and_nested_block(self):
        statements = parse_statements("; { int x = 1; }")
        assert isinstance(statements[0], EmptyStmt)
        assert isinstance(statements[1], Block)

    def test_precedence_ladder(self):
        expr = self.stmt("a + b * c == d && !e;").expr
        assert expr.op == "&&"
        assert expr.left.op == "=="
        assert expr.left.left.op == "+"
        assert expr.left.left.right.op == "*"
        assert isinstance(expr.right, Unary)

    def test_parenthesized_grouping(self):
        expr = self.stmt("(a + b) * c;").expr
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_new_expression(self):
        expr = self.stmt("new Matcher(a, 2);").expr
        assert isinstance(expr, NewExpr)
        assert expr.new_type.text == "Matcher"
        assert len(expr.args) == 2

    def test_bare_call_has_no_receiver(self):
        expr = self.stmt("run(1);").expr
        assert isinstance(expr, MethodCall)
        assert expr.receiver is None

    def test_chained_calls(self):
        expr = self.stmt("a.b().c(d).e;").expr
        assert isinstance(expr, FieldAccess)
        assert expr.name == "e"
        call = expr.receiver
        assert (call.name, len(call.args)) == ("c", 1)
        assert call.receiver.name == "b"

    def test_call_span_is_the_name(self):
        expr = self.stmt("pattern.matcher(input);").expr
        assert expr.span.render() == "1:9-1:16"

    def test_class_decl_rejected_in_snippet(self):
        with pytest.raises(JavaSyntaxError) as err:
            parse_statements("class A {}")
        assert "declarations are not allowed inside a snippet body" in err.value.reason


class TestForHeaderAndDeclarators:
    @pytest.mark.parametrize(
        "source, init_form, update_form",
        [
            ("for (a.B b = null;;) {}", "declaration", None),
            ("for (i = 0;;) {}", "assignment", None),
            ("for (x.y = 1;; x.y = 2) {}", "assignment", "assignment"),
            ("for (a.b.c();;) {}", "expression", None),
        ],
        ids=["declaration-init", "assignment-init", "field-assignments", "expression-init"],
    )
    def test_header_statement_forms(self, source, init_form, update_form):
        (stmt,) = parse_statements(source)
        assert isinstance(stmt, ForStmt)
        assert (self.form(stmt.init), self.form(stmt.update)) == (init_form, update_form)

    def test_declaration_init_keeps_its_parts(self):
        (stmt,) = parse_statements("for (a.B b = null;;) {}")
        decl = stmt.init
        assert (decl.var_type.text, decl.name, decl.name_span.render()) == ("a.B", "b", "1:10-1:11")
        assert decl.span.render() == "1:6-1:9"
        assert decl.init == Literal("null", "null", decl.init.span)

    @pytest.mark.parametrize(
        "source, message",
        [
            ("for (;; int x = 1) {}", "1:9: expected an expression, found 'int'"),
            ("for (int i = 0, j = 1;;) {}", "1:15: expected ';', found ','"),
        ],
        ids=["declaration-update", "two-declarators"],
    )
    def test_header_rejects(self, source, message):
        with pytest.raises(JavaSyntaxError) as err:
            parse_statements(source)
        assert str(err.value) == message

    def test_fields_keep_member_order_and_initializers(self):
        (cls,) = parse_unit(
            "class A { int a; String b = x; void m() {} Pattern c = Pattern.compile(b); long d; }"
        ).classes
        assert [member.name for member in cls.members] == ["a", "b", "m", "c", "d"]
        fields = cls.fields
        assert [field.name for field in fields] == ["a", "b", "c", "d"]
        assert [field.init is None for field in fields] == [True, False, False, True]
        assert isinstance(fields[2].init, MethodCall)
        assert [(f.span.render(), f.name_span.render()) for f in fields] == [
            ("1:11-1:14", "1:15-1:16"),
            ("1:18-1:24", "1:25-1:26"),
            ("1:44-1:51", "1:52-1:53"),
            ("1:76-1:80", "1:81-1:82"),
        ]

    def test_parameters_have_no_initializer_and_their_spans(self):
        (method,) = parse_unit("class A { void m(int a, java.util.List b) {} }").classes[0].methods
        params = method.params
        assert [param.name for param in params] == ["a", "b"]
        assert [getattr(param, "init", None) for param in params] == [None, None]
        assert [(p.var_type.span.render(), p.name_span.render()) for p in params] == [
            ("1:18-1:21", "1:22-1:23"),
            ("1:25-1:39", "1:40-1:41"),
        ]

    def test_parameters_take_no_initializer(self):
        with pytest.raises(JavaSyntaxError) as err:
            parse_unit("class A { void m(int a = 1) {} }")
        assert str(err.value) == "1:24: expected ',', found '='"

    @staticmethod
    def form(stmt) -> str | None:
        if stmt is None:
            return None
        if isinstance(stmt, VarDecl):
            return "declaration"
        return {AssignStmt: "assignment", ExprStmt: "expression"}[type(stmt)]


class TestNestingLimit:
    def test_300_nested_parentheses_rejected_at_the_opening_paren(self):
        source = "int x = " + "(" * 300 + "1" + ")" * 300 + ";"
        with pytest.raises(JavaSyntaxError) as err:
            parse_statements(source)
        assert "nesting deeper than 64 levels" in err.value.reason
        assert (err.value.line, err.value.col) == (1, 9 + 64)

    def test_300_nested_blocks_rejected_at_the_opening_brace(self):
        source = "{\n" * 300 + "}\n" * 300
        with pytest.raises(JavaSyntaxError) as err:
            wrap(source)
        assert "nesting deeper than 64 levels" in err.value.reason
        assert (err.value.line, err.value.col) == (65, 1)

    @pytest.mark.parametrize(
        "source",
        [
            "-" * 300 + "x;",
            "f(" * 300 + ")" * 300 + ";",
            "if (x) " * 300 + ";",
            "while (x) " * 300 + ";",
            "for (;;) " * 300 + ";",
        ],
        ids=["unary", "arguments", "if", "while", "for"],
    )
    def test_other_deep_nesting_is_a_syntax_error(self, source):
        with pytest.raises(JavaSyntaxError) as err:
            parse_statements(source)
        assert "nesting deeper than" in err.value.reason

    def test_50_levels_still_parse(self):
        expr = self.stmt("int x = " + "(" * 50 + "1" + ")" * 50 + ";").init
        assert expr == Literal("int", "1", expr.span)
        inner = parse_statements("{" * 50 + "x = 1;" + "}" * 50)[0]
        for _ in range(49):
            inner = inner.statements[0]
        assert isinstance(inner.statements[0], AssignStmt)
        parse_statements("-" * 50 + "x;")
        parse_statements("f(" * 50 + ")" * 50 + ";")

    def test_deepest_allowed_nesting_fits_the_stack(self):
        # argument lists cost the most frames per level, in the parser and
        # in analysis; the limit itself must still sketch
        from depsketch.frontend import sketch_source
        from depsketch.frontend.parser import MAX_NESTING

        source = "s.f(" * MAX_NESTING + ")" * MAX_NESTING + ";"
        _, analysis = sketch_source("String s = null; " + source)
        assert analysis.sketches

    def test_else_if_ladder_is_not_nesting(self):
        source = "if (x == 0) x = 1;" + " else if (x == 1) x = 2;" * 1000 + " else x = 3;"
        stmt = self.stmt(source)
        cols = []
        while isinstance(stmt, IfStmt):
            cols.append(stmt.span.col)
            assert isinstance(stmt.then_branch, AssignStmt)
            stmt = stmt.else_branch
        assert cols == [1] + [25 + 24 * i for i in range(1000)]
        assert isinstance(stmt, AssignStmt)

    def test_65_nested_ifs_fail_at_the_65th(self):
        with pytest.raises(JavaSyntaxError) as err:
            parse_statements("if (x) " * 65 + ";")
        assert "nesting deeper than 64 levels" in err.value.reason
        assert (err.value.line, err.value.col) == (1, 1 + 7 * 64)
        parse_statements("if (x) " * 64 + ";")

    def test_limit_is_per_nesting_not_per_snippet(self):
        deep = "(" * 60 + "1" + ")" * 60
        assert len(parse_statements(f"int x = {deep}; int y = {deep};")) == 2

    @staticmethod
    def stmt(source: str):
        (statement,) = parse_statements(source)
        return statement


class TestExpressionErrors:
    @pytest.mark.parametrize(
        "source, message, expected",
        [
            ("x = a +;", "1:8: expected an expression, found ';'", {"<expression>"}),
            ("x = a + );", "1:9: expected an expression, found ')'", {"<expression>"}),
            ("x = (a;", "1:7: expected ')', found ';'", {")"}),
            ("f(a,);", "1:5: expected an expression, found ')'", {"<expression>"}),
            ("x = a.;", "1:7: expected a member name, found ';'", {"<identifier>"}),
            ("x = y -> z;", "1:7: lambdas are not supported, found '->'", set()),
            ("x = new int();", "1:9: cannot instantiate a primitive type", set()),
            ("x = @A y;", "1:5: annotations are not supported, found '@'", set()),
            ("x = a == ;", "1:10: expected an expression, found ';'", {"<expression>"}),
            ("x = a + " + "-" * 65 + "b;", "1:73: nesting deeper than 64 levels is not supported", set()),
            (
                "x = a * " + "(" * 65 + "b" + ")" * 65 + ";",
                "1:73: nesting deeper than 64 levels is not supported",
                set(),
            ),
            ("a.b < c;", "1:5: generic types are not supported, found '<'", set()),
            ("a.b[0] = 1;", "1:4: array types are not supported, found '['", set()),
            ("a. ;", "1:4: expected a member name, found ';'", {"<identifier>"}),
        ],
        ids=[
            "missing-right-operand", "operator-then-paren", "unclosed-paren", "empty-argument",
            "missing-member", "lambda", "new-primitive", "annotation", "missing-comparand",
            "65-unary-minus", "65-parentheses", "generic-statement-head", "array-statement-head",
            "statement-head-without-member",
        ],
    )
    def test_message_position_and_expectations(self, source, message, expected):
        with pytest.raises(JavaSyntaxError) as err:
            parse_statements(source)
        line, col, _ = message.split(":", 2)
        assert str(err.value) == message
        assert (err.value.line, err.value.col) == (int(line), int(col))
        assert err.value.expected == frozenset(expected)


class TestErrorsAfterContinuedLines:
    # A string or char continued by a backslash-newline stays on its start
    # line, and CR LF or a lone CR ends a line as LF does; the parser's own
    # errors after them keep the lexer's line and column.
    @pytest.mark.parametrize(
        "parse, source, message, expected",
        [
            (parse_statements, 's = "a\\\nb" + x\ny = 1;', "2:1: expected ';', found 'y'", {";"}),
            (parse_statements, 's = "a\\\nb"; t = (1 ;', "1:20: expected ')', found ';'", {")"}),
            (parse_statements, "c = '\\\n'; x = a +;", "1:18: expected an expression, found ';'",
             {"<expression>"}),
            (parse_statements, 'x = "a\\\r\nb";\r\ny = 1', "2:6: expected ';', found end of input",
             {";"}),
            (parse_statements, "int x;\r\nint y = (1;\r\n", "2:11: expected ')', found ';'", {")"}),
            (parse_statements, "a;\rb.c<d> e;", "2:4: generic types are not supported, found '<'",
             set()),
            (parse_statements, 's = "a\\\nb"; x = ' + "(" * 65 + "b" + ")" * 65 + ";",
             "1:81: nesting deeper than 64 levels is not supported", set()),
            (parse_statements, 'x = "a\\\r\nb\\\rc";\r\n{\r\n' + "{" * 64 + "}" * 65,
             "3:64: nesting deeper than 64 levels is not supported", set()),
            (parse_unit, 'class A {\r\n  String s = "x\\\r\ny";\r\n  int n = 1\r\n}',
             "4:1: expected ';', found '}'", {";"}),
            (parse_unit, 'class A { void go() { s = "a\\\nb";',
             "1:34: unexpected end of block, found end of input", {"}"}),
            (parse_unit, 'import a.B;\r\nclass A { void go() { s = "a\\\r\nb"; new int(); } }',
             "2:39: cannot instantiate a primitive type", set()),
            (parse_unit, 'class A {\r\n  String s = "\\\r\n";\r\n  List<String> x;\r\n}',
             "3:7: generic types are not supported, found '<'", set()),
            (parse_unit, 'package a;\rimport "b\\\nc";', "2:8: expected an imported type name, "
             "found '\"b\\\\\\nc\"'", {"<identifier>"}),
            (parse_unit, "import a.B;\r\n\r\nimport C;", "3:1: import needs a package-qualified "
             "name, got 'C'", set()),
        ],
        ids=[
            "string-then-missing-semicolon", "string-then-unclosed-paren", "char-then-operator",
            "crlf-string-then-end", "crlf-unclosed-paren", "cr-generic-head", "string-then-65-parens",
            "crlf-65-blocks", "crlf-field", "string-then-end-of-block", "crlf-new-primitive",
            "crlf-generic-field", "continued-string-as-import", "crlf-unqualified-import",
        ],
    )
    def test_message_position_and_expectations(self, parse, source, message, expected):
        with pytest.raises(JavaSyntaxError) as err:
            parse(source)
        line, col, _ = message.split(":", 2)
        assert str(err.value) == message
        assert (err.value.line, err.value.col) == (int(line), int(col))
        assert err.value.expected == frozenset(expected)


# Binary operators from the loosest level to the tightest; all associate left.
BINARY_LEVELS = (("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"), ("*", "/", "%"))
LEVEL_OF = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}

# Expression trees as tuples, the same shape `shape` reads off a parse.
_leaves = st.one_of(
    st.sampled_from(["a", "b", "value", "x1"]).map(lambda name: ("id", name)),
    st.sampled_from(
        [("int", "7"), ("long", "8L"), ("double", "2.5"), ("string", '"s"'), ("char", "'c'"),
         ("boolean", "true"), ("null", "null")]
    ).map(lambda lit: ("lit", *lit)),
)


def _extend(children):
    names = st.sampled_from(["f", "get", "size"])
    args = st.lists(children, max_size=2).map(tuple)
    return st.one_of(
        st.tuples(st.just("bin"), st.sampled_from(sorted(LEVEL_OF)), children, children),
        st.tuples(st.just("un"), st.sampled_from(["!", "-"]), children),
        st.tuples(st.just("call"), st.none() | children, names, args),
        st.tuples(st.just("field"), children, names),
    )


EXPRESSIONS = st.recursive(_leaves, _extend, max_leaves=30)


def render(tree, minimal: bool) -> str:
    """Java text of *tree*: every operation in parentheses, or only where needed."""
    kind = tree[0]
    if kind == "id":
        return tree[1]
    if kind == "lit":
        return tree[2]
    if kind in ("call", "field"):
        receiver = tree[1]
        text = ""
        if receiver is not None:
            text = render(receiver, minimal)
            if receiver[0] not in ("id", "call", "field"):
                text = f"({text})"
            text += "."
        text += tree[2]
        if kind == "call":
            text += "(" + ", ".join(render(arg, minimal) for arg in tree[3]) + ")"
        return text
    if kind == "un":
        operand = render(tree[2], minimal)
        if tree[2][0] == "bin" or not minimal:
            operand = f"({operand})"
        text = tree[1] + operand
    else:
        _, op, left, right = tree
        level = LEVEL_OF[op]
        left_text, right_text = render(left, minimal), render(right, minimal)
        if not minimal or (left[0] == "bin" and LEVEL_OF[left[1]] < level):
            left_text = f"({left_text})"
        if not minimal or (right[0] == "bin" and LEVEL_OF[right[1]] <= level):
            right_text = f"({right_text})"
        text = f"{left_text} {op} {right_text}"
    return text if minimal else f"({text})"


def shape(node):
    """The tuple form of a parsed expression, spans left out."""
    if isinstance(node, Identifier):
        return ("id", node.name)
    if isinstance(node, Literal):
        return ("lit", node.kind, node.text)
    if isinstance(node, Binary):
        return ("bin", node.op, shape(node.left), shape(node.right))
    if isinstance(node, Unary):
        return ("un", node.op, shape(node.operand))
    receiver = None if node.receiver is None else shape(node.receiver)
    if isinstance(node, MethodCall):
        return ("call", receiver, node.name, tuple(shape(arg) for arg in node.args))
    assert isinstance(node, FieldAccess)
    return ("field", receiver, node.name)


def parse_expression(text: str):
    (stmt,) = parse_statements(f"x = {text};")
    return stmt.value


class TestPrecedenceProperty:
    @settings(max_examples=300, deadline=None)
    @given(EXPRESSIONS)
    def test_minimal_and_full_parentheses_parse_to_the_drawn_tree(self, tree):
        assert shape(parse_expression(render(tree, minimal=True))) == tree
        assert shape(parse_expression(render(tree, minimal=False))) == tree

    @pytest.mark.parametrize(
        "text, tree",
        [
            ("a - b - c", ("bin", "-", ("bin", "-", ("id", "a"), ("id", "b")), ("id", "c"))),
            ("a - (b - c)", ("bin", "-", ("id", "a"), ("bin", "-", ("id", "b"), ("id", "c")))),
            ("a == b != c", ("bin", "!=", ("bin", "==", ("id", "a"), ("id", "b")), ("id", "c"))),
            ("a || b && c", ("bin", "||", ("id", "a"), ("bin", "&&", ("id", "b"), ("id", "c")))),
            ("-a * b", ("bin", "*", ("un", "-", ("id", "a")), ("id", "b"))),
            ("!a.b()", ("un", "!", ("call", ("id", "a"), "b", ()))),
        ],
    )
    def test_renders_of_known_trees(self, text, tree):
        assert render(tree, minimal=True) == text
        assert shape(parse_expression(text)) == tree


class TestWrap:
    def test_freestanding(self, snippet_source):
        snippet = wrap(snippet_source)
        assert snippet.origin is Origin.FREESTANDING
        assert snippet.source == snippet_source

    def test_statements_get_wrapped(self):
        snippet = wrap("Pattern p = Pattern.compile(x);")
        assert snippet.origin is Origin.WRAPPED
        unit = parse(snippet)
        assert unit.classes[0].name == "__Snippet"

    def test_empty_source_rejected(self):
        with pytest.raises(JavaSyntaxError) as err:
            wrap("   \n  ")
        assert err.value.reason == "empty source"

    def test_allow_wrap_false_requires_unit(self):
        with pytest.raises(JavaSyntaxError):
            wrap("int x = 1;", allow_wrap=False)
        assert wrap("class A {}", allow_wrap=False).origin is Origin.FREESTANDING

    def test_unit_like_source_gets_unit_error(self):
        # Statement parsing would complain about 'class'; the unit error about
        # the missing brace is the helpful one.
        with pytest.raises(JavaSyntaxError) as err:
            wrap("class A { int x;")
        assert "end of class body" in err.value.reason

    def test_statement_like_source_gets_statement_error(self):
        with pytest.raises(JavaSyntaxError) as err:
            wrap("x = ;")
        assert "expected an expression" in err.value.reason


class TestParseSnippet:
    def test_wrapped_positions_are_original(self):
        snippet = wrap("Matcher m = p.matcher(s);\nreturn m.find();")
        unit = parse(snippet)
        (cls,) = unit.classes
        assert cls.name == "__Snippet"
        (run,) = cls.methods
        assert run.name == "__run"
        decl, ret = run.body.statements
        assert decl.name_span.render() == "1:9-1:10"
        assert ret.value.span.render() == "2:10-2:14"

    def test_freestanding_parse(self, snippet_source):
        unit = parse(wrap(snippet_source))
        assert unit.classes[0].name == "Example"
