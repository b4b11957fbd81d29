from __future__ import annotations

import pytest

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
    Unary,
    VarDeclStmt,
    WhileStmt,
)


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
        assert isinstance(decl, VarDeclStmt)
        assert decl.var_type.text == "Pattern"
        assert decl.name == "p"
        assert isinstance(decl.init, MethodCall)

    def test_qualified_type_decl(self):
        decl = self.stmt("java.util.regex.Pattern p;")
        assert isinstance(decl, VarDeclStmt)
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
        assert isinstance(stmt.init, VarDeclStmt)
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
