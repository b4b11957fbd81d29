"""Recursive-descent parser for the supported Java subset.

Grammar, roughly:

    unit      := package? import* class+
    package   := 'package' qualified ';'      (only its span is kept)
    import    := 'import' qualified ';'
    class     := modifier* 'class' IDENT ('extends' qualified)? '{' member* '}'
    member    := modifier* type IDENT ( '(' params? ')' block | declarator ';' )
    params    := type IDENT (',' type IDENT)*
    declarator:= ('=' expr)?          (one per field, local or for-init)
    statement := block | ';' | if | while | for | return | simple ';'
    simple    := type IDENT declarator | update
    update    := target '=' expr | expr
    for       := 'for' '(' simple? ';' expr? ';' update? ')' statement
    expr      := unary (binop unary)*, binop by level, loosest first, each
                 level grouping left: || | && | == != | < > <= >= | + - | * / %
    unary     := ('!' | '-') unary | primary, then '.name' field accesses
                 and '.name(args)' calls

No generics, lambdas, arrays, or annotations; those fail with a message
saying so rather than a generic complaint.  Snippets that are bare
statements are wrapped in a synthetic class so later passes only ever see
a compilation unit; the synthetic wrapper contributes no identifiers and
statement positions stay exactly as typed.
"""

from __future__ import annotations

from enum import Enum

from ..model import PRIMITIVES, Record, Span
from .lexer import JavaSyntaxError, MODIFIER_KEYWORDS, Tokens, tokenize

_ZERO = Span(1, 1, 1, 1)
# Deepest nesting of parentheses, argument lists, unary operators, blocks
# and if/while/for bodies (a whole `else if` ladder is one level); each level
# costs the parser 4 to 10 interpreter frames, so this stays well inside the
# default recursion limit.
MAX_NESTING = 64
# Binary operator -> precedence level, as in the grammar above.
_LEVELS = {"||": 0, "&&": 1, "==": 2, "!=": 2, "<": 3, ">": 3, "<=": 3, ">=": 3,
           "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


# -- AST ---------------------------------------------------------------------
#
# Plain records (see `Record`): each node but `CompilationUnit`, whose last
# two fields have defaults, gets the ``__init__`` `Record` generates, the
# same bytecode as one written by hand, which matters because the parser
# builds thousands of nodes for a long snippet.  Nodes take assignment and
# are unhashable.


class TypeName(Record):
    """A type as written: dotted name or primitive keyword."""

    __slots__ = ("text", "span")


class ImportDecl(Record):
    __slots__ = ("fqn", "span")


class VarDecl(Record):
    """A field, parameter, local variable or ``for`` initializer declaration.

    ``span`` is the type's span; parameters have no ``init``.
    """

    __slots__ = ("var_type", "name", "name_span", "init", "span")


class Block(Record):
    __slots__ = ("statements", "span")


class MethodDecl(Record):
    __slots__ = ("return_type", "name", "name_span", "params", "body", "span")


class ClassDecl(Record):
    __slots__ = ("name", "extends", "members", "span")

    @property
    def methods(self) -> list[MethodDecl]:
        return [m for m in self.members if isinstance(m, MethodDecl)]

    @property
    def fields(self) -> list[VarDecl]:
        return [m for m in self.members if isinstance(m, VarDecl)]


class CompilationUnit(Record):
    """``package`` is where the package declaration is, if any; ``body`` is
    the first token after the package and imports, None when wrapped."""

    __slots__ = ("imports", "classes", "package", "body")

    def __init__(
        self,
        imports: list[ImportDecl],
        classes: list[ClassDecl],
        package: Span | None = None,
        body: Span | None = None,
    ) -> None:
        self.imports = imports
        self.classes = classes
        self.package = package
        self.body = body


class AssignStmt(Record):
    __slots__ = ("target", "value", "span")


class ExprStmt(Record):
    __slots__ = ("expr", "span")


class ReturnStmt(Record):
    __slots__ = ("value", "span")


class IfStmt(Record):
    __slots__ = ("cond", "then_branch", "else_branch", "span")


class WhileStmt(Record):
    __slots__ = ("cond", "body", "span")


class ForStmt(Record):
    __slots__ = ("init", "cond", "update", "body", "span")


class EmptyStmt(Record):
    __slots__ = ("span",)


class Identifier(Record):
    __slots__ = ("name", "span")


class FieldAccess(Record):
    """``span`` is the span of the accessed name."""

    __slots__ = ("receiver", "name", "span")


class MethodCall(Record):
    """``receiver`` is None for a bare call like ``run()``; ``span`` is the
    span of the method name."""

    __slots__ = ("receiver", "name", "args", "span")


class NewExpr(Record):
    __slots__ = ("new_type", "args", "span")


class Literal(Record):
    """``kind`` is string, int, long, double, boolean, char or null."""

    __slots__ = ("kind", "text", "span")


class Unary(Record):
    __slots__ = ("op", "operand", "span")


class Binary(Record):
    __slots__ = ("op", "left", "right", "span")


# -- parser ------------------------------------------------------------------


class _Parser:
    """Recursive descent over the columns of `Tokens`.

    ``pos`` is the index of the next token; the parser reads the ``texts``
    and ``kinds`` columns at it, and a method that consumes a token returns
    the token's index.  A token's line and column are looked up only for a
    `Span` the parser keeps or an error it raises (`Tokens.span`,
    `Tokens.position`).  Keyword and punctuation texts are spelled by no
    other kind of token, and only ``eof`` has an empty text, so most tests
    read the text alone.
    """

    def __init__(self, source: str | Tokens):
        tokens = tokenize(source) if isinstance(source, str) else source
        self.texts = tokens.texts
        self.kinds = tokens.kinds
        self.span = tokens.span
        self.position = tokens.position
        self.pos = 0
        self.depth = 0

    def advance(self) -> int:
        pos = self.pos
        if self.texts[pos]:  # eof is never passed
            self.pos = pos + 1
        return pos

    def at(self, text: str) -> bool:
        return self.texts[self.pos] == text

    def error(self, message: str, index: int | None = None, expected: set[str] = ()) -> JavaSyntaxError:
        index = self.pos if index is None else index
        text = self.texts[index]
        found = repr(text) if text else "end of input"
        return JavaSyntaxError(f"{message}, found {found}", *self.position(index), frozenset(expected))

    def nest(self, opening: int) -> None:
        """Enter one nesting level; the caller leaves it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise JavaSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels is not supported", *self.position(opening)
            )

    def expect(self, text: str) -> int:
        pos = self.pos
        if self.texts[pos] != text:
            raise self.error(f"expected {text!r}", expected={text})
        self.pos = pos + 1
        return pos

    def expect_ident(self, what: str = "identifier") -> int:
        pos = self.pos
        if self.kinds[pos] != "ident":
            raise self.error(f"expected {what}", expected={"<identifier>"})
        self.pos = pos + 1
        return pos

    # -- declarations --

    def parse_unit(self) -> CompilationUnit:
        package = self._package_decl() if self.at("package") else None
        imports = []
        while self.at("import"):
            imports.append(self._import_decl())
        body = self.span(self.pos)
        classes = [self._class_decl()]
        while self.texts[self.pos]:
            classes.append(self._class_decl())
        return CompilationUnit(imports, classes, package, body)

    def parse_statements(self) -> list:
        statements = []
        while self.texts[self.pos]:
            statements.append(self._statement())
        return statements

    def _package_decl(self) -> Span:
        # Nothing downstream reads the package name, so only its span is kept.
        start = self.expect("package")
        self.expect_ident("a package name")
        while self.at("."):
            self.advance()
            self.expect_ident("a package name")
        return self.span(start, self.expect(";"))

    def _import_decl(self) -> ImportDecl:
        start = self.expect("import")
        parts = [self.texts[self.expect_ident("an imported type name")]]
        while self.at("."):
            self.advance()
            if self.at("*"):
                raise self.error("wildcard imports are not supported")
            parts.append(self.texts[self.expect_ident("an imported type name")])
        self.expect(";")
        fqn = ".".join(parts)
        if len(parts) < 2:
            raise JavaSyntaxError(
                f"import needs a package-qualified name, got {fqn!r}", *self.position(start)
            )
        return ImportDecl(fqn, self.span(start))

    def _skip_modifiers(self) -> None:
        while self.texts[self.pos] in MODIFIER_KEYWORDS:
            self.advance()

    def _class_decl(self) -> ClassDecl:
        self._skip_modifiers()
        start = self.expect("class")
        name = self.expect_ident("a class name")
        extends = None
        if self.at("extends"):
            self.advance()
            extends = self._type_name()
        self.expect("{")
        members = []
        while not self.at("}"):
            if not self.texts[self.pos]:
                raise self.error("unexpected end of class body", expected={"}"})
            members.append(self._member())
        self.expect("}")
        return ClassDecl(self.texts[name], extends, members, self.span(start))

    def _member(self) -> MethodDecl | VarDecl:
        self._skip_modifiers()
        member_type = self._type_name()
        name = self.expect_ident("a member name")
        if self.at("("):
            params = self._params()
            body = self._block()
            return MethodDecl(
                member_type, self.texts[name], self.span(name), params, body, member_type.span
            )
        field = self._declarator(member_type, name)
        self.expect(";")
        return field

    def _params(self) -> list[VarDecl]:
        self.expect("(")
        params: list[VarDecl] = []
        while not self.at(")"):
            if params:
                self.expect(",")
            param_type = self._type_name()
            name = self.expect_ident("a parameter name")
            params.append(VarDecl(param_type, self.texts[name], self.span(name), None, param_type.span))
        self.expect(")")
        return params

    def _declarator(self, var_type: TypeName, name: int) -> VarDecl:
        init = None
        if self.at("="):
            self.advance()
            init = self._expression()
        return VarDecl(var_type, self.texts[name], self.span(name), init, var_type.span)

    def _type_name(self) -> TypeName:
        pos = self.pos
        text = self.texts[pos]
        if text in PRIMITIVES:
            self.pos = pos + 1
            name = TypeName(text, self.span(pos))
        elif self.kinds[pos] == "ident":
            name = TypeName(*self._qualified_name())
        else:
            raise self.error("expected a type name", expected={"<type>"})
        self._reject_type_suffix(self.pos)
        return name

    def _qualified_name(self) -> tuple[str, Span]:
        texts, kinds = self.texts, self.kinds
        first = last = self.expect_ident("a type name")
        while texts[last + 1] == "." and kinds[last + 2] == "ident":  # a "." is never last
            last += 2
        self.pos = last + 1
        return ".".join(texts[first:last + 1:2]), self.span(first, last)

    def _reject_type_suffix(self, index: int) -> None:
        text = self.texts[index]
        if text == "<":
            raise self.error("generic types are not supported", index)
        if text == "[":
            raise self.error("array types are not supported", index)

    # -- statements --

    def _block(self) -> Block:
        start = self.expect("{")
        self.nest(start)
        statements = []
        while not self.at("}"):
            if not self.texts[self.pos]:
                raise self.error("unexpected end of block", expected={"}"})
            statements.append(self._statement())
        self.expect("}")
        self.depth -= 1
        return Block(statements, self.span(start))

    def _statement(self):
        pos = self.pos
        text = self.texts[pos]
        kind = self.kinds[pos]
        if kind == "punct":
            if text == "{":
                return self._block()
            if text == ";":
                self.pos = pos + 1
                return EmptyStmt(self.span(pos))
        elif kind == "kw":
            if text == "if":
                return self._if_stmt()
            if text == "while":
                return self._while_stmt()
            if text == "for":
                return self._for_stmt()
            if text == "return":
                self.pos = pos + 1
                value = None if self.at(";") else self._expression()
                self.expect(";")
                return ReturnStmt(value, self.span(pos))
            if text in ("class", "import"):
                raise self.error("declarations are not allowed inside a snippet body")
            if text not in PRIMITIVES and text not in ("new", "true", "false", "null"):
                raise self.error("expected a statement")
        stmt = self._simple_statement()
        self.expect(";")
        return stmt

    def _simple_statement(self):
        """A declaration, assignment or expression, without its ``;``."""
        if not self._at_declaration():
            return self._assignment_or_expression()
        var_type = self._type_name()
        return self._declarator(var_type, self.expect_ident("a variable name"))

    def _at_declaration(self) -> bool:
        # A primitive keyword or "Name.Name... ident" starts a declaration.
        # The dotted name is only walked over here; `_type_name` reads it.
        texts, kinds, pos = self.texts, self.kinds, self.pos
        if kinds[pos] != "ident":
            return texts[pos] in PRIMITIVES
        pos += 1
        while texts[pos] == "." and kinds[pos + 1] == "ident":  # a "." is never last
            pos += 2
        self._reject_type_suffix(pos)
        return kinds[pos] == "ident"

    def _assignment_or_expression(self):
        expr = self._expression()
        if not self.at("="):
            return ExprStmt(expr, expr.span)
        if not isinstance(expr, (Identifier, FieldAccess)):
            raise self.error("invalid assignment target")
        self.advance()
        return AssignStmt(expr, self._expression(), expr.span)

    def _if_stmt(self) -> IfStmt:
        # An `else if` ladder is read with a loop at one nesting level, then
        # built into the same nested IfStmt chain from the bottom up.
        start = self.expect("if")
        self.nest(start)
        rungs = []
        else_branch = None
        while True:
            self.expect("(")
            cond = self._expression()
            self.expect(")")
            rungs.append((cond, self._statement(), self.span(start)))
            if not self.at("else"):
                break
            self.advance()
            if not self.at("if"):
                else_branch = self._statement()
                break
            start = self.advance()
        self.depth -= 1
        for cond, then_branch, span in reversed(rungs):
            else_branch = IfStmt(cond, then_branch, else_branch, span)
        return else_branch

    def _while_stmt(self) -> WhileStmt:
        start = self.expect("while")
        self.nest(start)
        self.expect("(")
        cond = self._expression()
        self.expect(")")
        body = self._statement()
        self.depth -= 1
        return WhileStmt(cond, body, self.span(start))

    def _for_stmt(self) -> ForStmt:
        start = self.expect("for")
        self.nest(start)
        self.expect("(")
        init = None if self.at(";") else self._simple_statement()
        self.expect(";")
        cond = None if self.at(";") else self._expression()
        self.expect(";")
        update = None if self.at(")") else self._assignment_or_expression()
        self.expect(")")
        body = self._statement()
        self.depth -= 1
        return ForStmt(init, cond, update, body, self.span(start))

    # -- expressions --

    def _expression(self):
        expr = self._binary(0)
        if self.at("->"):
            raise self.error("lambdas are not supported")
        return expr

    def _binary(self, floor: int):
        """Unary operands joined by operators of level *floor* or above."""
        left = self._unary()
        texts = self.texts
        while True:
            op = self.pos
            level = _LEVELS.get(texts[op], -1)  # only punctuation spells an operator
            if level < floor:
                return left
            self.pos = op + 1
            left = Binary(texts[op], left, self._binary(level + 1), self.span(op))

    def _unary(self):
        """A prefix operator and its operand, or a primary with its member suffixes."""
        texts = self.texts
        pos = self.pos
        text = texts[pos]
        if text == "!" or text == "-":
            self.pos = pos + 1
            self.nest(pos)
            operand = self._unary()
            self.depth -= 1
            return Unary(text, operand, self.span(pos))
        expr = self._primary()
        while texts[self.pos] == ".":
            self.pos += 1
            name = self.expect_ident("a member name")
            if texts[self.pos] == "(":
                args = self._arguments()
                expr = MethodCall(expr, texts[name], args, self.span(name))
            else:
                expr = FieldAccess(expr, texts[name], self.span(name))
        return expr

    def _primary(self):
        pos = self.pos
        text = self.texts[pos]
        kind = self.kinds[pos]
        if kind in ("int", "long", "double", "string", "char"):
            self.pos = pos + 1
            return Literal(kind, text, self.span(pos))
        if kind == "kw":
            if text in ("true", "false", "null"):
                self.pos = pos + 1
                return Literal("null" if text == "null" else "boolean", text, self.span(pos))
            if text == "new":
                self.pos = pos + 1
                new_type = self._type_name()
                if new_type.text in PRIMITIVES:
                    raise JavaSyntaxError(
                        "cannot instantiate a primitive type",
                        new_type.span.line,
                        new_type.span.col,
                    )
                args = self._arguments()
                return NewExpr(new_type, args, new_type.span)
        if kind == "ident":
            self.pos = pos + 1
            if self.texts[pos + 1] == "(":
                args = self._arguments()
                return MethodCall(None, text, args, self.span(pos))
            return Identifier(text, self.span(pos))
        if text == "(":
            self.nest(self.advance())
            expr = self._expression()
            self.expect(")")
            self.depth -= 1
            return expr
        if text == "@":
            raise self.error("annotations are not supported")
        raise self.error("expected an expression", expected={"<expression>"})

    def _arguments(self) -> list:
        self.nest(self.expect("("))
        args = []
        while not self.at(")"):
            if args:
                self.expect(",")
            args.append(self._expression())
        self.expect(")")
        self.depth -= 1
        return args


def parse_unit(source: str | Tokens) -> CompilationUnit:
    return _Parser(source).parse_unit()


def parse_statements(source: str | Tokens) -> list:
    return _Parser(source).parse_statements()


# -- snippets ------------------------------------------------------------------


class Origin(Enum):
    FREESTANDING = "freestanding"  # already a full compilation unit
    WRAPPED = "wrapped"  # bare statements, wrapped in a synthetic class


class Snippet(Record):
    """A snippet's text, how it was read, and the unit parsed from it.

    Immutable.  Equality, hashing and ``repr`` look at ``source`` and
    ``origin`` only; ``unit`` follows from them.
    """

    __slots__ = ("source", "origin", "unit")
    __setattr__ = __delattr__ = Record._read_only

    def __repr__(self) -> str:
        return f"Snippet(source={self.source!r}, origin={self.origin!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.origin) == (other.source, other.origin)

    def __hash__(self) -> int:
        return hash((self.source, self.origin))


# A compilation unit starts with one of these and no statement can.
_UNIT_START = MODIFIER_KEYWORDS | {"package", "import", "class"}


def wrap(source: str, allow_wrap: bool = True) -> Snippet:
    """Tokenize and parse *source* once, as a compilation unit or as statements.

    The first token decides: ``package``, ``import``, ``class`` or a
    modifier starts a unit, anything else starts statements, which get a
    synthetic ``__Snippet`` class with one ``__run`` method around them.
    With *allow_wrap* false the source must be a unit.  Positions stay as
    typed.
    """
    if not source.strip():
        raise JavaSyntaxError("empty source", 1, 1)
    tokens = tokenize(source)
    if not allow_wrap or tokens.texts[0] in _UNIT_START:
        return Snippet(source, Origin.FREESTANDING, parse_unit(tokens))
    body = Block(parse_statements(tokens), _ZERO)
    run = MethodDecl(TypeName("void", _ZERO), "__run", _ZERO, [], body, _ZERO)
    holder = ClassDecl("__Snippet", None, [run], _ZERO)
    return Snippet(source, Origin.WRAPPED, CompilationUnit([], [holder]))


def parse(snippet: Snippet) -> CompilationUnit:
    """AST of a snippet: the unit `wrap` parsed, synthetic holder included."""
    return snippet.unit
