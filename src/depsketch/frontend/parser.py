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

from dataclasses import dataclass, field
from enum import Enum

from ..model import PRIMITIVES, Span
from .lexer import JavaSyntaxError, MODIFIER_KEYWORDS, Token, tokenize

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


@dataclass
class TypeName:
    """A type as written: dotted name or primitive keyword."""

    text: str
    span: Span


@dataclass
class ImportDecl:
    fqn: str
    span: Span


@dataclass
class VarDecl:
    """A field, parameter, local variable or ``for`` initializer declaration.

    ``span`` is the type's span; parameters have no ``init``.
    """

    var_type: TypeName
    name: str
    name_span: Span
    init: object | None
    span: Span


@dataclass
class Block:
    statements: list
    span: Span


@dataclass
class MethodDecl:
    return_type: TypeName
    name: str
    name_span: Span
    params: list[VarDecl]
    body: Block
    span: Span


@dataclass
class ClassDecl:
    name: str
    extends: TypeName | None
    members: list
    span: Span

    @property
    def methods(self) -> list[MethodDecl]:
        return [m for m in self.members if isinstance(m, MethodDecl)]

    @property
    def fields(self) -> list[VarDecl]:
        return [m for m in self.members if isinstance(m, VarDecl)]


@dataclass
class CompilationUnit:
    imports: list[ImportDecl]
    classes: list[ClassDecl]
    package: Span | None = None  # where the package declaration is, if any
    body: Span | None = None  # first token after the package and imports; None when wrapped


@dataclass
class AssignStmt:
    target: object
    value: object
    span: Span


@dataclass
class ExprStmt:
    expr: object
    span: Span


@dataclass
class ReturnStmt:
    value: object | None
    span: Span


@dataclass
class IfStmt:
    cond: object
    then_branch: object
    else_branch: object | None
    span: Span


@dataclass
class WhileStmt:
    cond: object
    body: object
    span: Span


@dataclass
class ForStmt:
    init: object | None
    cond: object | None
    update: object | None
    body: object
    span: Span


@dataclass
class EmptyStmt:
    span: Span


@dataclass
class Identifier:
    name: str
    span: Span


@dataclass
class FieldAccess:
    receiver: object
    name: str
    span: Span  # span of the accessed name


@dataclass
class MethodCall:
    receiver: object | None  # None for a bare call like run()
    name: str
    args: list
    span: Span  # span of the method name


@dataclass
class NewExpr:
    new_type: TypeName
    args: list
    span: Span


@dataclass
class Literal:
    kind: str  # string | int | long | double | boolean | char | null
    text: str
    span: Span


@dataclass
class Unary:
    op: str
    operand: object
    span: Span


@dataclass
class Binary:
    op: str
    left: object
    right: object
    span: Span


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str | list[Token]):
        self.tokens = tokenize(source) if isinstance(source, str) else source
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def at(self, text: str) -> bool:
        token = self.tokens[self.pos]
        return token.text == text and token.kind in ("punct", "kw")

    def error(self, message: str, token: Token | None = None, expected: set[str] = ()) -> JavaSyntaxError:
        token = token or self.peek()
        found = repr(token.text) if token.kind != "eof" else "end of input"
        return JavaSyntaxError(
            f"{message}, found {found}", token.line, token.col, frozenset(expected)
        )

    def nest(self, opening: Token) -> None:
        """Enter one nesting level; the caller leaves it with ``depth -= 1``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise JavaSyntaxError(
                f"nesting deeper than {MAX_NESTING} levels is not supported",
                opening.line,
                opening.col,
            )

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"expected {text!r}", expected={text})
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        token = self.peek()
        if token.kind != "ident":
            raise self.error(f"expected {what}", expected={"<identifier>"})
        return self.advance()

    # -- declarations --

    def parse_unit(self) -> CompilationUnit:
        package = self._package_decl() if self.at("package") else None
        imports = []
        while self.at("import"):
            imports.append(self._import_decl())
        body = self.peek().span
        classes = [self._class_decl()]
        while self.peek().kind != "eof":
            classes.append(self._class_decl())
        return CompilationUnit(imports, classes, package, body)

    def parse_statements(self) -> list:
        statements = []
        while self.peek().kind != "eof":
            statements.append(self._statement())
        return statements

    def _package_decl(self) -> Span:
        # Nothing downstream reads the package name, so only its span is kept.
        start = self.expect("package")
        self.expect_ident("a package name")
        while self.at("."):
            self.advance()
            self.expect_ident("a package name")
        end = self.expect(";")
        return Span(start.line, start.col, end.line, end.col + 1)

    def _import_decl(self) -> ImportDecl:
        start = self.expect("import")
        parts = [self.expect_ident("an imported type name").text]
        while self.at("."):
            self.advance()
            if self.at("*"):
                raise self.error("wildcard imports are not supported")
            parts.append(self.expect_ident("an imported type name").text)
        self.expect(";")
        fqn = ".".join(parts)
        if len(parts) < 2:
            raise JavaSyntaxError(
                f"import needs a package-qualified name, got {fqn!r}", start.line, start.col
            )
        return ImportDecl(fqn, start.span)

    def _skip_modifiers(self) -> None:
        while self.peek().kind == "kw" and self.peek().text in MODIFIER_KEYWORDS:
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
            if self.peek().kind == "eof":
                raise self.error("unexpected end of class body", expected={"}"})
            members.append(self._member())
        self.expect("}")
        return ClassDecl(name.text, extends, members, start.span)

    def _member(self) -> MethodDecl | VarDecl:
        self._skip_modifiers()
        member_type = self._type_name()
        name = self.expect_ident("a member name")
        if self.at("("):
            params = self._params()
            body = self._block()
            return MethodDecl(member_type, name.text, name.span, params, body, member_type.span)
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
            params.append(VarDecl(param_type, name.text, name.span, None, param_type.span))
        self.expect(")")
        return params

    def _declarator(self, var_type: TypeName, name: Token) -> VarDecl:
        init = None
        if self.at("="):
            self.advance()
            init = self._expression()
        return VarDecl(var_type, name.text, name.span, init, var_type.span)

    def _type_name(self) -> TypeName:
        token = self.peek()
        if token.kind == "kw" and token.text in PRIMITIVES:
            self.advance()
            name = TypeName(token.text, token.span)
        elif token.kind == "ident":
            name = TypeName(*self._qualified_name())
        else:
            raise self.error("expected a type name", expected={"<type>"})
        self._reject_type_suffix()
        return name

    def _qualified_name(self) -> tuple[str, Span]:
        first = self.expect_ident("a type name")
        parts = [first.text]
        last = first
        while self.at(".") and self.tokens[self.pos + 1].kind == "ident":  # a "." is never last
            self.advance()
            last = self.advance()
            parts.append(last.text)
        span = Span(first.line, first.col, last.line, last.col + len(last.text))
        return ".".join(parts), span

    def _reject_type_suffix(self) -> None:
        if self.at("<"):
            raise self.error("generic types are not supported")
        if self.at("["):
            raise self.error("array types are not supported")

    # -- statements --

    def _block(self) -> Block:
        start = self.expect("{")
        self.nest(start)
        statements = []
        while not self.at("}"):
            if self.peek().kind == "eof":
                raise self.error("unexpected end of block", expected={"}"})
            statements.append(self._statement())
        self.expect("}")
        self.depth -= 1
        return Block(statements, start.span)

    def _statement(self):
        token = self.peek()
        if self.at("{"):
            return self._block()
        if self.at(";"):
            return EmptyStmt(self.advance().span)
        if token.kind == "kw":
            if token.text == "if":
                return self._if_stmt()
            if token.text == "while":
                return self._while_stmt()
            if token.text == "for":
                return self._for_stmt()
            if token.text == "return":
                self.advance()
                value = None if self.at(";") else self._expression()
                self.expect(";")
                return ReturnStmt(value, token.span)
            if token.text in ("class", "import"):
                raise self.error("declarations are not allowed inside a snippet body")
            if token.text not in PRIMITIVES and token.text not in ("new", "true", "false", "null"):
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
        token = self.peek()
        if token.kind != "ident":
            return token.kind == "kw" and token.text in PRIMITIVES
        save = self.pos
        self._qualified_name()
        self._reject_type_suffix()
        found = self.peek().kind == "ident"
        self.pos = save
        return found

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
            rungs.append((cond, self._statement(), start.span))
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
        return WhileStmt(cond, body, start.span)

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
        return ForStmt(init, cond, update, body, start.span)

    # -- expressions --

    def _expression(self):
        expr = self._binary(0)
        if self.at("->"):
            raise self.error("lambdas are not supported")
        return expr

    def _binary(self, floor: int):
        """Unary operands joined by operators of level *floor* or above."""
        left = self._unary()
        while True:
            op = self.tokens[self.pos]
            level = _LEVELS.get(op.text, -1)  # only punctuation spells an operator
            if level < floor:
                return left
            self.pos += 1
            left = Binary(op.text, left, self._binary(level + 1), op.span)

    def _unary(self):
        """A prefix operator and its operand, or a primary with its member suffixes."""
        token = self.tokens[self.pos]
        if token.kind == "punct" and token.text in ("!", "-"):
            self.pos += 1
            self.nest(token)
            operand = self._unary()
            self.depth -= 1
            return Unary(token.text, operand, token.span)
        expr = self._primary()
        while self.at("."):
            self.advance()
            name = self.expect_ident("a member name")
            if self.at("("):
                args = self._arguments()
                expr = MethodCall(expr, name.text, args, name.span)
            else:
                expr = FieldAccess(expr, name.text, name.span)
        return expr

    def _primary(self):
        token = self.tokens[self.pos]
        if token.kind in ("int", "long", "double", "string", "char"):
            self.advance()
            return Literal(token.kind, token.text, token.span)
        if token.kind == "kw":
            if token.text in ("true", "false", "null"):
                self.advance()
                return Literal("null" if token.text == "null" else "boolean", token.text, token.span)
            if token.text == "new":
                self.advance()
                new_type = self._type_name()
                if new_type.text in PRIMITIVES:
                    raise JavaSyntaxError(
                        "cannot instantiate a primitive type",
                        new_type.span.line,
                        new_type.span.col,
                    )
                args = self._arguments()
                return NewExpr(new_type, args, new_type.span)
        if token.kind == "ident":
            self.advance()
            if self.at("("):
                args = self._arguments()
                return MethodCall(None, token.text, args, token.span)
            return Identifier(token.text, token.span)
        if self.at("("):
            self.nest(self.advance())
            expr = self._expression()
            self.expect(")")
            self.depth -= 1
            return expr
        if self.at("@"):
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


def parse_unit(source: str | list[Token]) -> CompilationUnit:
    return _Parser(source).parse_unit()


def parse_statements(source: str | list[Token]) -> list:
    return _Parser(source).parse_statements()


# -- snippets ------------------------------------------------------------------


class Origin(Enum):
    FREESTANDING = "freestanding"  # already a full compilation unit
    WRAPPED = "wrapped"  # bare statements, wrapped in a synthetic class


@dataclass(frozen=True)
class Snippet:
    """A snippet's text, how it was read, and the unit parsed from it.

    Equality and hashing look at ``source`` and ``origin`` only; ``unit``
    follows from them.
    """

    source: str
    origin: Origin
    unit: CompilationUnit = field(compare=False, repr=False)


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
    first = tokens[0]
    if not allow_wrap or (first.kind == "kw" and first.text in _UNIT_START):
        return Snippet(source, Origin.FREESTANDING, parse_unit(tokens))
    body = Block(parse_statements(tokens), _ZERO)
    run = MethodDecl(TypeName("void", _ZERO), "__run", _ZERO, [], body, _ZERO)
    holder = ClassDecl("__Snippet", None, [run], _ZERO)
    return Snippet(source, Origin.WRAPPED, CompilationUnit([], [holder]))


def parse(snippet: Snippet) -> CompilationUnit:
    """AST of a snippet: the unit `wrap` parsed, synthetic holder included."""
    return snippet.unit
