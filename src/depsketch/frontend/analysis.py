"""Partial type inference and sketch extraction.

Every identifier occurrence gets a type reference: either a resolved FQN
(imports, ``java.lang`` defaults, fully qualified names, primitives, string
literals) or a hole.  Holes for simple type names are interned per name, so
the declaration ``Pattern p`` and a later static receiver ``Pattern.``
share one unknown.  Call and field-access results are fresh anonymous holes.

Sketch emission rules:

* a type name occurrence or a variable declaration/usage adds to a type
  sketch (``pkg.Name`` when resolved, ``?.Name`` when interned),
* a call adds a method sketch with argument renders and a ``?`` return,
* a member access off a value or type adds a field sketch with ``?`` type,
* declaration names, imports, primitives, and locally declared classes add
  nothing.

Sketches merge by their fields, which is by rendered text, keeping
first-occurrence order.
"""

from __future__ import annotations

from ..model import (
    JAVA_LANG_TYPES,
    PRIMITIVES,
    DepsketchError,
    EntryKind,
    Record,
    Sketch,
    Span,
    collector_paused,
)
from . import parser as ast
from .parser import Snippet, parse, wrap


class AnalysisError(DepsketchError):
    """A name the analysis cannot make sense of."""

    def __init__(self, message: str, span: Span):
        super().__init__(f"{span.line}:{span.col}: {message}")
        self.reason = message
        self.span = span


class TypeRef(Record):
    """What the analysis knows about one expression's type; immutable.

    A hole has no ``fqn``.  ``type_name`` carries the written simple name
    of an interned hole; anonymous holes are the one `_HOLE`.  ``local``
    marks types declared inside the snippet itself, which never become
    sketches.
    """

    __slots__ = ("fqn", "type_name", "local")
    __setattr__ = __delattr__ = Record._read_only
    __hash__ = Record._hash

    def __init__(
        self, fqn: str | None = None, type_name: str | None = None, local: bool = False
    ) -> None:
        _set = object.__setattr__
        _set(self, "fqn", fqn)
        _set(self, "type_name", type_name)
        _set(self, "local", local)

    def render(self) -> str:
        return "?" if self.fqn is None else self.fqn


class Analysis(Record):
    """``imports`` maps each imported simple name to its FQN."""

    __slots__ = ("sketches", "imports", "local_types")


_HOLE = TypeRef()
_BOOLEAN = TypeRef(fqn="boolean")
_STRING = TypeRef(fqn="java.lang.String")
_LITERALS = {
    "null": _HOLE,
    "string": _STRING,
    "int": TypeRef(fqn="int"),
    "long": TypeRef(fqn="long"),
    "double": TypeRef(fqn="double"),
    "boolean": _BOOLEAN,
    "char": TypeRef(fqn="char"),
}


class _Analyzer:
    def __init__(self) -> None:
        self.imports: dict[str, str] = {}
        self.local_types: list[str] = []
        self.sketches: dict[tuple, Sketch] = {}
        self._named_holes: dict[str, TypeRef] = {}
        self._scopes: list[dict[str, TypeRef]] = []

    # -- plumbing --

    def _named_hole(self, name: str) -> TypeRef:
        if name not in self._named_holes:
            self._named_holes[name] = TypeRef(type_name=name)
        return self._named_holes[name]

    def _lookup(self, name: str) -> TypeRef | None:
        for scope in reversed(self._scopes):
            if name in scope:
                return scope[name]
        return None

    def _declare(self, name: str, ref: TypeRef, span: Span) -> None:
        if name in self._scopes[-1]:
            raise AnalysisError(f"duplicate variable {name!r}", span)
        self._scopes[-1][name] = ref
        self._emit_type(ref, span)

    def _sketch(self, span: Span, *fields) -> None:
        """Add *span* to the sketch with these leading `Sketch` fields.

        The fields are the key, so the sketch is built on its first
        occurrence only.
        """
        sketch = self.sketches.get(fields)
        if sketch is None:
            sketch = self.sketches[fields] = Sketch(*fields)
        sketch.occurrences.append(span)

    def _emit_type(self, ref: TypeRef, span: Span) -> None:
        # Anonymous holes, primitives and local classes (all dotless) add nothing.
        if ref.fqn is None:
            if ref.type_name is not None:
                self._sketch(span, EntryKind.TYPE, "?", ref.type_name)
        elif "." in ref.fqn:
            owner, name = ref.fqn.rsplit(".", 1)
            self._sketch(span, EntryKind.TYPE, owner, name)

    def _emit_call(self, owner: TypeRef, name: str, args: list[TypeRef], span: Span) -> TypeRef:
        if not owner.local:
            params = tuple(ref.render() for ref in args)
            self._sketch(span, EntryKind.METHOD, owner.render(), name, params, "?")
        return _HOLE

    def _emit_field(self, owner: TypeRef, name: str, span: Span) -> TypeRef:
        if not owner.local:
            self._sketch(span, EntryKind.FIELD, owner.render(), name, (), "", "?")
        return _HOLE

    # -- type positions --

    def _simple_type_ref(self, name: str, span: Span) -> TypeRef:
        if name in self.local_types:
            return TypeRef(fqn=name, local=True)
        if name in self.imports:
            ref = TypeRef(fqn=self.imports[name])
        elif name in JAVA_LANG_TYPES:
            ref = TypeRef(fqn=f"java.lang.{name}")
        else:
            ref = self._named_hole(name)
        self._emit_type(ref, span)
        return ref

    def _type_ref(self, name: ast.TypeName) -> TypeRef:
        if name.text in PRIMITIVES or "." in name.text:
            ref = TypeRef(fqn=name.text)
            self._emit_type(ref, name.span)
            return ref
        return self._simple_type_ref(name.text, name.span)

    # -- declarations --

    def run(self, unit: ast.CompilationUnit) -> Analysis:
        for imp in unit.imports:
            simple = imp.fqn.rsplit(".", 1)[1]
            if self.imports.get(simple, imp.fqn) != imp.fqn:
                raise AnalysisError(
                    f"conflicting imports for simple name {simple!r}", imp.span
                )
            self.imports[simple] = imp.fqn
        for cls in unit.classes:
            if cls.name in self.local_types:
                raise AnalysisError(f"duplicate class {cls.name!r}", cls.span)
            self.local_types.append(cls.name)
        for cls in unit.classes:
            self._class(cls)
        return Analysis(list(self.sketches.values()), dict(self.imports), list(self.local_types))

    def _class(self, cls: ast.ClassDecl) -> None:
        if cls.extends is not None:
            self._type_ref(cls.extends)
        # Every field is in scope before any initializer runs.
        self._scopes.append({})
        for member in cls.fields:
            self._declare(member.name, self._type_ref(member.var_type), member.name_span)
        for member in cls.members:
            if isinstance(member, ast.MethodDecl):
                self._method(member)
            elif member.init is not None:
                self._eval(member.init)
        self._scopes.pop()

    def _method(self, method: ast.MethodDecl) -> None:
        # Parameters are declarations without an initializer, in the body's scope.
        self._type_ref(method.return_type)
        self._scopes.append({})
        for stmt in (*method.params, *method.body.statements):
            self._stmt(stmt)
        self._scopes.pop()

    # -- statements --

    def _stmt(self, stmt: object) -> None:
        if isinstance(stmt, ast.Block):
            self._scopes.append({})
            for inner in stmt.statements:
                self._stmt(inner)
            self._scopes.pop()
        elif isinstance(stmt, ast.VarDecl):
            ref = self._type_ref(stmt.var_type)
            if stmt.init is not None:
                self._eval(stmt.init)
            self._declare(stmt.name, ref, stmt.name_span)
        elif isinstance(stmt, ast.AssignStmt):
            self._eval(stmt.target)
            self._eval(stmt.value)
        elif isinstance(stmt, ast.ExprStmt):
            self._eval(stmt.expr)
        elif isinstance(stmt, ast.ReturnStmt):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, ast.IfStmt):
            # Walk an `else if` ladder with a loop, as the parser reads it.
            while isinstance(stmt, ast.IfStmt):
                self._eval(stmt.cond)
                self._stmt(stmt.then_branch)
                stmt = stmt.else_branch
            if stmt is not None:
                self._stmt(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._eval(stmt.cond)
            self._stmt(stmt.body)
        elif isinstance(stmt, ast.ForStmt):
            self._scopes.append({})
            if stmt.init is not None:
                self._stmt(stmt.init)
            if stmt.cond is not None:
                self._eval(stmt.cond)
            if stmt.update is not None:
                self._stmt(stmt.update)
            self._stmt(stmt.body)
            self._scopes.pop()
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:  # pragma: no cover - parser produces nothing else
            raise AnalysisError(f"unsupported statement {type(stmt).__name__}", _span_of(stmt))

    # -- expressions --

    def _eval(self, expr: object) -> TypeRef:
        if isinstance(expr, ast.Literal):
            return _LITERALS[expr.kind]
        if isinstance(expr, ast.Identifier):
            ref = self._lookup(expr.name)
            if ref is None:
                raise AnalysisError(f"undeclared identifier {expr.name!r}", expr.span)
            self._emit_type(ref, expr.span)
            return ref
        if isinstance(expr, ast.Unary):
            ref = self._eval(expr.operand)
            return _BOOLEAN if expr.op == "!" else ref
        if isinstance(expr, ast.Binary):
            # Walk the left spine with a loop: the parser builds `a + b + c`
            # as a left-nested chain of any length.
            spine = []
            while isinstance(expr, ast.Binary):
                spine.append(expr)
                expr = expr.left
            ref = self._eval(expr)
            for node in reversed(spine):
                ref = self._binary(node.op, ref, self._eval(node.right))
            return ref
        if isinstance(expr, ast.NewExpr):
            ref = self._type_ref(expr.new_type)
            for arg in expr.args:
                self._eval(arg)
            return ref
        if isinstance(expr, (ast.FieldAccess, ast.MethodCall)):
            return self._chain(expr)
        raise AnalysisError(  # pragma: no cover - parser produces nothing else
            f"unsupported expression {type(expr).__name__}", _span_of(expr)
        )

    def _binary(self, op: str, left: TypeRef, right: TypeRef) -> TypeRef:
        if op in ("==", "!=", "<", ">", "<=", ">=", "&&", "||"):
            return _BOOLEAN
        if op == "+" and _STRING.fqn in (left.fqn, right.fqn):
            return _STRING
        if left.fqn in PRIMITIVES:
            return left
        if right.fqn in PRIMITIVES:
            return right
        return _HOLE

    def _chain(self, expr: ast.FieldAccess | ast.MethodCall) -> TypeRef:
        """A receiver chain of calls and field accesses, evaluated from its base up.

        The links are collected with a loop, so a chain of any length costs
        no recursion.  Field accesses directly over a name that is not a
        variable spell a dotted type (see `_dotted_ref`).
        """
        links = []
        base = expr
        while isinstance(base, (ast.FieldAccess, ast.MethodCall)) and base.receiver is not None:
            links.append(base)
            base = base.receiver
        if isinstance(base, ast.MethodCall):  # a bare call like run()
            args = [self._eval(arg) for arg in base.args]
            ref = self._emit_call(_HOLE, base.name, args, base.span)
        elif isinstance(base, ast.Identifier):
            ref = self._lookup(base.name)
            if ref is not None:
                self._emit_type(ref, base.span)
            elif isinstance(links[-1], ast.MethodCall):
                ref = self._simple_type_ref(base.name, base.span)
            else:
                parts = [(base.name, base.span)]
                while links and isinstance(links[-1], ast.FieldAccess):
                    link = links.pop()
                    parts.append((link.name, link.span))
                ref = self._dotted_ref(parts)
        else:
            ref = self._eval(base)
        for link in reversed(links):
            if isinstance(link, ast.FieldAccess):
                ref = self._emit_field(ref, link.name, link.span)
            else:
                args = [self._eval(arg) for arg in link.args]
                ref = self._emit_call(ref, link.name, args, link.span)
        return ref

    def _dotted_ref(self, parts: list[tuple[str, Span]]) -> TypeRef:
        # A dotted chain with no variable at its base names a type, then
        # member accesses.  The type ends at the first capitalized segment; a
        # chain with no capitalized segment is taken as one qualified type.
        split = len(parts) - 1
        for index, (name, _) in enumerate(parts):
            if name[0].isupper():
                split = index
                break
        type_parts = parts[: split + 1]
        if len(type_parts) == 1:
            ref = self._simple_type_ref(*type_parts[0])
        else:
            first, last = type_parts[0][1], type_parts[-1][1]
            span = Span(first.line, first.col, last.end_line, last.end_col)
            ref = TypeRef(fqn=".".join(name for name, _ in type_parts))
            self._emit_type(ref, span)
        for name, span in parts[split + 1 :]:
            ref = self._emit_field(ref, name, span)
        return ref


def _span_of(node: object) -> Span:
    return getattr(node, "span", Span(1, 1, 1, 1))


def analyze(unit: ast.CompilationUnit) -> Analysis:
    """Infer type references across *unit* and collect its sketches."""
    return _Analyzer().run(unit)


def sketch_source(source: str, allow_wrap: bool = True) -> tuple[Snippet, Analysis]:
    """Wrap (parsing the snippet once) and analyze in one step.

    The cyclic garbage collector is paused meanwhile (`collector_paused`).
    """
    # Tokens, trees, `TypeRef`s and sketches hold no reference cycles and
    # are freed by reference counting; running, the collector would only
    # re-scan the token list and the tree again and again as they grow.
    with collector_paused():
        snippet = wrap(source, allow_wrap=allow_wrap)
        return snippet, analyze(parse(snippet))
