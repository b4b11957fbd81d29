"""The record types' observable behaviour: repr, equality, hash, immutability.

Every AST node, ``Snippet``, and the model, analysis, solver and resolver
records are pinned here: ``repr`` text, equality with an equal instance, an
unequal one and a record of another class, hashing, assignment on the
immutable ones, pickling, and the defaults.  The expected texts, and the
files under ``tests/reprs/``, were recorded from the dataclass versions of
these classes, so the plain-class versions must reproduce them exactly.
"""

from __future__ import annotations

import copy
import importlib.util
import inspect
import pickle
from pathlib import Path

import pytest

import depsketch.cli  # noqa: F401  (loads every module that defines a record)
from depsketch.frontend import parser as ast
from depsketch.frontend.analysis import Analysis, TypeRef
from depsketch.frontend.parser import Origin, Snippet, wrap
from depsketch.model import Coordinate, EntryKind, KbEntry, Record, Sketch, Span
from depsketch.resolver import Binding, Resolution
from depsketch.solver import CoveringProblem, Model

ROOT = Path(__file__).resolve().parent.parent
REPRS = ROOT / "tests" / "reprs"

S1 = Span(1, 1, 1, 4)
S2 = Span(2, 5, 2, 9)
DEP = Coordinate("g", "a", "1")
ENTRY = KbEntry.from_listing("T a.b.C", DEP)


def _type(text: str = "int") -> ast.TypeName:
    return ast.TypeName(text, S1)


def _ident(name: str = "x") -> ast.Identifier:
    return ast.Identifier(name, S1)


def _lit(text: str = "1") -> ast.Literal:
    return ast.Literal("int", text, S1)


def _sketch(name: str = "C") -> Sketch:
    return Sketch(EntryKind.TYPE, "?", name)


def _resolution(cost: int = 1) -> Resolution:
    return Resolution(
        snippet=wrap("int x = 1;"),
        analysis=Analysis([], {}, []),
        sketches=[_sketch()],
        problem=CoveringProblem(1, [[0]]),
        variable_names=["g:a:1:a.b.C"],
        model=Model(frozenset({0}), cost),
        bindings=[Binding(_sketch(), ENTRY, "g:a:1:a.b.C")],
        imports=["a.b.C"],
        dependencies=["g:a:1"],
        builtins=[],
        unresolved=[],
        ambiguities=[],
    )


# name -> (make an instance, make an unequal instance of the same class)
CASES = {
    "TypeName": (lambda: _type(), lambda: ast.TypeName("int", S2)),
    "ImportDecl": (lambda: ast.ImportDecl("a.b.C", S1), lambda: ast.ImportDecl("a.b.D", S1)),
    "VarDecl": (
        lambda: ast.VarDecl(_type(), "x", S2, _lit(), S1),
        lambda: ast.VarDecl(_type(), "x", S2, None, S1),
    ),
    "Block": (lambda: ast.Block([ast.EmptyStmt(S1)], S1), lambda: ast.Block([], S1)),
    "MethodDecl": (
        lambda: ast.MethodDecl(_type("void"), "run", S2, [], ast.Block([], S1), S1),
        lambda: ast.MethodDecl(_type("void"), "go", S2, [], ast.Block([], S1), S1),
    ),
    "ClassDecl": (
        lambda: ast.ClassDecl("A", None, [], S1),
        lambda: ast.ClassDecl("A", _type("B"), [], S1),
    ),
    "CompilationUnit": (
        lambda: ast.CompilationUnit([], []),
        lambda: ast.CompilationUnit([], [], S1),
    ),
    "AssignStmt": (
        lambda: ast.AssignStmt(_ident(), _lit(), S1),
        lambda: ast.AssignStmt(_ident("y"), _lit(), S1),
    ),
    "ExprStmt": (lambda: ast.ExprStmt(_ident(), S1), lambda: ast.ExprStmt(_ident(), S2)),
    "ReturnStmt": (lambda: ast.ReturnStmt(None, S1), lambda: ast.ReturnStmt(_lit(), S1)),
    "IfStmt": (
        lambda: ast.IfStmt(_ident(), ast.EmptyStmt(S1), None, S1),
        lambda: ast.IfStmt(_ident(), ast.EmptyStmt(S1), ast.EmptyStmt(S2), S1),
    ),
    "WhileStmt": (
        lambda: ast.WhileStmt(_ident(), ast.EmptyStmt(S1), S1),
        lambda: ast.WhileStmt(_ident("y"), ast.EmptyStmt(S1), S1),
    ),
    "ForStmt": (
        lambda: ast.ForStmt(None, None, None, ast.EmptyStmt(S1), S1),
        lambda: ast.ForStmt(None, _ident(), None, ast.EmptyStmt(S1), S1),
    ),
    "EmptyStmt": (lambda: ast.EmptyStmt(S1), lambda: ast.EmptyStmt(S2)),
    "Identifier": (lambda: _ident(), lambda: _ident("y")),
    "FieldAccess": (
        lambda: ast.FieldAccess(_ident(), "f", S2),
        lambda: ast.FieldAccess(_ident(), "g", S2),
    ),
    "MethodCall": (
        lambda: ast.MethodCall(None, "run", [_lit()], S1),
        lambda: ast.MethodCall(_ident(), "run", [_lit()], S1),
    ),
    "NewExpr": (lambda: ast.NewExpr(_type("a.B"), [], S1), lambda: ast.NewExpr(_type("a.B"), [_lit()], S1)),
    "Literal": (lambda: _lit(), lambda: _lit("2")),
    "Unary": (lambda: ast.Unary("-", _lit(), S1), lambda: ast.Unary("!", _lit(), S1)),
    "Binary": (
        lambda: ast.Binary("+", _lit(), _lit("2"), S1),
        lambda: ast.Binary("*", _lit(), _lit("2"), S1),
    ),
    "Snippet": (lambda: wrap("int x = 1;"), lambda: wrap("int y = 1;")),
    "Coordinate": (lambda: Coordinate("g", "a", "1"), lambda: Coordinate("g", "a", "2")),
    "KbEntry": (
        lambda: KbEntry(EntryKind.TYPE, "a.b", "C", dep=DEP),
        lambda: KbEntry(EntryKind.TYPE, "a.b", "C", supertype="a.b.D", dep=DEP),
    ),
    "Sketch": (lambda: _sketch(), lambda: _sketch("D")),
    "TypeRef": (lambda: TypeRef(fqn="a.B"), lambda: TypeRef(type_name="B")),
    "Analysis": (
        lambda: Analysis([_sketch()], {"C": "a.b.C"}, ["Main"]),
        lambda: Analysis([], {"C": "a.b.C"}, ["Main"]),
    ),
    "CoveringProblem": (lambda: CoveringProblem(2, [[0, 1]]), lambda: CoveringProblem(2, [[0]])),
    "Model": (lambda: Model(frozenset({0}), 1), lambda: Model(frozenset({1}), 1)),
    "Binding": (
        lambda: Binding(_sketch(), ENTRY, "g:a:1:a.b.C"),
        lambda: Binding(_sketch(), ENTRY, "g:a:2:a.b.C"),
    ),
    "Resolution": (lambda: _resolution(), lambda: _resolution(2)),
}

# The hashable records -> the fields their hash covers, in order.
HASHED = {
    "Snippet": ("source", "origin"),
    "Coordinate": ("group", "artifact", "version"),
    "KbEntry": ("kind", "owner", "name", "params", "returns", "field_type", "supertype", "dep"),
    "TypeRef": ("fqn", "type_name", "local"),
    "CoveringProblem": ("num_vars", "clauses", "weights", "forced", "groups"),
    "Model": ("true_vars", "cost"),
}
# Immutable, but it holds an unhashable Sketch, so hashing it fails.
FROZEN = (*HASHED, "Binding")

SPAN1 = "Span(line=1, col=1, end_line=1, end_col=4)"
SPAN2 = "Span(line=2, col=5, end_line=2, end_col=9)"
LIT = f"Literal(kind='int', text='1', span={SPAN1})"
IDENT = f"Identifier(name='x', span={SPAN1})"
EMPTY = f"EmptyStmt(span={SPAN1})"
SKETCH = (
    "Sketch(kind=<EntryKind.TYPE: 'T'>, owner='?', name='C', params=(), returns='', "
    "field_type='', occurrences=[])"
)
ENTRY_REPR = (
    "KbEntry(kind=<EntryKind.TYPE: 'T'>, owner='a.b', name='C', params=(), returns='', "
    "field_type='', supertype=None, dep=Coordinate(group='g', artifact='a', version='1'))"
)
REPR = {
    "TypeName": f"TypeName(text='int', span={SPAN1})",
    "ImportDecl": f"ImportDecl(fqn='a.b.C', span={SPAN1})",
    "VarDecl": (
        f"VarDecl(var_type=TypeName(text='int', span={SPAN1}), name='x', name_span={SPAN2}, "
        f"init={LIT}, span={SPAN1})"
    ),
    "Block": f"Block(statements=[{EMPTY}], span={SPAN1})",
    "MethodDecl": (
        f"MethodDecl(return_type=TypeName(text='void', span={SPAN1}), name='run', "
        f"name_span={SPAN2}, params=[], body=Block(statements=[], span={SPAN1}), span={SPAN1})"
    ),
    "ClassDecl": f"ClassDecl(name='A', extends=None, members=[], span={SPAN1})",
    "CompilationUnit": "CompilationUnit(imports=[], classes=[], package=None, body=None)",
    "AssignStmt": f"AssignStmt(target={IDENT}, value={LIT}, span={SPAN1})",
    "ExprStmt": f"ExprStmt(expr={IDENT}, span={SPAN1})",
    "ReturnStmt": f"ReturnStmt(value=None, span={SPAN1})",
    "IfStmt": f"IfStmt(cond={IDENT}, then_branch={EMPTY}, else_branch=None, span={SPAN1})",
    "WhileStmt": f"WhileStmt(cond={IDENT}, body={EMPTY}, span={SPAN1})",
    "ForStmt": f"ForStmt(init=None, cond=None, update=None, body={EMPTY}, span={SPAN1})",
    "EmptyStmt": EMPTY,
    "Identifier": IDENT,
    "FieldAccess": f"FieldAccess(receiver={IDENT}, name='f', span={SPAN2})",
    "MethodCall": f"MethodCall(receiver=None, name='run', args=[{LIT}], span={SPAN1})",
    "NewExpr": f"NewExpr(new_type=TypeName(text='a.B', span={SPAN1}), args=[], span={SPAN1})",
    "Literal": LIT,
    "Unary": f"Unary(op='-', operand={LIT}, span={SPAN1})",
    "Binary": (
        f"Binary(op='+', left={LIT}, right=Literal(kind='int', text='2', span={SPAN1}), "
        f"span={SPAN1})"
    ),
    "Snippet": "Snippet(source='int x = 1;', origin=<Origin.WRAPPED: 'wrapped'>)",
    "Coordinate": "Coordinate(group='g', artifact='a', version='1')",
    "KbEntry": ENTRY_REPR,
    "Sketch": SKETCH,
    "TypeRef": "TypeRef(fqn='a.B', type_name=None, local=False)",
    "Analysis": f"Analysis(sketches=[{SKETCH}], imports={{'C': 'a.b.C'}}, local_types=['Main'])",
    "CoveringProblem": (
        "CoveringProblem(num_vars=2, clauses=(frozenset({0, 1}),), weights=(1, 1), "
        "forced=frozenset(), groups=(0, 0))"
    ),
    "Model": "Model(true_vars=frozenset({0}), cost=1)",
    "Binding": f"Binding(sketch={SKETCH}, entry={ENTRY_REPR}, variable_key='g:a:1:a.b.C')",
}

NAMES = list(CASES)


def test_every_record_has_an_expected_repr():
    assert set(REPR) == set(NAMES) - {"Resolution"}


@pytest.mark.parametrize("name", sorted(REPR))
def test_repr(name):
    assert repr(CASES[name][0]()) == REPR[name]


def test_resolution_repr_lists_every_field_in_order():
    resolution = _resolution()
    fields = (
        "snippet", "analysis", "sketches", "problem", "variable_names", "model", "bindings",
        "imports", "dependencies", "builtins", "unresolved", "ambiguities",
    )
    expected = ", ".join(f"{field}={getattr(resolution, field)!r}" for field in fields)
    assert repr(resolution) == f"Resolution({expected})"


@pytest.mark.parametrize("name", NAMES)
def test_equality_needs_the_same_class_and_fields(name):
    make, make_other = CASES[name]
    record = make()
    assert record == make() and not record != make()
    assert record != make_other() and not record == make_other()
    different = CASES[NAMES[NAMES.index(name) - 1]][0]()  # a record of another class
    assert record.__eq__(different) is NotImplemented
    assert record != different
    assert record.__eq__(42) is NotImplemented


def test_records_with_equal_fields_but_different_classes_differ():
    assert _ident("x") != ast.TypeName("x", S1)
    assert ast.ExprStmt(_ident(), S1) != ast.ReturnStmt(_ident(), S1)


def test_snippet_equality_ignores_the_unit():
    snippet = wrap("int x = 1;")
    other_unit = Snippet(snippet.source, snippet.origin, ast.CompilationUnit([], []))
    assert snippet == other_unit
    assert hash(snippet) == hash(other_unit)
    assert snippet != Snippet(snippet.source, Origin.FREESTANDING, snippet.unit)
    assert "unit" not in repr(snippet)


@pytest.mark.parametrize("name", NAMES)
def test_hash(name):
    record = CASES[name][0]()
    if name in HASHED:
        assert hash(record) == hash(tuple(getattr(record, field) for field in HASHED[name]))
        assert len({record, CASES[name][0]()}) == 1
    else:
        with pytest.raises(TypeError):
            hash(record)
    if name not in FROZEN:
        assert type(record).__hash__ is None


@pytest.mark.parametrize("name", FROZEN)
def test_immutable_records_refuse_assignment(name):
    record = CASES[name][0]()
    field = "sketch" if name == "Binding" else HASHED[name][0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert record == CASES[name][0]()


@pytest.mark.parametrize("name", sorted(set(NAMES) - set(FROZEN)))
def test_mutable_records_take_assignment(name):
    record = CASES[name][0]()
    field = "snippet" if name == "Resolution" else REPR[name][len(name) + 1 :].split("=", 1)[0]
    value = getattr(record, field)
    setattr(record, field, value)
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_deepcopy_give_an_equal_record(name):
    record = CASES[name][0]()
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    assert copy.copy(record) == record


def _records(base: type = Record) -> list[type]:
    """Every subclass of *base*, at any depth, that lists fields of its own."""
    found = []
    for cls in base.__subclasses__():
        if cls.__dict__.get("__slots__"):
            found.append(cls)
        found += _records(cls)
    return found


RECORDS = _records()


def test_every_record_is_pinned_here():
    assert sorted(cls.__name__ for cls in RECORDS) == sorted([*CASES, "Span"])


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_constructor_takes_the_slots_in_order(cls):
    init = cls.__dict__["__init__"]
    params = list(inspect.signature(init).parameters.values())[1:]  # after self
    # __reduce__ rebuilds a record from its slot values in this order.
    assert tuple(param.name for param in params) == cls.__slots__
    assert {param.kind for param in params} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}
    assert init.__qualname__ == f"{cls.__qualname__}.__init__"
    assert init.__module__ == cls.__module__


class TestCoordinateOrder:
    def test_sorted_compares_group_then_artifact_then_version(self):
        texts = ["b:a:1", "a:b:1", "a:a:2", "a:a:1", "a:a:10", "a:a:1-SNAPSHOT"]
        ordered = sorted(Coordinate.parse(text) for text in texts)
        assert [c.render() for c in ordered] == [
            "a:a:1", "a:a:1-SNAPSHOT", "a:a:10", "a:a:2", "a:b:1", "b:a:1",
        ]

    def test_all_four_comparisons(self):
        low, high = Coordinate("a", "a", "1"), Coordinate("a", "a", "2")
        assert low < high and low <= high and high > low and high >= low
        assert low <= Coordinate("a", "a", "1") and low >= Coordinate("a", "a", "1")
        assert not (high < low or high <= low or low > high or low >= high)

    def test_no_order_against_other_types(self):
        with pytest.raises(TypeError):
            Coordinate("a", "a", "1") < ("a", "a", "1")


class TestDefaults:
    def test_sketch_occurrence_lists_are_not_shared(self):
        first, second = _sketch(), _sketch()
        first.occurrences.append(S1)
        assert second.occurrences == []
        assert Sketch(EntryKind.TYPE, "?", "C").occurrences == []

    def test_keyword_defaults(self):
        sketch = Sketch(EntryKind.METHOD, "?", "m")
        assert (sketch.params, sketch.returns, sketch.field_type) == ((), "", "")
        assert TypeRef() == TypeRef(None, None, False)
        unit = ast.CompilationUnit([], [])
        assert (unit.package, unit.body) == (None, None)

    def test_covering_problem_fills_weights_and_groups(self):
        problem = CoveringProblem(3, [[0, 1], [2]])
        assert problem.weights == (1, 1, 1) and problem.groups == (0, 0, 0)
        assert problem.forced == frozenset()

    def test_kb_entry_still_needs_a_dependency(self):
        with pytest.raises(ValueError, match="needs a dependency"):
            KbEntry(EntryKind.TYPE, "a.b", "C")

    def test_from_listing_builds_the_entry_the_constructor_builds(self):
        lines = {
            "T a.b.C <: a.b.D": KbEntry(EntryKind.TYPE, "a.b", "C", supertype="a.b.D", dep=DEP),
            "M a.b.C.m(int,a.b.D)void": KbEntry(
                EntryKind.METHOD, "a.b.C", "m", ("int", "a.b.D"), "void", dep=DEP
            ),
            "F a.b.C.f:int": KbEntry(EntryKind.FIELD, "a.b.C", "f", field_type="int", dep=DEP),
        }
        for line, entry in lines.items():
            parsed = KbEntry.from_listing(line, DEP)
            assert parsed == entry and hash(parsed) == hash(entry)
            assert repr(parsed) == repr(entry)
            assert type(parsed) is KbEntry
            with pytest.raises(AttributeError):
                parsed.name = "x"


def _golden_script():
    spec = importlib.util.spec_from_file_location("update_golden", ROOT / "scripts" / "update_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, source",
    [
        ("fixture-snippet-unit", lambda: (ROOT / "fixtures" / "snippet.java").read_text(encoding="utf-8")),
        ("operators-unit", lambda: _golden_script().OPERATORS),
    ],
)
def test_unit_repr_is_byte_equal_to_the_recorded_one(name, source):
    expected = (REPRS / f"{name}.txt").read_text(encoding="utf-8")
    assert repr(wrap(source()).unit) + "\n" == expected
