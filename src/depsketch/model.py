"""Shared data model: dependency coordinates, API entries, and FQN sketches.

Everything downstream (knowledge base, snippet analysis, resolution) trades in
three string shapes:

* type FQN       ``pkg.Simple``
* method FQN     ``owner.name(T1,...,Tn)Ret``
* field FQN      ``owner.name:Type``

A sketch is one of those shapes with ``?`` standing in for the parts local
analysis could not pin down.  ``matches`` defines when a knowledge-base entry
is an admissible completion of a sketch.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum


class DepsketchError(Exception):
    """Base class for every error this package raises on purpose."""


#: Java primitive type names (plus void).  These never need an import and
#: never produce a type sketch.
PRIMITIVES = frozenset(
    {"boolean", "byte", "char", "double", "float", "int", "long", "short", "void"}
)

#: Simple names usable without an import.  Deliberately a short, fixed list;
#: there is no classpath scanning behind it.
JAVA_LANG_TYPES = frozenset(
    {"String", "Object", "Integer", "Boolean", "Character", "Double", "Long"}
)

#: A line terminator (JLS 3.4); every line split or count on snippet text uses it.
LINE_END = re.compile(r"\r\n?|\n")

# Every pattern below is used with ``fullmatch``: ``$`` would also accept a
# trailing newline.
_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
_DOTTED = rf"{_IDENT}(?:\.{_IDENT})*"  # one or more segments: an owner
_FQN = rf"{_IDENT}(?:\.{_IDENT})+"  # two or more segments
# a parameter / return / field type: primitive or package-qualified FQN
# (primitives first: a literal fails at its first character, while the FQN
# branch would scan a whole primitive name before failing)
_TYPE = rf"(?:{'|'.join(sorted(PRIMITIVES))}|{_FQN})"

_IDENT_RE = re.compile(_IDENT)
_DOTTED_RE = re.compile(_DOTTED)
_FQN_RE = re.compile(_FQN)
_TYPE_RE = re.compile(_TYPE)
# numeric versions like 1.0 / 2.3.1-SNAPSHOT / 8, or a bare tag like java8
_VERSION_RE = re.compile(r"\d+(?:\.\d+)*(?:[-+][^\s:]+)?|[A-Za-z][A-Za-z0-9_.+-]*")


def is_fqn(text: str) -> bool:
    """True if *text* is a dotted chain of identifiers (at least two segments)."""
    return _FQN_RE.fullmatch(text) is not None


@dataclass(frozen=True, order=True)
class Coordinate:
    """Maven-style dependency coordinate ``group:artifact:version``."""

    group: str
    artifact: str
    version: str

    def __post_init__(self) -> None:
        for label, value in (("group", self.group), ("artifact", self.artifact)):
            if not value or ":" in value or value.split() != [value]:
                raise ValueError(f"bad coordinate {label}: {value!r}")
        if not _VERSION_RE.fullmatch(self.version):
            raise ValueError(f"bad coordinate version: {self.version!r}")

    @classmethod
    def parse(cls, text: str) -> Coordinate:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected group:artifact:version, got {text!r}")
        return cls(*parts)

    def render(self) -> str:
        return f"{self.group}:{self.artifact}:{self.version}"


class EntryKind(Enum):
    TYPE = "T"
    METHOD = "M"
    FIELD = "F"


# The class-listing line grammar: one alternative per tag, whose groups are
# the entry fields, each checked as ``KbEntry.__post_init__`` would check it.
_LISTING_RE = re.compile(
    rf"\s*(?:T\s+({_DOTTED})\.({_IDENT})(?:\s+<:\s+({_FQN}))?"  # groups 1-3
    rf"|M\s+({_DOTTED})\.({_IDENT})\(((?:{_TYPE}(?:,{_TYPE})*)?)\)({_TYPE})"  # 4-7
    rf"|F\s+({_DOTTED})\.({_IDENT}):({_TYPE}))\s*"  # 8-10
)


@dataclass(frozen=True)
class KbEntry:
    """One API element known to the knowledge base.

    ``owner`` is the declaring type's FQN for methods and fields, and the
    package for types, so ``owner + "." + name`` is always the entry FQN
    prefix used in rendering and matching.
    """

    kind: EntryKind
    owner: str
    name: str
    params: tuple[str, ...] = ()
    returns: str = ""
    field_type: str = ""
    supertype: str | None = None
    dep: Coordinate = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.dep is None:
            raise ValueError("entry needs a dependency coordinate")
        if not _DOTTED_RE.fullmatch(self.owner):
            raise ValueError(f"bad owner: {self.owner!r}")
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"bad simple name: {self.name!r}")
        if self.kind is EntryKind.TYPE:
            if self.params or self.returns or self.field_type:
                raise ValueError("type entries carry no signature")
        elif self.kind is EntryKind.METHOD:
            if not self.returns:
                raise ValueError("method entries need a return type")
            bad = [t for t in self.params + (self.returns,) if not _TYPE_RE.fullmatch(t)]
            if bad:
                raise ValueError(f"bad type in signature: {bad[0]!r}")
            if self.field_type or self.supertype:
                raise ValueError("method entries carry no field type or supertype")
        else:
            if not _TYPE_RE.fullmatch(self.field_type):
                raise ValueError(f"bad field type: {self.field_type!r}")
            if self.params or self.returns or self.supertype:
                raise ValueError("field entries carry only a field type")
        if self.supertype is not None and not is_fqn(self.supertype):
            raise ValueError(f"bad supertype: {self.supertype!r}")

    def render(self) -> str:
        """Full FQN of this entry (`Sketch.render` too, holes and all)."""
        if self.kind is EntryKind.TYPE:
            return f"{self.owner}.{self.name}"
        if self.kind is EntryKind.METHOD:
            return f"{self.owner}.{self.name}({','.join(self.params)}){self.returns}"
        return f"{self.owner}.{self.name}:{self.field_type}"

    @property
    def provider_fqn(self) -> str:
        """FQN of the type whose presence makes this entry available.

        For a type that is the type itself; for members it is the declaring
        type.  Selecting one provider covers the type sketch and every member
        sketch it satisfies, which is also exactly the import to emit.
        """
        if self.kind is EntryKind.TYPE:
            return self.render()
        return self.owner

    def listing_line(self) -> str:
        line = f"{self.kind.value} {self.render()}"
        if self.supertype is not None:
            line += f" <: {self.supertype}"
        return line

    @classmethod
    def from_listing(cls, line: str, dep: Coordinate) -> KbEntry:
        """Parse one class-listing line (``T``/``M``/``F`` form).

        ``_LISTING_RE`` checks every field that ``__post_init__`` checks, so
        a line it matches builds its entry directly.  A line it rejects is
        parsed again, step by step, only to say what is wrong with it.
        """
        match = _LISTING_RE.fullmatch(line)
        if match is None or dep is None:
            cls._parse_listing_stepwise(line, dep)
            raise ValueError(f"bad listing line: {line!r}")
        (t_owner, t_name, supertype,
         m_owner, m_name, params, returns,
         f_owner, f_name, field_type) = match.groups()  # one row per tag: T, M, F
        entry = object.__new__(cls)  # fields checked above; skip __post_init__
        if m_owner is not None:
            entry.__dict__.update(
                kind=EntryKind.METHOD, owner=m_owner, name=m_name,
                params=tuple(params.split(",")) if params else (), returns=returns,
                field_type="", supertype=None, dep=dep,
            )
        elif f_owner is not None:
            entry.__dict__.update(
                kind=EntryKind.FIELD, owner=f_owner, name=f_name, params=(), returns="",
                field_type=field_type, supertype=None, dep=dep,
            )
        else:
            entry.__dict__.update(
                kind=EntryKind.TYPE, owner=t_owner, name=t_name, params=(), returns="",
                field_type="", supertype=supertype, dep=dep,
            )
        return entry

    @classmethod
    def _parse_listing_stepwise(cls, line: str, dep: Coordinate) -> KbEntry:
        # The reference parser: split, check each part, build through
        # __post_init__.  It names the first problem it finds.
        tokens = line.split()
        if not tokens:
            raise ValueError("empty line")
        tag = tokens[0]
        if tag == "T":
            supertype = None
            if len(tokens) == 4 and tokens[2] == "<:":
                supertype = tokens[3]
            elif len(tokens) != 2:
                raise ValueError(f"bad type line: {line!r}")
            fqn = tokens[1]
            if not is_fqn(fqn):
                raise ValueError(f"type FQN must be package-qualified: {fqn!r}")
            owner, name = fqn.rsplit(".", 1)
            return cls(EntryKind.TYPE, owner, name, supertype=supertype, dep=dep)
        if tag == "M":
            if len(tokens) != 2:
                raise ValueError(f"bad method line: {line!r}")
            sig = tokens[1]
            if sig.count("(") != 1 or sig.count(")") != 1 or sig.find("(") > sig.find(")"):
                raise ValueError(f"mismatched parentheses in method FQN: {sig!r}")
            head, _, rest = sig.partition("(")
            param_text, _, returns = rest.partition(")")
            if "." not in head:
                raise ValueError(f"method FQN needs an owner type: {sig!r}")
            owner, name = head.rsplit(".", 1)
            params = tuple(p for p in param_text.split(",") if p) if param_text else ()
            if param_text and "" in param_text.split(","):
                raise ValueError(f"empty parameter type in {sig!r}")
            return cls(EntryKind.METHOD, owner, name, params, returns, dep=dep)
        if tag == "F":
            if len(tokens) != 2:
                raise ValueError(f"bad field line: {line!r}")
            sig = tokens[1]
            head, sep, ftype = sig.partition(":")
            if not sep:
                raise ValueError(f"field FQN needs a ':Type' suffix: {sig!r}")
            if "." not in head:
                raise ValueError(f"field FQN needs an owner type: {sig!r}")
            owner, name = head.rsplit(".", 1)
            return cls(EntryKind.FIELD, owner, name, field_type=ftype, dep=dep)
        raise ValueError(f"unknown entry tag {tag!r}")


class Span:
    """Half-open source region, 1-based lines and columns; never changed once made.

    A plain class rather than a frozen dataclass, because the parser makes
    one per token it keeps and the frozen ``__init__`` costs about three times
    as much.  ``repr``, equality and hash are those the dataclass had.
    """

    __slots__ = ("line", "col", "end_line", "end_col")

    def __init__(self, line: int, col: int, end_line: int, end_col: int) -> None:
        self.line = line
        self.col = col
        self.end_line = end_line
        self.end_col = end_col

    def _fields(self) -> tuple[int, int, int, int]:
        return (self.line, self.col, self.end_line, self.end_col)

    def __repr__(self) -> str:
        return f"Span(line={self.line}, col={self.col}, end_line={self.end_line}, end_col={self.end_col})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def render(self) -> str:
        return f"{self.line}:{self.col}-{self.end_line}:{self.end_col}"


@dataclass
class Sketch:
    """A partially known FQN with ``?`` holes, plus where it occurred."""

    kind: EntryKind
    owner: str
    name: str
    params: tuple[str, ...] = ()
    returns: str = ""
    field_type: str = ""
    occurrences: list[Span] = field(default_factory=list)

    render = KbEntry.render  # the same three FQN shapes, with ``?`` for holes

    @property
    def has_holes(self) -> bool:
        return (
            self.owner == "?"
            or "?" in self.params
            or self.returns == "?"
            or self.field_type == "?"
        )


def matches(sketch: Sketch, entry: KbEntry) -> bool:
    """Exact-match rule: ``?`` positions match anything, the rest literally.

    Simple names always compare exactly; method arity must agree.
    """
    if sketch.kind is not entry.kind or sketch.name != entry.name:
        return False
    if sketch.owner != "?" and sketch.owner != entry.owner:
        return False
    if sketch.kind is EntryKind.METHOD:
        if len(sketch.params) != len(entry.params):
            return False
        for want, have in zip(sketch.params, entry.params):
            if want != "?" and want != have:
                return False
        if sketch.returns != "?" and sketch.returns != entry.returns:
            return False
    elif sketch.kind is EntryKind.FIELD:
        if sketch.field_type != "?" and sketch.field_type != entry.field_type:
            return False
    return True
