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

import gc
import re
from enum import Enum
from functools import total_ordering


class DepsketchError(Exception):
    """Base class for every error this package raises on purpose."""


#: Java primitive type names (plus void).  These never need an import and
#: never produce a type sketch.
PRIMITIVES = frozenset(
    {"boolean", "byte", "char", "double", "float", "int", "long", "short", "void"}
)

#: Simple names usable without an import: the public top-level classes,
#: interfaces, enums, records, exceptions, errors and annotation types of
#: package ``java.lang`` as the Java SE 17 API documentation lists them.
#: Nested types (``Thread.State``) are not simple names.  A fixed list; there
#: is no classpath scanning behind it.
JAVA_LANG_TYPES = frozenset("""
    AbstractMethodError Appendable ArithmeticException ArrayIndexOutOfBoundsException
    ArrayStoreException AssertionError AutoCloseable Boolean BootstrapMethodError Byte
    CharSequence Character Class ClassCastException ClassCircularityError ClassFormatError
    ClassLoader ClassNotFoundException ClassValue CloneNotSupportedException Cloneable
    Comparable Compiler Deprecated Double Enum EnumConstantNotPresentException Error
    Exception ExceptionInInitializerError Float FunctionalInterface IllegalAccessError
    IllegalAccessException IllegalArgumentException IllegalCallerException
    IllegalMonitorStateException IllegalStateException IllegalThreadStateException
    IncompatibleClassChangeError IndexOutOfBoundsException InheritableThreadLocal
    InstantiationError InstantiationException Integer InternalError InterruptedException
    Iterable LayerInstantiationException LinkageError Long Math Module ModuleLayer
    NegativeArraySizeException NoClassDefFoundError NoSuchFieldError NoSuchFieldException
    NoSuchMethodError NoSuchMethodException NullPointerException Number
    NumberFormatException Object OutOfMemoryError Override Package Process ProcessBuilder
    ProcessHandle Readable Record ReflectiveOperationException Runnable Runtime
    RuntimeException RuntimePermission SafeVarargs SecurityException SecurityManager Short
    StackOverflowError StackTraceElement StackWalker StrictMath String
    StringBuffer StringBuilder StringIndexOutOfBoundsException SuppressWarnings System
    Thread ThreadDeath ThreadGroup ThreadLocal Throwable TypeNotPresentException
    UnknownError UnsatisfiedLinkError UnsupportedClassVersionError
    UnsupportedOperationException VerifyError VirtualMachineError Void
""".split())

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


class collector_paused:
    """Pause the cyclic garbage collector for a ``with`` block, if it was enabled.

    It is enabled again on the way out, also when the block raises.  For
    blocks that build many objects with no reference cycles, which
    reference counting frees: running, the collector would only re-scan
    them as they grow, and a full collection would walk the caller's whole
    heap.  The switch is one per process, so blocks in concurrent threads
    can change when collections run, never what a block returns.  Leaving
    the block allocates nothing, so a collection the pause put off runs at
    the caller's next allocation, not inside the exit.
    """

    __slots__ = ("enabled",)

    def __enter__(self) -> None:
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self.enabled:
            gc.enable()


def is_fqn(text: str) -> bool:
    """True if *text* is a dotted chain of identifiers (at least two segments)."""
    return _FQN_RE.fullmatch(text) is not None


class Record:
    """Base of the record classes: ``repr``, equality and pickling from ``__slots__``.

    A record lists its fields in ``__slots__``, and its ``__init__`` takes
    them in that order.  A record that stores its arguments and nothing
    else defines no ``__init__``: `__init_subclass__` compiles the one it
    would write by hand, so it builds an instance with the same bytecode.
    A record whose fields have defaults or checks writes its own.  Two
    records are equal when they are of one class and their fields are
    equal.  A record is unhashable unless it sets ``__hash__``, most often
    to `_hash`, which hashes its fields.  An immutable record sets
    ``__setattr__`` and ``__delattr__`` to `_read_only` and sets its fields
    through ``object.__setattr__``.
    """

    __slots__ = ()
    __hash__ = None  # type: ignore[assignment]

    def __init_subclass__(cls) -> None:
        fields = cls.__dict__.get("__slots__")
        if not fields or "__init__" in cls.__dict__:
            return
        if cls.__setattr__ is Record._read_only:
            body = ["_set = object.__setattr__", *[f"_set(self, {f!r}, {f})" for f in fields]]
        else:
            body = [f"self.{f} = {f}" for f in fields]
        namespace: dict = {}
        exec(f"def __init__(self, {', '.join(fields)}):\n    " + "\n    ".join(body), namespace)
        init = namespace["__init__"]
        init.__qualname__, init.__module__ = f"{cls.__qualname__}.__init__", cls.__module__
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def _read_only(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    def _hash(self) -> int:
        return hash(self._values())


@total_ordering
class Coordinate(Record):
    """Maven-style dependency coordinate ``group:artifact:version``.

    Immutable and hashable.  Coordinates order by group, then artifact,
    then version.  No part may hold ``->``, which separates the two
    coordinates of a ground-truth line.
    """

    __slots__ = ("group", "artifact", "version")
    __setattr__ = __delattr__ = Record._read_only

    def __init__(self, group: str, artifact: str, version: str) -> None:
        for label, value in (("group", group), ("artifact", artifact)):
            if not value or ":" in value or "->" in value or value.split() != [value]:
                raise ValueError(f"bad coordinate {label}: {value!r}")
        if "->" in version or not _VERSION_RE.fullmatch(version):
            raise ValueError(f"bad coordinate version: {version!r}")
        _set = object.__setattr__
        _set(self, "group", group)
        _set(self, "artifact", artifact)
        _set(self, "version", version)

    def _values(self) -> tuple[str, str, str]:
        return (self.group, self.artifact, self.version)

    def __hash__(self) -> int:
        # `Record._hash`'s value, without its call to `_values`: coordinates
        # key the dicts and sets of every covering problem.
        return hash((self.group, self.artifact, self.version))

    def __lt__(self, other: Coordinate) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() < other._values()

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
# the entry fields, each checked as ``KbEntry.__init__`` would check it.
_LISTING_RE = re.compile(
    rf"\s*(?:T\s+({_DOTTED})\.({_IDENT})(?:\s+<:\s+({_FQN}))?"  # groups 1-3
    rf"|M\s+({_DOTTED})\.({_IDENT})\(((?:{_TYPE}(?:,{_TYPE})*)?)\)({_TYPE})"  # 4-7
    rf"|F\s+({_DOTTED})\.({_IDENT}):({_TYPE}))\s*"  # 8-10
)


class KbEntry(Record):
    """One API element known to the knowledge base; immutable and hashable.

    ``owner`` is the declaring type's FQN for methods and fields, and the
    package for types, so ``owner + "." + name`` is always the entry FQN
    prefix used in rendering and matching.
    """

    __slots__ = ("kind", "owner", "name", "params", "returns", "field_type", "supertype", "dep")
    __setattr__ = __delattr__ = Record._read_only
    __hash__ = Record._hash

    def __init__(
        self,
        kind: EntryKind,
        owner: str,
        name: str,
        params: tuple[str, ...] = (),
        returns: str = "",
        field_type: str = "",
        supertype: str | None = None,
        dep: Coordinate | None = None,
    ) -> None:
        if dep is None:
            raise ValueError("entry needs a dependency coordinate")
        if not _DOTTED_RE.fullmatch(owner):
            raise ValueError(f"bad owner: {owner!r}")
        if not _IDENT_RE.fullmatch(name):
            raise ValueError(f"bad simple name: {name!r}")
        if kind is EntryKind.TYPE:
            if params or returns or field_type:
                raise ValueError("type entries carry no signature")
        elif kind is EntryKind.METHOD:
            if not returns:
                raise ValueError("method entries need a return type")
            bad = [t for t in params + (returns,) if not _TYPE_RE.fullmatch(t)]
            if bad:
                raise ValueError(f"bad type in signature: {bad[0]!r}")
            if field_type or supertype:
                raise ValueError("method entries carry no field type or supertype")
        else:
            if not _TYPE_RE.fullmatch(field_type):
                raise ValueError(f"bad field type: {field_type!r}")
            if params or returns or supertype:
                raise ValueError("field entries carry only a field type")
        if supertype is not None and not is_fqn(supertype):
            raise ValueError(f"bad supertype: {supertype!r}")
        _set = object.__setattr__
        _set(self, "kind", kind)
        _set(self, "owner", owner)
        _set(self, "name", name)
        _set(self, "params", params)
        _set(self, "returns", returns)
        _set(self, "field_type", field_type)
        _set(self, "supertype", supertype)
        _set(self, "dep", dep)

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

        ``_LISTING_RE`` checks every field that ``__init__`` checks, so a
        line it matches fills its entry's slots directly, through
        `_ListedEntry`.  A line it rejects is parsed again, step by step,
        only to say what is wrong with it.
        """
        match = _LISTING_RE.fullmatch(line)
        if match is None or dep is None:
            cls._parse_listing_stepwise(line, dep)
            raise ValueError(f"bad listing line: {line!r}")
        (t_owner, t_name, supertype,
         m_owner, m_name, params, returns,
         f_owner, f_name, field_type) = match.groups()  # one row per tag: T, M, F
        entry = object.__new__(_ListedEntry)
        if m_owner is not None:
            entry.kind, entry.owner, entry.name = EntryKind.METHOD, m_owner, m_name
            entry.params = tuple(params.split(",")) if params else ()
            entry.returns, entry.field_type, entry.supertype = returns, "", None
        elif f_owner is not None:
            entry.kind, entry.owner, entry.name = EntryKind.FIELD, f_owner, f_name
            entry.params, entry.returns = (), ""
            entry.field_type, entry.supertype = field_type, None
        else:
            entry.kind, entry.owner, entry.name = EntryKind.TYPE, t_owner, t_name
            entry.params, entry.returns = (), ""
            entry.field_type, entry.supertype = "", supertype
        entry.dep = dep
        entry.__class__ = KbEntry  # immutable from here on
        return entry

    @classmethod
    def _parse_listing_stepwise(cls, line: str, dep: Coordinate) -> KbEntry:
        # The reference parser: split, check each part, build through
        # __init__.  It names the first problem it finds.
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


class _ListedEntry(KbEntry):
    """A `KbEntry` whose slots take plain assignment.

    `KbEntry.from_listing` fills one, then makes it a `KbEntry`: plain
    stores cost about a third of ``object.__setattr__`` calls, and a listing
    line is parsed once per knowledge-base entry.
    """

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__  # both, or stores still call __setattr__


class Span(Record):
    """Half-open source region, 1-based lines and columns; never changed once made.

    Hashable, yet its fields take assignment, unlike an immutable
    `Record`'s, because the parser makes one per token it keeps and setting
    them through ``object.__setattr__`` costs about three times as much.
    """

    __slots__ = ("line", "col", "end_line", "end_col")
    __hash__ = Record._hash

    def _values(self) -> tuple[int, int, int, int]:
        return (self.line, self.col, self.end_line, self.end_col)

    def render(self) -> str:
        return f"{self.line}:{self.col}-{self.end_line}:{self.end_col}"


class Sketch(Record):
    """A partially known FQN with ``?`` holes, plus where it occurred."""

    __slots__ = ("kind", "owner", "name", "params", "returns", "field_type", "occurrences")

    def __init__(
        self,
        kind: EntryKind,
        owner: str,
        name: str,
        params: tuple[str, ...] = (),
        returns: str = "",
        field_type: str = "",
        occurrences: list[Span] | None = None,
    ) -> None:
        self.kind = kind
        self.owner = owner
        self.name = name
        self.params = params
        self.returns = returns
        self.field_type = field_type
        self.occurrences = [] if occurrences is None else occurrences  # a fresh list each

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
