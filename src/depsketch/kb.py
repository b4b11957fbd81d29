"""Knowledge base of API entries keyed for sketch lookup.

Built once from class listings and a ground-truth file of known coordinates,
then used read-only.  Persistence is a line-oriented dump with a version stamp
(``FQNKB v2``) so stale files fail loudly instead of quietly.  Its entry
lines are sorted by lookup key, so a loaded knowledge base parses one key's
section on the first `KnowledgeBase.lookup` that needs it, and the rest of
the dump only when something reads or changes every entry.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path

from .model import (
    LINE_END, Coordinate, DepsketchError, EntryKind, KbEntry, Sketch, collector_paused,
)

FORMAT_STAMP = "FQNKB v2"
_END_RE = re.compile(r"end ([0-9]+) ([0-9]+)")


class ListingError(DepsketchError):
    pass


class GroundTruthError(DepsketchError):
    pass


class KbLoadError(DepsketchError):
    pass


def read_utf8(
    name: str | Path, error: Callable[[str], DepsketchError], read: Callable[[], str] | None = None
) -> str:
    """The UTF-8 text of file *name*, or what *read* returns if given.

    Text that does not decode raises ``error("name:line: ...")`` instead of a
    bare codec error, so every reader names the input and the line, counted
    as `LINE_END` counts them.
    """
    try:
        return read() if read is not None else Path(name).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line_no = len(LINE_END.findall(exc.object[: exc.start].decode("utf-8"))) + 1
        raise error(
            f"{name}:{line_no}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


def _content_lines(
    path: str | Path, error: Callable[[str], DepsketchError]
) -> Iterator[tuple[int, str]]:
    """Number and stripped text of each line of *path* that is neither blank
    nor a ``#`` comment.  `read_utf8` has turned CR LF and a lone CR into LF,
    so lines end where `LINE_END` ends them.
    """
    for line_no, raw in enumerate(read_utf8(path, error).split("\n"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


class KnowledgeBase:
    """Entries, the indexes `lookup` needs, and the ground-truth coordinates.

    Single-writer while building; the coordinates are saved with the entries
    and filter every later ingest (see `filter_against_ground_truth`).

    A knowledge base from `load` starts with no entries parsed: ``entries``
    and the three indexes hold only the sections looked up so far.
    `stats`, `save`, `add_entry`, the ingests and the filter parse the rest
    first.
    """

    def __init__(self) -> None:
        self.entries: list[KbEntry] = []
        self.ground_truth: set[Coordinate] = set()
        self._seen: set[tuple[str, Coordinate]] = set()  # (rendered FQN, dep)
        self.by_simple_name: dict[str, list[KbEntry]] = {}
        self.by_method_key: dict[tuple[str, int], list[KbEntry]] = {}
        self.by_field_name: dict[str, list[KbEntry]] = {}
        # Section key -> its entries with their variable keys, sorted the
        # way `lookup` returns them, and one slot per signature position for
        # the index of that position's values (see `_value_rows`), built when
        # a lookup first writes the position; filled on first use, dropped on
        # change.
        self._sorted_buckets: dict[str, tuple[list, list]] = {}
        # What `load` left unparsed: the dump's sorted entry lines (empty once
        # every section is parsed or filed in `_sorted_buckets`), the parsed
        # ``dep=`` coordinates, and the dump's path for error messages.
        self._lines: list[str] = []
        self._coordinates: dict[str, Coordinate] = {}
        self._path: str | Path = ""

    # -- construction ------------------------------------------------------

    def add_entry(self, entry: KbEntry) -> bool:
        """Add one entry; returns False for a duplicate (same FQN + dep)."""
        self._parse_all()
        if not self._add(entry):
            return False
        if self._sorted_buckets:
            self._sorted_buckets.pop(section_key(entry), None)
        return True

    def _add(self, entry: KbEntry) -> bool:
        seen = self._seen
        size = len(seen)
        seen.add((entry.render(), entry.dep))  # add, then compare sizes: one hash
        if len(seen) == size:
            return False
        self._file(entry)
        return True

    def _file(self, entry: KbEntry) -> None:
        """List *entry* and index it; `_seen` must already hold it."""
        self.entries.append(entry)
        index, key = self._index(entry)
        index.setdefault(key, []).append(entry)

    def _index(self, item: KbEntry | Sketch) -> tuple[dict, object]:
        """The index holding *item*'s bucket, and the bucket's key in it."""
        if item.kind is EntryKind.METHOD:
            return self.by_method_key, (item.name, len(item.params))
        index = self.by_simple_name if item.kind is EntryKind.TYPE else self.by_field_name
        return index, item.name

    def _reindex(self) -> None:
        entries = self.entries
        self.entries = []
        self.by_simple_name = {}
        self.by_method_key = {}
        self.by_field_name = {}
        self._seen = set()
        self._sorted_buckets = {}
        for entry in entries:
            self._add(entry)

    def ingest_class_listing(self, path: str | Path, dep: Coordinate) -> int:
        """Read ``T``/``M``/``F`` lines from *path*; returns entries added.

        Blank lines and ``#`` comments are skipped.  Duplicates of entries
        already present are skipped silently, which makes re-ingesting the
        same listing a no-op.  Nothing is added unless every line parses.
        """
        entries = []
        for line_no, line in _content_lines(path, ListingError):
            try:
                entries.append(KbEntry.from_listing(line, dep))
            except ValueError as exc:
                raise ListingError(f"{path}:{line_no}: {exc}") from exc
        added = 0
        for entry in entries:
            if self.add_entry(entry):
                added += 1
        return added

    def ingest_ground_truth(self, path: str | Path) -> int:
        """Read ``g:a:v -> g:a:v`` and ``g:a:v ->`` lines; returns the number
        of coordinates newly known.

        Every coordinate a line names, on either side, becomes known.
        Nothing is added unless every line parses.
        """
        named = set()
        for line_no, line in _content_lines(path, GroundTruthError):
            try:
                named.update(_ground_truth_coordinates(line))
            except ValueError as exc:
                raise GroundTruthError(f"{path}:{line_no}: {exc}") from exc
        size = len(self.ground_truth)
        self.ground_truth |= named
        return len(self.ground_truth) - size

    def filter_against_ground_truth(self) -> int:
        """Drop entries whose dependency version the ground truth contradicts.

        A version is known for (group, artifact) when that exact coordinate
        is known, that is, named on either side of a ground-truth line.
        Entries for artifacts the ground truth has never seen are kept, so
        without ground truth nothing is looked at.  Returns the number of
        entries removed; running it twice removes nothing the second time.
        """
        self._parse_all()
        if not self.ground_truth:
            return 0
        known: dict[tuple[str, str], set[str]] = {}
        for coordinate in self.ground_truth:
            known.setdefault((coordinate.group, coordinate.artifact), set()).add(
                coordinate.version
            )
        kept = []
        for entry in self.entries:
            versions = known.get((entry.dep.group, entry.dep.artifact))
            if versions is not None and entry.dep.version not in versions:
                continue
            kept.append(entry)
        removed = len(self.entries) - len(kept)
        if removed:
            self.entries = kept
            self._reindex()
        return removed

    # -- queries -----------------------------------------------------------

    def lookup(self, sketch: Sketch) -> list[tuple[KbEntry, str]]:
        """All entries matching *sketch*, with their variable keys, in a new list.

        The entries are those `model.matches` accepts, the rule's reference.
        The variable key is ``dep:provider-FQN``: the same dependency/type
        pair gets the same key no matter which sketch retrieved it, so one
        selection can cover a type sketch and the member sketches it serves.
        Results are sorted by key, then by entry FQN: each index bucket is
        sorted once, on its first lookup, and later lookups only filter it.
        A loaded dump's section for the bucket is parsed on that first lookup,
        with the cyclic garbage collector paused (`collector_paused`).

        The section key already fixes kind, name and arity, so the filter
        reads only the positions of `_signature` that *sketch* writes rather
        than leaves as ``?``.  The first lookup that writes a position
        indexes it, by the rows holding each value; a lookup reads the
        shortest of its positions' row lists and checks just those rows
        against its other positions: it reads only about the rows it returns.
        """
        section = section_key(sketch)
        signature = _signature(sketch)
        bucket = self._sorted_buckets.get(section)
        if bucket is None:
            # Entries and keys hold no reference cycles.
            with collector_paused():
                if self._lines:
                    self._parse_section(section)
                index, key = self._index(sketch)
                pool = [(entry, variable_key(entry)) for entry in index.get(key, ())]
                pool.sort(key=lambda pair: (pair[1], pair[0].render()))
                bucket = (pool, [None] * len(signature))
                # only now: a failed section fails on every read
                self._sorted_buckets[section] = bucket
        pool, indexes = bucket
        written = [pair for pair in enumerate(signature) if pair[1] != "?"]
        if not written:
            return pool.copy()
        row_lists = []
        for at, want in written:
            rows_of = indexes[at]
            if rows_of is None:
                rows_of = indexes[at] = _value_rows(pool, at)
            row_lists.append(rows_of.get(want, ()))
        rows = start = min(row_lists, key=len)
        if len(start) == len(pool):
            return pool.copy()  # every written position holds its value in every row
        for (at, want), other in zip(written, row_lists):
            if other is not start:  # the start list's rows hold its own value
                rows = [row for row in rows if _signature(pool[row][0])[at] == want]
        return list(map(pool.__getitem__, rows))

    def stats(self) -> dict[str, int]:
        self._parse_all()
        counts = {kind: 0 for kind in EntryKind}
        for entry in self.entries:
            counts[entry.kind] += 1
        return {
            "entries": len(self.entries),
            "types": counts[EntryKind.TYPE],
            "methods": counts[EntryKind.METHOD],
            "fields": counts[EntryKind.FIELD],
            "dependencies": len({entry.dep for entry in self.entries}),
        }

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a deterministic dump: identical content, identical bytes.

        Each entry line is ``<section key> dep=g:a:v <listing line>``, and
        the lines are sorted, so each section's lines are contiguous (see
        `section_key`).
        """
        self._parse_all()
        entry_lines = sorted(
            f"{section_key(entry)} dep={entry.dep.render()} {entry.listing_line()}"
            for entry in self.entries
        )
        gt_lines = [f"gt {coordinate.render()} ->" for coordinate in sorted(self.ground_truth)]
        end = f"end {len(entry_lines)} {len(gt_lines)}"
        with open(path, "w", encoding="utf-8") as out:  # by line: the dump is never one string
            out.writelines(f"{line}\n" for line in (FORMAT_STAMP, *entry_lines, *gt_lines, end))

    @classmethod
    def load(cls, path: str | Path) -> KnowledgeBase:
        """Read a dump written by `save`, checking its layout.

        The stamp, the end marker's counts, the order of the entry lines and
        every ground-truth line are checked here.  No entry is parsed: each
        section gets the full check, the listing grammar of
        `KbEntry.from_listing` included, when it is first parsed (see
        `lookup`), and `stats` parses them all.
        """
        lines = read_utf8(path, KbLoadError).split("\n")  # as `_content_lines` splits
        if not lines[-1]:
            lines.pop()  # what follows the last LF
        if not lines or lines[0] != FORMAT_STAMP:
            found = lines[0] if lines else "<empty file>"
            hint = ""
            if found.startswith("FQNKB "):
                hint = "; delete it and rebuild it from its listings with `depsketch ingest`"
            raise KbLoadError(f"{path}:1: expected header {FORMAT_STAMP!r}, found {found!r}{hint}")
        if not lines[-1].startswith("end "):
            raise KbLoadError(f"{path}:{len(lines)}: missing end marker, file looks truncated")
        counts = _END_RE.fullmatch(lines[-1])
        if counts is None or int(counts[1]) + int(counts[2]) != len(lines) - 2:
            raise KbLoadError(
                f"{path}:{len(lines)}: end marker {lines[-1]!r} does not match body, "
                "file looks truncated"
            )
        gt_start = 1 + int(counts[1])
        block = lines[1:gt_start]
        if block != sorted(block):
            first = next(i for i in range(1, len(block)) if block[i] < block[i - 1])
            raise KbLoadError(f"{path}:{first + 2}: entry line out of order, dump not sorted")
        kb = cls()
        for line_no, line in enumerate(lines[gt_start:-1], start=gt_start + 1):
            if not line.startswith("gt "):
                raise KbLoadError(f"{path}:{line_no}: unrecognized line {line!r}")
            try:
                kb.ground_truth.update(_ground_truth_coordinates(line[3:]))
            except ValueError as exc:
                raise KbLoadError(f"{path}:{line_no}: {exc}") from exc
        kb._lines = block
        kb._path = path
        return kb

    def _parse_section(self, key: str) -> None:
        """Parse the dump lines filed under *key*.

        No key holds a space, and a space sorts below every character a key
        can continue with, so the section is the run of lines from the first
        one at or past ``key + " "`` up to the first one at or past
        ``key + "!"``.
        """
        lines = self._lines
        start = bisect_left(lines, key + " ")
        self._parse_lines(range(start, bisect_left(lines, key + "!", start)))

    def _parse_all(self) -> None:
        """Parse every line of the sections `lookup` has not filed."""
        if not self._lines:
            return
        parsed = self._sorted_buckets
        self._parse_lines(
            index
            for index, line in enumerate(self._lines)
            if line.partition(" dep=")[0] not in parsed
        )
        self._lines = []

    def _parse_lines(self, indexes: Iterable[int]) -> None:
        """Add the entries of the dump lines at *indexes* once every line has passed.

        Nothing is added when a line fails, so every later read of these
        lines fails at the same line for the same reason.
        """
        lines = self._lines
        coordinates = self._coordinates  # dep= text -> parsed, once per dump
        parsed: list[KbEntry] = []
        seen: set[tuple[str, Coordinate]] = set()
        for index in indexes:
            line = lines[index]
            key, sep, rest = line.partition(" dep=")
            if not sep:
                raise self._error(index, f"unrecognized line {line!r}")
            dep_text, _, listing = rest.partition(" ")
            try:
                dep = coordinates.get(dep_text)
                if dep is None:
                    dep = coordinates[dep_text] = Coordinate.parse(dep_text)
                entry = KbEntry.from_listing(listing, dep)
            except ValueError as exc:
                raise self._error(index, str(exc)) from exc
            if section_key(entry) != key:
                raise self._error(index, f"entry {listing!r} filed under key {key!r}")
            size = len(seen)
            seen.add((entry.render(), entry.dep))
            if len(seen) == size:
                raise self._error(index, f"duplicate entry {listing!r}")
            parsed.append(entry)
        self._seen |= seen  # no section parsed here was parsed before
        for entry in parsed:
            self._file(entry)

    def _error(self, index: int, reason: str) -> KbLoadError:
        return KbLoadError(f"{self._path}:{index + 2}: {reason}")  # entry lines follow the stamp


def _ground_truth_coordinates(line: str) -> tuple[Coordinate, ...]:
    """The coordinates ground-truth line *line* names: both of
    ``g:a:v -> g:a:v``, or the one of ``g:a:v ->``.  Any other line raises
    ValueError.
    """
    if line.count("->") != 1:
        raise ValueError(f"expected one '->' separator in {line!r}")
    left, _, right = line.partition("->")
    sides = (left, right) if right.strip() else (left,)
    return tuple(Coordinate.parse(side.strip()) for side in sides)


def section_key(item: KbEntry | Sketch) -> str:
    """Lookup bucket of *item*: ``T <simple>``, ``M <name>/<arity>`` or ``F <name>``.

    Dumps file each entry line under its entry's key.
    """
    if item.kind is EntryKind.METHOD:
        return f"M {item.name}/{len(item.params)}"
    return f"{item.kind.value} {item.name}"


def _value_rows(pool: list[tuple[KbEntry, str]], at: int) -> dict[str, list[int]]:
    """Each value at position *at* of the `_signature`s of *pool*'s entries,
    and the rows that hold it, in ascending order."""
    rows_of: dict[str, list[int]] = {}
    for row, (entry, _) in enumerate(pool):
        value = _signature(entry)[at]
        rows = rows_of.get(value)
        if rows is None:
            rows_of[value] = [row]
        else:
            rows.append(row)
    return rows_of


def _signature(item: KbEntry | Sketch) -> tuple[str, ...]:
    """What `model.matches` compares of *item* once kind, name and arity
    agree: ``(owner,)`` for a type, ``(owner, *params, returns)`` for a
    method and ``(owner, field_type)`` for a field.  A sketch writes ``?``
    where it leaves a position open.
    """
    if item.kind is EntryKind.METHOD:
        return (item.owner, *item.params, item.returns)
    if item.kind is EntryKind.FIELD:
        return (item.owner, item.field_type)
    return (item.owner,)


def variable_key(entry: KbEntry) -> str:
    """Solver variable of *entry*: ``dep:provider-FQN`` (see `KnowledgeBase.lookup`)."""
    return f"{entry.dep.render()}:{entry.provider_fqn}"
