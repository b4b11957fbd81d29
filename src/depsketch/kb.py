"""Knowledge base of API entries keyed for sketch lookup.

Built once from class listings and a ground-truth relation file, then used
read-only.  Persistence is a line-oriented dump with a version stamp
(``FQNKB v1``) so stale files fail loudly instead of quietly.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from .model import Coordinate, DepsketchError, EntryKind, KbEntry, Sketch, matches

FORMAT_STAMP = "FQNKB v1"


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
    bare codec error, so every reader names the input and the line.
    """
    try:
        return read() if read is not None else Path(name).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise error(
            f"{name}:{line_no}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc


class KnowledgeBase:
    """Entries, the indexes `lookup` needs, and the ground-truth relations.

    Single-writer while building; the relations are saved with the entries
    and filter every later ingest (see `filter_against_ground_truth`).
    """

    def __init__(self) -> None:
        self.entries: list[KbEntry] = []
        self.ground_truth: dict[Coordinate, set[Coordinate]] = {}
        self._seen: set[tuple[str, Coordinate]] = set()  # (rendered FQN, dep)
        self.by_simple_name: dict[str, list[KbEntry]] = {}
        self.by_method_key: dict[tuple[str, int], list[KbEntry]] = {}
        self.by_field_name: dict[str, list[KbEntry]] = {}
        # Index bucket -> its entries with their variable keys, sorted the
        # way `lookup` returns them; filled on first use, cleared on change.
        self._sorted_buckets: dict[tuple[EntryKind, object], list[tuple[KbEntry, str]]] = {}

    # -- construction ------------------------------------------------------

    def add_entry(self, entry: KbEntry) -> bool:
        """Add one entry; returns False for a duplicate (same FQN + dep)."""
        seen = self._seen
        size = len(seen)
        seen.add((entry.render(), entry.dep))  # add, then compare sizes: one hash
        if len(seen) == size:
            return False
        if self._sorted_buckets:
            self._sorted_buckets.clear()
        self.entries.append(entry)
        if entry.kind is EntryKind.TYPE:
            self.by_simple_name.setdefault(entry.name, []).append(entry)
        elif entry.kind is EntryKind.METHOD:
            key = (entry.name, len(entry.params))
            self.by_method_key.setdefault(key, []).append(entry)
        else:
            self.by_field_name.setdefault(entry.name, []).append(entry)
        return True

    def _reindex(self) -> None:
        entries = self.entries
        self.entries = []
        self.by_simple_name = {}
        self.by_method_key = {}
        self.by_field_name = {}
        self._seen = set()
        self._sorted_buckets = {}
        for entry in entries:
            self.add_entry(entry)

    def ingest_class_listing(self, path: str | Path, dep: Coordinate) -> int:
        """Read ``T``/``M``/``F`` lines from *path*; returns entries added.

        Blank lines and ``#`` comments are skipped.  Duplicates of entries
        already present are skipped silently, which makes re-ingesting the
        same listing a no-op.
        """
        added = 0
        text = read_utf8(path, ListingError)
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = KbEntry.from_listing(line, dep)
            except ValueError as exc:
                raise ListingError(f"{path}:{line_no}: {exc}") from exc
            if self.add_entry(entry):
                added += 1
        return added

    def ingest_ground_truth(self, path: str | Path) -> int:
        """Read ``g:a:v -> g2:a2:v2`` lines; returns new relations added.

        A line ``g:a:v ->`` registers the left coordinate with no relations.
        """
        added = 0
        text = read_utf8(path, GroundTruthError)
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.count("->") != 1:
                raise GroundTruthError(
                    f"{path}:{line_no}: expected one '->' separator in {line!r}"
                )
            left_text, _, right_text = line.partition("->")
            try:
                left = Coordinate.parse(left_text.strip())
                relations = self.ground_truth.setdefault(left, set())
                right_text = right_text.strip()
                if right_text:
                    right = Coordinate.parse(right_text)
                    if right not in relations:
                        relations.add(right)
                        added += 1
            except ValueError as exc:
                raise GroundTruthError(f"{path}:{line_no}: {exc}") from exc
        return added

    def filter_against_ground_truth(self) -> int:
        """Drop entries whose dependency version the ground truth contradicts.

        A version is known for (group, artifact) when that exact coordinate
        appears anywhere in the ground truth (as a key or inside a relation).
        Entries for artifacts the ground truth has never seen are kept, so
        without ground truth nothing is looked at.  Returns the number of
        entries removed; running it twice removes nothing the second time.
        """
        if not self.ground_truth:
            return 0
        known: dict[tuple[str, str], set[str]] = {}
        for key, values in self.ground_truth.items():
            for coordinate in (key, *values):
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
        """All entries matching *sketch*, with their variable keys.

        The variable key is ``dep:provider-FQN``: the same dependency/type
        pair gets the same key no matter which sketch retrieved it, so one
        selection can cover a type sketch and the member sketches it serves.
        Results are sorted by key, then by entry FQN: each index bucket is
        sorted once, on its first lookup, and later lookups only filter it.
        """
        kind = sketch.kind
        if kind is EntryKind.METHOD:
            index, key = self.by_method_key, (sketch.name, len(sketch.params))
        else:
            index = self.by_simple_name if kind is EntryKind.TYPE else self.by_field_name
            key = sketch.name
        pool = self._sorted_buckets.get((kind, key))
        if pool is None:
            pool = [(entry, variable_key(entry)) for entry in index.get(key, ())]
            pool.sort(key=lambda pair: (pair[1], pair[0].render()))
            self._sorted_buckets[kind, key] = pool
        return [pair for pair in pool if matches(sketch, pair[0])]

    def stats(self) -> dict[str, int]:
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

        The end marker's middle count is always 0.  Older ``FQNKB v1`` dumps
        counted project itemsets there; keeping the field keeps the layout,
        and every dump without itemsets, byte-identical.
        """
        entry_lines = sorted(
            f"dep={entry.dep.render()} {entry.listing_line()}" for entry in self.entries
        )
        gt_lines = []
        for key in sorted(self.ground_truth):
            values = self.ground_truth[key]
            if not values:
                gt_lines.append(f"gt {key.render()} ->")
            for value in sorted(values):
                gt_lines.append(f"gt {key.render()} -> {value.render()}")
        lines = [FORMAT_STAMP, *entry_lines, *gt_lines]
        lines.append(f"end {len(entry_lines)} 0 {len(gt_lines)}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> KnowledgeBase:
        """Read a dump written by `save`, checking every line.

        Each entry line goes through `KbEntry.from_listing`, so a dump is held
        to the same grammar as a class listing.  Coordinates are parsed once
        per distinct ``dep=`` text.
        """
        text = read_utf8(path, KbLoadError)
        lines = text.splitlines()
        if not lines or lines[0] != FORMAT_STAMP:
            found = lines[0] if lines else "<empty file>"
            raise KbLoadError(f"{path}:1: expected header {FORMAT_STAMP!r}, found {found!r}")
        if not lines[-1].startswith("end "):
            raise KbLoadError(f"{path}:{len(lines)}: missing end marker, file looks truncated")
        kb = cls()
        coordinates: dict[str, Coordinate] = {}  # dep= text -> parsed, once each
        n_entries = n_gt = 0
        for line_no, line in enumerate(lines[1:-1], start=2):
            if line.startswith("dep="):
                head, _, listing = line.partition(" ")
                try:
                    dep = coordinates.get(head)
                    if dep is None:
                        dep = coordinates[head] = Coordinate.parse(head[len("dep="):])
                    entry = KbEntry.from_listing(listing, dep)
                except ValueError as exc:
                    raise KbLoadError(f"{path}:{line_no}: {exc}") from exc
                if not kb.add_entry(entry):
                    raise KbLoadError(f"{path}:{line_no}: duplicate entry {listing!r}")
                n_entries += 1
            elif line.startswith("gt "):
                body = line[3:]
                left_text, arrow, right_text = body.partition(" ->")
                if not arrow:
                    raise KbLoadError(f"{path}:{line_no}: bad ground-truth line")
                try:
                    left = Coordinate.parse(left_text.strip())
                    relations = kb.ground_truth.setdefault(left, set())
                    if right_text.strip():
                        relations.add(Coordinate.parse(right_text.strip()))
                except ValueError as exc:
                    raise KbLoadError(f"{path}:{line_no}: {exc}") from exc
                n_gt += 1
            else:
                raise KbLoadError(f"{path}:{line_no}: unrecognized line {line!r}")
        try:
            counts = [int(n) for n in lines[-1].split()[1:]]
        except ValueError:
            counts = []
        if counts != [n_entries, 0, n_gt]:
            raise KbLoadError(
                f"{path}:{len(lines)}: end marker {lines[-1]!r} does not match body, "
                "file looks truncated"
            )
        return kb


def variable_key(entry: KbEntry) -> str:
    """Solver variable of *entry*: ``dep:provider-FQN`` (see `KnowledgeBase.lookup`)."""
    return f"{entry.dep.render()}:{entry.provider_fqn}"
