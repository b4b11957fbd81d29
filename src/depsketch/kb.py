"""Knowledge base of API entries keyed for sketch lookup.

Built once from class listings, POM files, and a ground-truth relation file,
then used read-only.  Persistence is a line-oriented dump with a version
stamp (``FQNKB v1``) so stale files fail loudly instead of quietly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .model import Coordinate, DepsketchError, EntryKind, KbEntry, Sketch, matches

FORMAT_STAMP = "FQNKB v1"


class ListingError(DepsketchError):
    def __init__(self, path: str, line_no: int, reason: str):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no


class PomError(DepsketchError):
    pass


class GroundTruthError(DepsketchError):
    pass


class KbLoadError(DepsketchError):
    pass


@dataclass(frozen=True)
class ProjectItemset:
    """The set of dependencies one project declares (never empty)."""

    project_id: str
    deps: frozenset[Coordinate]

    def __post_init__(self) -> None:
        if not self.deps:
            raise ValueError(f"project {self.project_id!r} has an empty itemset")


def _local(tag: str) -> str:
    # POMs usually carry the Maven namespace; compare by local name only.
    return tag.rsplit("}", 1)[-1]


class KnowledgeBase:
    """Entries plus the indexes `lookup` needs, single-writer while building."""

    def __init__(self) -> None:
        self.entries: list[KbEntry] = []
        self.itemsets: dict[str, ProjectItemset] = {}
        self.ground_truth: dict[Coordinate, set[Coordinate]] = {}
        self._seen: set[tuple[str, Coordinate]] = set()  # (rendered FQN, dep)
        self.by_simple_name: dict[str, list[KbEntry]] = {}
        self.by_method_key: dict[tuple[str, int], list[KbEntry]] = {}
        self.by_field_name: dict[str, list[KbEntry]] = {}

    # -- construction ------------------------------------------------------

    def add_entry(self, entry: KbEntry) -> bool:
        """Add one entry; returns False for a duplicate (same FQN + dep)."""
        seen = self._seen
        size = len(seen)
        seen.add((entry.render(), entry.dep))  # add, then compare sizes: one hash
        if len(seen) == size:
            return False
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
        for entry in entries:
            self.add_entry(entry)

    def ingest_class_listing(self, path: str | Path, dep: Coordinate) -> int:
        """Read ``T``/``M``/``F`` lines from *path*; returns entries added.

        Blank lines and ``#`` comments are skipped.  Duplicates of entries
        already present are skipped silently, which makes re-ingesting the
        same listing a no-op.
        """
        added = 0
        text = Path(path).read_text(encoding="utf-8")
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                entry = KbEntry.from_listing(line, dep)
            except ValueError as exc:
                raise ListingError(str(path), line_no, str(exc)) from exc
            if self.add_entry(entry):
                added += 1
        return added

    def ingest_pom(self, path: str | Path) -> ProjectItemset:
        """Extract the declared dependency set from a Maven POM."""
        import xml.etree.ElementTree as ET  # only ingest reads XML; resolve never does

        path = Path(path)
        try:
            tree = ET.parse(path)
        except ET.ParseError as exc:
            line, col = exc.position
            offset = _byte_offset(path, line, col)
            raise PomError(
                f"{path}: XML parse error at byte {offset} (line {line}, column {col})"
            ) from exc
        root = tree.getroot()
        if _local(root.tag) != "project":
            raise PomError(f"{path}: root element is {_local(root.tag)!r}, expected 'project'")
        deps: set[Coordinate] = set()
        for holder in root:
            if _local(holder.tag) != "dependencies":
                continue
            for index, node in enumerate(holder):
                if _local(node.tag) != "dependency":
                    continue
                fields = {_local(child.tag): (child.text or "").strip() for child in node}
                try:
                    coordinate = Coordinate(
                        fields["groupId"], fields["artifactId"], fields["version"]
                    )
                except KeyError as exc:
                    raise PomError(
                        f"{path}: dependency #{index + 1} is missing <{exc.args[0]}>"
                    ) from exc
                except ValueError as exc:
                    raise PomError(f"{path}: dependency #{index + 1}: {exc}") from exc
                deps.add(coordinate)
        if not deps:
            raise PomError(f"{path}: no dependencies declared, refusing an empty itemset")
        itemset = ProjectItemset(str(path), frozenset(deps))
        self.itemsets[itemset.project_id] = itemset
        return itemset

    def ingest_ground_truth(self, path: str | Path) -> int:
        """Read ``g:a:v -> g2:a2:v2`` lines; returns new relations added.

        A line ``g:a:v ->`` registers the left coordinate with no relations.
        """
        added = 0
        text = Path(path).read_text(encoding="utf-8")
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
        Entries for artifacts the ground truth has never seen are kept.
        Returns the number of entries removed; running it twice removes
        nothing the second time.
        """
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
        Results are sorted by key, then by entry FQN.
        """
        if sketch.kind is EntryKind.TYPE:
            pool = self.by_simple_name.get(sketch.name, [])
        elif sketch.kind is EntryKind.METHOD:
            pool = self.by_method_key.get((sketch.name, len(sketch.params)), [])
        else:
            pool = self.by_field_name.get(sketch.name, [])
        found = [(entry, variable_key(entry)) for entry in pool if matches(sketch, entry)]
        found.sort(key=lambda pair: (pair[1], pair[0].render()))
        return found

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
            "itemsets": len(self.itemsets),
        }

    # -- persistence ---------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write a deterministic dump: identical content, identical bytes."""
        entry_lines = sorted(
            f"dep={entry.dep.render()} {entry.listing_line()}" for entry in self.entries
        )
        itemset_lines = []
        for project_id in sorted(self.itemsets):
            itemset = self.itemsets[project_id]
            deps = "\t".join(sorted(d.render() for d in itemset.deps))
            itemset_lines.append(f"itemset\t{project_id}\t{deps}")
        gt_lines = []
        for key in sorted(self.ground_truth):
            values = self.ground_truth[key]
            if not values:
                gt_lines.append(f"gt {key.render()} ->")
            for value in sorted(values):
                gt_lines.append(f"gt {key.render()} -> {value.render()}")
        lines = [FORMAT_STAMP, *entry_lines, *itemset_lines, *gt_lines]
        lines.append(f"end {len(entry_lines)} {len(itemset_lines)} {len(gt_lines)}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> KnowledgeBase:
        """Read a dump written by `save`, checking every line.

        Each entry line goes through `KbEntry.from_listing`, so a dump is held
        to the same grammar as a class listing.  Coordinates are parsed once
        per distinct ``dep=`` text.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            line_no = exc.object.count(b"\n", 0, exc.start) + 1
            raise KbLoadError(
                f"{path}:{line_no}: not UTF-8 text (byte {exc.start}: {exc.reason})"
            ) from exc
        lines = text.splitlines()
        if not lines or lines[0] != FORMAT_STAMP:
            found = lines[0] if lines else "<empty file>"
            raise KbLoadError(f"{path}:1: expected header {FORMAT_STAMP!r}, found {found!r}")
        if not lines[-1].startswith("end "):
            raise KbLoadError(f"{path}:{len(lines)}: missing end marker, file looks truncated")
        kb = cls()
        coordinates: dict[str, Coordinate] = {}  # dep= text -> parsed, once each
        n_entries = n_itemsets = n_gt = 0
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
            elif line.startswith("itemset\t"):
                parts = line.split("\t")
                if len(parts) < 3:
                    raise KbLoadError(f"{path}:{line_no}: bad itemset line")
                try:
                    deps = frozenset(Coordinate.parse(p) for p in parts[2:])
                    kb.itemsets[parts[1]] = ProjectItemset(parts[1], deps)
                except ValueError as exc:
                    raise KbLoadError(f"{path}:{line_no}: {exc}") from exc
                n_itemsets += 1
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
        if counts != [n_entries, n_itemsets, n_gt]:
            raise KbLoadError(
                f"{path}:{len(lines)}: end marker {lines[-1]!r} does not match body, "
                "file looks truncated"
            )
        return kb


def variable_key(entry: KbEntry) -> str:
    """Solver variable of *entry*: ``dep:provider-FQN`` (see `KnowledgeBase.lookup`)."""
    return f"{entry.dep.render()}:{entry.provider_fqn}"


def _byte_offset(path: Path, line: int, col: int) -> int:
    data = path.read_bytes().splitlines(keepends=True)
    return sum(len(chunk) for chunk in data[: line - 1]) + col
