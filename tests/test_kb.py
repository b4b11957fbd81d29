from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depsketch import Coordinate, DepsketchError, KnowledgeBase
from depsketch.kb import GroundTruthError, KbLoadError, ListingError, section_key, variable_key
from depsketch.model import EntryKind, KbEntry, Sketch, matches

from conftest import DISTRACTOR, FIXTURES, JDK8, build_fixture_kb


def type_sketch(name: str, owner: str = "?") -> Sketch:
    return Sketch(EntryKind.TYPE, owner, name)


def method_sketch(name: str, params: tuple[str, ...], returns: str = "?") -> Sketch:
    return Sketch(EntryKind.METHOD, "?", name, params, returns)


class TestClassListingIngestion:
    def test_counts_fixture_entries(self):
        kb = KnowledgeBase()
        # oracle: count the non-blank, non-comment lines ourselves
        lines = (FIXTURES / "jdk8_classes.txt").read_text().splitlines()
        expected = sum(1 for l in lines if l.strip() and not l.lstrip().startswith("#"))
        assert kb.ingest_class_listing(FIXTURES / "jdk8_classes.txt", JDK8) == expected

    def test_reingest_adds_nothing(self, fixture_kb):
        assert fixture_kb.ingest_class_listing(FIXTURES / "jdk8_classes.txt", JDK8) == 0

    def test_same_listing_under_other_dep_is_new(self, tmp_path):
        listing = tmp_path / "one.txt"
        listing.write_text("T a.b.C\n")
        kb = KnowledgeBase()
        assert kb.ingest_class_listing(listing, JDK8) == 1
        assert kb.ingest_class_listing(listing, DISTRACTOR) == 1

    def test_bad_line_reports_position(self, tmp_path):
        listing = tmp_path / "bad.txt"
        listing.write_text("T a.b.C\nM broken(\n")
        with pytest.raises(ListingError) as err:
            KnowledgeBase().ingest_class_listing(listing, JDK8)
        assert "2" in str(err.value)
        assert "parenthes" in str(err.value)

    def test_blanks_and_comments_skipped(self, tmp_path):
        listing = tmp_path / "sparse.txt"
        listing.write_text("\n# heading\n\nT a.b.C\n  # indented comment\n")
        assert KnowledgeBase().ingest_class_listing(listing, JDK8) == 1


class TestLookup:
    def test_holed_pattern_has_two_jdk_candidates(self, tmp_path):
        listing = tmp_path / "jdk.txt"
        listing.write_text(
            "T java.util.regex.Pattern\nT com.sun.org.apache.xalan.in.xsltc.compiler.Pattern\n"
        )
        kb = KnowledgeBase()
        kb.ingest_class_listing(listing, JDK8)
        assert len(kb.lookup(type_sketch("Pattern"))) == 2

    def test_fixture_pattern_has_three_candidates(self, fixture_kb):
        assert len(fixture_kb.lookup(type_sketch("Pattern"))) == 3

    def test_resolved_string_has_one_candidate(self, fixture_kb):
        found = fixture_kb.lookup(type_sketch("String", owner="java.lang"))
        assert len(found) == 1
        assert found[0][0].render() == "java.lang.String"

    def test_empty_kb_returns_empty(self):
        kb = KnowledgeBase()
        assert kb.lookup(method_sketch("compile", ("java.lang.String",))) == []

    def test_a_written_position_on_a_name_with_no_entries(self, tmp_path):
        # the section is empty, so the index of the written position has no rows
        kb = KnowledgeBase()
        kb.add_entry(KbEntry(
            EntryKind.METHOD, "p.A", "run", params=("int",), returns="void", dep=JDK8,
        ))
        kb.save(tmp_path / "kb.txt")
        sketch = Sketch(EntryKind.METHOD, "p.A", "stop", ("int",), "?")
        for probed in (kb, KnowledgeBase.load(tmp_path / "kb.txt")):
            assert probed.lookup(sketch) == []
            assert probed.lookup(sketch) == []  # from the cached section

    def test_results_sorted_by_key_then_render(self, fixture_kb):
        found = fixture_kb.lookup(type_sketch("Pattern"))
        keys = [key for _, key in found]
        assert keys == sorted(keys)

    def test_variable_key_shared_across_sketches(self, fixture_kb):
        type_keys = {key for _, key in fixture_kb.lookup(type_sketch("Pattern"))}
        method_keys = {
            key for _, key in fixture_kb.lookup(method_sketch("compile", ("java.lang.String",)))
        }
        assert method_keys == {"jdk:java8:8:java.util.regex.Pattern"}
        assert method_keys <= type_keys

    def test_entry_added_after_a_lookup_is_found(self, fixture_kb):
        before = len(fixture_kb.lookup(type_sketch("Pattern")))
        added = KbEntry(EntryKind.TYPE, "a.b", "Pattern", dep=JDK8)
        fixture_kb.add_entry(added)
        found = [entry for entry, _ in fixture_kb.lookup(type_sketch("Pattern"))]
        assert added in found and len(found) == before + 1

    def test_arity_filters_methods(self, fixture_kb):
        assert fixture_kb.lookup(method_sketch("compile", ("?", "?"))) == []

    def test_field_lookup(self, fixture_kb):
        found = fixture_kb.lookup(
            Sketch(EntryKind.FIELD, "?", "CASE_INSENSITIVE", field_type="?")
        )
        assert [entry.render() for entry, _ in found] == [
            "java.util.regex.Pattern.CASE_INSENSITIVE:int"
        ]


_segments = st.text(alphabet="abxy_$1", min_size=1, max_size=3).filter(
    lambda s: not s[0].isdigit()
)
_fqns = st.lists(_segments, min_size=2, max_size=3).map(".".join)
_types = _fqns | st.sampled_from(["int", "boolean", "void"])
_deps = st.sampled_from([JDK8, DISTRACTOR, Coordinate.parse("org.other:lib:2.0")])


@st.composite
def _kb_entries(draw, supertypes=st.none()):
    kind = draw(st.sampled_from(list(EntryKind)))
    owner = draw(_fqns)
    name = draw(_segments)
    dep = draw(_deps)
    if kind is EntryKind.TYPE:
        return KbEntry(kind, owner, name, supertype=draw(supertypes), dep=dep)
    if kind is EntryKind.METHOD:
        params = tuple(draw(st.lists(_types, max_size=2)))
        return KbEntry(kind, owner, name, params=params, returns=draw(_types), dep=dep)
    return KbEntry(kind, owner, name, field_type=draw(_types), dep=dep)


def _all_holes(entry: KbEntry) -> Sketch:
    if entry.kind is EntryKind.TYPE:
        return type_sketch(entry.name)
    if entry.kind is EntryKind.METHOD:
        return method_sketch(entry.name, ("?",) * len(entry.params))
    return Sketch(EntryKind.FIELD, "?", entry.name, field_type="?")


@given(entries=st.lists(_kb_entries(), max_size=20))
def test_index_completeness(entries):
    # Every ingested entry is reachable through the all-holes sketch of its shape.
    kb = KnowledgeBase()
    for entry in entries:
        kb.add_entry(entry)
    for entry in entries:
        assert entry in [found for found, _ in kb.lookup(_all_holes(entry))]


def _exact(entry: KbEntry) -> Sketch:
    return Sketch(
        entry.kind, entry.owner, entry.name, entry.params, entry.returns, entry.field_type
    )


@given(entries=st.lists(_kb_entries(supertypes=st.none() | _fqns), max_size=20))
def test_save_load_round_trip(entries, tmp_path_factory):
    # The listing grammar that load applies and the field checks that built
    # the entries must agree on every entry save can write.
    for entry in entries:
        assert KbEntry.from_listing(entry.listing_line(), entry.dep) == entry
    kb = KnowledgeBase()
    for entry in entries:
        kb.add_entry(entry)
    path = tmp_path_factory.mktemp("round_trip") / "kb.txt"
    kb.save(path)
    dump = path.read_bytes()
    # A loaded dump parses sections as lookups reach them, and stats parses
    # the rest; in any order it answers as the knowledge base that was saved.
    loaded = KnowledgeBase.load(path)
    for entry in entries:
        for probe in (_all_holes(entry), _exact(entry)):
            assert loaded.lookup(probe) == kb.lookup(probe)
    assert loaded.stats() == kb.stats()
    assert sorted(loaded.entries, key=repr) == sorted(kb.entries, key=repr)
    loaded.save(path)
    assert path.read_bytes() == dump
    KnowledgeBase.load(path).save(path)
    assert path.read_bytes() == dump


# Few owners, names and signature types, so sections hold many entries and
# a sketch's written positions both match and miss.
_OWNERS = ("a.A", "a.B", "b.A")
_SIGNATURE_TYPES = ("int", "a.A", "java.lang.String")
_VERSIONED_DEPS = [
    Coordinate.parse(text)
    for text in ("g:a:1", "g:a:2", "g:b:1", "h:c:1", "h:c:2")
]


# Methods are drawn most often: they have the most positions a sketch can write.
_KINDS = st.sampled_from([EntryKind.METHOD, EntryKind.METHOD, EntryKind.TYPE, EntryKind.FIELD])


@st.composite
def _section_entries(draw):
    kind = draw(_KINDS)
    owner = draw(st.sampled_from(_OWNERS))
    name = draw(st.sampled_from(("run", "go")))
    dep = draw(st.sampled_from(_VERSIONED_DEPS))
    if kind is EntryKind.TYPE:
        return KbEntry(kind, owner, name, dep=dep)
    if kind is EntryKind.METHOD:
        arity = draw(st.integers(0, 2))
        params = tuple(draw(st.sampled_from(_SIGNATURE_TYPES)) for _ in range(arity))
        returns = draw(st.sampled_from(_SIGNATURE_TYPES + ("void",)))
        return KbEntry(kind, owner, name, params=params, returns=returns, dep=dep)
    return KbEntry(kind, owner, name, field_type=draw(st.sampled_from(_SIGNATURE_TYPES)), dep=dep)


def _hole_or(*values: str):
    return st.sampled_from(("?",) + values)


@st.composite
def _probe_sketches(draw):
    """A sketch with a hole, or not, in its owner, each parameter, its
    return type and its field type."""
    kind = draw(_KINDS)
    owner = draw(_hole_or(*_OWNERS, "c.C"))
    name = draw(st.sampled_from(("run", "run", "go", "stop")))
    if kind is EntryKind.TYPE:
        return Sketch(kind, owner, name)
    if kind is EntryKind.METHOD:
        params = tuple(draw(st.lists(_hole_or(*_SIGNATURE_TYPES), max_size=2)))
        return Sketch(kind, owner, name, params, draw(_hole_or(*_SIGNATURE_TYPES, "void")))
    return Sketch(kind, owner, name, field_type=draw(_hole_or(*_SIGNATURE_TYPES, "long")))


@st.composite
def _near_sketches(draw, entry: KbEntry):
    """A sketch of *entry*'s shape that keeps, replaces or leaves open each
    of its positions."""

    def position(value: str, others: tuple[str, ...]) -> str:
        other = draw(st.sampled_from([other for other in others if other != value]))
        return draw(_hole_or(value, other))

    owner = position(entry.owner, _OWNERS)
    if entry.kind is EntryKind.TYPE:
        return Sketch(entry.kind, owner, entry.name)
    if entry.kind is EntryKind.METHOD:
        params = tuple(position(param, _SIGNATURE_TYPES) for param in entry.params)
        returns = position(entry.returns, _SIGNATURE_TYPES + ("void",))
        return Sketch(entry.kind, owner, entry.name, params, returns)
    field_type = position(entry.field_type, _SIGNATURE_TYPES)
    return Sketch(entry.kind, owner, entry.name, field_type=field_type)


@st.composite
def _entries_and_probes(draw, min_entries: int = 0):
    """Entries for a knowledge base, and sketches to look up in it: one in
    four drawn freely, the rest near an entry."""
    entries = draw(st.lists(_section_entries(), min_size=min_entries, max_size=30))
    near = st.sampled_from(entries).flatmap(_near_sketches) if entries else _probe_sketches()
    probes = st.one_of(_probe_sketches(), near, near, near)
    return entries, draw(st.lists(probes, min_size=1, max_size=8))


def _reference_lookup(entries: list[KbEntry], sketch: Sketch) -> list[tuple[KbEntry, str]]:
    """What `KnowledgeBase.lookup` returns, from the rule in `matches`."""
    pool = sorted(
        ((entry, variable_key(entry)) for entry in entries),
        key=lambda pair: (pair[1], pair[0].render()),
    )
    return [pair for pair in pool if matches(sketch, pair[0])]


@settings(max_examples=200)
@given(case=_entries_and_probes(), more=st.lists(_section_entries(), max_size=6))
def test_lookup_is_the_reference_filter(case, more, tmp_path_factory):
    entries, sketches = case
    kb = KnowledgeBase()
    for entry in entries:
        kb.add_entry(entry)
    for sketch in sketches:
        assert kb.lookup(sketch) == _reference_lookup(kb.entries, sketch)
    # a loaded dump parses each section on its first lookup
    path = tmp_path_factory.mktemp("saved") / "kb.txt"
    kb.save(path)
    loaded = KnowledgeBase.load(path)
    for sketch in sketches:
        assert loaded.lookup(sketch) == _reference_lookup(kb.entries, sketch)
    # add_entry drops the sorted sections it changes
    for entry in more:
        kb.add_entry(entry)
    for sketch in sketches:
        assert kb.lookup(sketch) == _reference_lookup(kb.entries, sketch)
    # a returned list is the caller's to change
    for sketch in sketches:
        found = kb.lookup(sketch)
        found[:] = found[::-1] + [None]
        assert kb.lookup(sketch) == _reference_lookup(kb.entries, sketch)


@given(case=_entries_and_probes(), known=st.sets(st.sampled_from(_VERSIONED_DEPS)))
def test_lookup_after_filter_against_ground_truth(case, known):
    entries, sketches = case
    kb = KnowledgeBase()
    for entry in entries:
        kb.add_entry(entry)
    for sketch in sketches:
        kb.lookup(sketch)  # sort the sections before the filter drops entries
    kb.ground_truth |= known
    kb.filter_against_ground_truth()
    for sketch in sketches:
        assert kb.lookup(sketch) == _reference_lookup(kb.entries, sketch)


@given(case=_entries_and_probes(min_entries=1), data=st.data())
def test_lookup_on_a_loaded_dump_with_a_damaged_section(case, data, tmp_path_factory):
    # One section of the dump holds a duplicate line: every read of it fails
    # at that line, and every other section answers as the saved one would.
    entries, sketches = case
    kb = KnowledgeBase()
    for entry in entries:
        kb.add_entry(entry)
    path = tmp_path_factory.mktemp("damaged") / "kb.txt"
    kb.save(path)
    lines = path.read_text(encoding="utf-8").split("\n")
    damaged = data.draw(st.sampled_from(kb.entries))
    line = f"{section_key(damaged)} dep={damaged.dep.render()} {damaged.listing_line()}"
    index = lines.index(line)
    lines.insert(index + 1, lines[index])  # still sorted
    lines[-2] = f"end {len(kb.entries) + 1} 0"
    path.write_text("\n".join(lines), encoding="utf-8")
    loaded = KnowledgeBase.load(path)
    probe = _all_holes(damaged)
    for sketch in [probe, *sketches, probe]:
        if section_key(sketch) == section_key(damaged):
            with pytest.raises(KbLoadError) as err:
                loaded.lookup(sketch)
            assert str(err.value).startswith(f"{path}:{index + 2}: duplicate entry")
        else:
            assert loaded.lookup(sketch) == _reference_lookup(kb.entries, sketch)


class TestIndexedSection:
    """A section of many rows, looked up through its index."""

    ROWS = 48
    SECOND = ("int", "a.A", "long")  # cycled through the second parameter

    def built(self) -> KnowledgeBase:
        kb = KnowledgeBase()
        for row in range(self.ROWS):
            kb.add_entry(KbEntry(
                EntryKind.METHOD, f"p.T{row % 20}", "run",
                params=("java.lang.String", self.SECOND[row % 3]),
                returns="void", dep=_VERSIONED_DEPS[row // 20 % 5],
            ))
        return kb

    # (owner, first parameter, second parameter, return type)
    PROBES = [
        ("?", "java.lang.String", "?", "?"),  # every row holds the value
        ("?", "?", "int", "?"),
        ("?", "?", "boolean", "?"),  # no row holds it
        ("p.T3", "?", "?", "?"),
        ("p.T3", "?", "long", "?"),  # two positions
        ("p.T4", "?", "a.A", "?"),
        ("?", "java.lang.String", "a.A", "?"),
        ("?", "?", "a.A", "void"),
        ("?", "?", "a.A", "int"),
        ("p.T3", "?", "?", "?"),  # again, once the other positions are indexed
        ("?", "?", "?", "?"),
    ]

    @staticmethod
    def probe(owner: str, first: str, second: str, returns: str) -> Sketch:
        return Sketch(EntryKind.METHOD, owner, "run", (first, second), returns)

    def check(self, kb: KnowledgeBase, reference: list[KbEntry]) -> None:
        for probe in self.PROBES:
            sketch = self.probe(*probe)
            found = kb.lookup(sketch)
            assert found == _reference_lookup(reference, sketch)
            found.append(None)  # the caller's list, not the section's
            assert None not in kb.lookup(sketch)

    def test_lookups_through_each_position(self):
        kb = self.built()
        self.check(kb, kb.entries)
        assert len(kb.lookup(self.probe("?", "java.lang.String", "?", "?"))) == self.ROWS
        assert kb.lookup(self.probe("?", "?", "boolean", "?")) == []

    def test_after_add_entry_and_filter(self):
        kb = self.built()
        self.check(kb, kb.entries)
        kb.add_entry(KbEntry(
            EntryKind.METHOD, "p.T3", "run", params=("java.lang.String", "boolean"),
            returns="void", dep=JDK8,
        ))
        self.check(kb, kb.entries)
        kb.ground_truth.add(_VERSIONED_DEPS[0])  # contradicts g:a:2
        assert kb.filter_against_ground_truth() > 0
        self.check(kb, kb.entries)

    def test_on_a_loaded_dump(self, tmp_path):
        kb = self.built()
        kb.save(tmp_path / "kb.txt")
        self.check(KnowledgeBase.load(tmp_path / "kb.txt"), kb.entries)

    def test_a_lookup_costs_what_it_returns(self):
        # 20,000 lookups in a section of 20,000 distinct parameter values:
        # comparing the whole column on each one would take tens of seconds.
        rows = 20_000
        kb = KnowledgeBase()
        for row in range(rows):
            kb.add_entry(KbEntry(
                EntryKind.METHOD, "p.Runner", "run", params=(f"p.Arg{row}",),
                returns="void", dep=JDK8,
            ))
        sketch = Sketch(EntryKind.METHOD, "?", "run", ("p.Arg123",), "?")
        start = time.perf_counter()
        for _ in range(rows):
            found = kb.lookup(sketch)
        assert time.perf_counter() - start < 1.0
        assert [entry.params for entry, _ in found] == [("p.Arg123",)]


class TestAllOrNothingIngest:
    """A bad line leaves the knowledge base as it was before the ingest."""

    @staticmethod
    def _state(kb: KnowledgeBase) -> tuple:
        return kb.stats(), set(kb.ground_truth), [entry.render() for entry in kb.entries]

    def test_listing(self, fixture_kb, tmp_path):
        fixture_kb.ingest_ground_truth(FIXTURES / "ground_truth.txt")
        listing = tmp_path / "partial.txt"
        listing.write_text("T a.b.C\nT a.b.D\nM broken(\n")
        before = self._state(fixture_kb)
        with pytest.raises(ListingError, match=r"partial\.txt:3: mismatched parentheses"):
            fixture_kb.ingest_class_listing(listing, JDK8)
        assert self._state(fixture_kb) == before
        assert fixture_kb.lookup(type_sketch("C")) == []

    def test_ground_truth(self, fixture_kb, tmp_path):
        fixture_kb.ingest_ground_truth(FIXTURES / "ground_truth.txt")
        gt = tmp_path / "partial.txt"
        gt.write_text("g:a:1 -> g:b:2\nh:a:1 ->\ng:a:1\n")
        before = self._state(fixture_kb)
        with pytest.raises(GroundTruthError, match=r"partial\.txt:3: expected one '->'"):
            fixture_kb.ingest_ground_truth(gt)
        assert self._state(fixture_kb) == before

    def test_a_good_file_is_still_added_whole(self, tmp_path):
        kb = KnowledgeBase()
        listing = tmp_path / "l.txt"
        listing.write_text("T a.b.C\nT a.b.D\nT a.b.C\n")
        assert kb.ingest_class_listing(listing, JDK8) == 2
        gt = tmp_path / "gt.txt"
        gt.write_text("g:a:1 -> g:b:2\ng:a:1 -> g:b:2\nh:a:1 ->\n")
        assert kb.ingest_ground_truth(gt) == 3
        assert kb.ground_truth == {
            Coordinate.parse("g:a:1"), Coordinate.parse("g:b:2"), Coordinate.parse("h:a:1"),
        }


class TestGroundTruth:
    def test_fixture_counts_relations(self):
        # both sides of every line count: two coordinates, then none new
        kb = KnowledgeBase()
        assert kb.ingest_ground_truth(FIXTURES / "ground_truth.txt") == 2
        assert kb.ingest_ground_truth(FIXTURES / "ground_truth.txt") == 0

    def test_bare_left_side_registers_coordinate(self):
        kb = KnowledgeBase()
        kb.ingest_ground_truth(FIXTURES / "ground_truth.txt")
        assert JDK8 in kb.ground_truth

    def test_missing_separator_rejected(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("jdk:java8:8 jdk:java8:8\n")
        with pytest.raises(GroundTruthError):
            KnowledgeBase().ingest_ground_truth(gt)

    def test_filter_drops_contradicted_versions(self, fixture_kb, tmp_path):
        stale = Coordinate.parse("jdk:java8:9")
        fixture_kb.add_entry(KbEntry(EntryKind.TYPE, "java.misc", "Thing", dep=stale))
        keep = Coordinate.parse("org.unseen:lib:3")
        fixture_kb.add_entry(KbEntry(EntryKind.TYPE, "org.unseen", "Widget", dep=keep))
        fixture_kb.ingest_ground_truth(FIXTURES / "ground_truth.txt")
        assert fixture_kb.filter_against_ground_truth() == 1
        assert fixture_kb.lookup(type_sketch("Thing")) == []
        assert len(fixture_kb.lookup(type_sketch("Widget"))) == 1  # artifact never seen, kept
        assert fixture_kb.filter_against_ground_truth() == 0

    @pytest.mark.parametrize(
        ("text", "expected"),
        [
            ("a:b:1 -> c:d:1", {"a:b:1", "c:d:1"}),
            ("a:b:1 ->", {"a:b:1"}),
            ("a:b:1-> c:d:1", {"a:b:1", "c:d:1"}),
            ("a:b:1 ->c:d:1", {"a:b:1", "c:d:1"}),
            ("a:b:1->", {"a:b:1"}),
            ("a:b:1", "expected one '->' separator in 'a:b:1'"),
            ("a:b:1 c:d:1", "expected one '->' separator in 'a:b:1 c:d:1'"),
            ("a:b:1 -> c -> e", "expected one '->' separator in 'a:b:1 -> c -> e'"),
            ("a:b:1 ->-> c:d:1", "expected one '->' separator in 'a:b:1 ->-> c:d:1'"),
            ("a->b:c:1 -> d:e:1", "expected one '->' separator in 'a->b:c:1 -> d:e:1'"),
            ("-> c:d:1", "expected group:artifact:version, got ''"),
            ("a:b -> c:d:1", "expected group:artifact:version, got 'a:b'"),
            ("a:b:1 -> c:d", "expected group:artifact:version, got 'c:d'"),
            ("a:b:1 -> c:d:1 x", "bad coordinate version: '1 x'"),
        ],
    )
    def test_relation_reads_alike_in_file_and_dump(self, tmp_path, text, expected):
        # a dump's ``gt`` line is ``gt `` and a ground-truth file line
        gt = tmp_path / "gt.txt"
        gt.write_text(f"{text}\n")
        dump = tmp_path / "kb.txt"
        dump.write_text(f"FQNKB v2\ngt {text}\nend 0 1\n")

        def ingest() -> KnowledgeBase:
            kb = KnowledgeBase()
            kb.ingest_ground_truth(gt)
            return kb

        for path, line_no, read in ((gt, 1, ingest), (dump, 2, lambda: KnowledgeBase.load(dump))):
            try:
                found = {coordinate.render() for coordinate in read().ground_truth}
            except DepsketchError as exc:
                assert str(exc).startswith(f"{path}:{line_no}: ")
                found = str(exc).removeprefix(f"{path}:{line_no}: ")
            assert found == expected

    # Coordinates of 1-4 artifacts x 1-3 versions for entries; the ground
    # truth also draws from an artifact and a version no entry has.
    _gt_artifacts = st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True)

    @given(data=st.data())
    def test_filter_keeps_what_the_rule_keeps(self, data, tmp_path_factory):
        artifacts = data.draw(self._gt_artifacts)
        versions = data.draw(st.integers(1, 3))
        deps = st.builds(
            lambda artifact, version: Coordinate.parse(f"g:{artifact}:{version}"),
            st.sampled_from(artifacts), st.integers(1, versions),
        )
        named = st.builds(
            lambda artifact, version: Coordinate.parse(f"g:{artifact}:{version}"),
            st.sampled_from([*artifacts, "z"]), st.integers(1, versions + 1),
        )
        entries = data.draw(st.lists(st.tuples(st.sampled_from("CD"), deps), max_size=12))
        lines = data.draw(st.lists(st.tuples(named, st.none() | named), max_size=5))
        kb = KnowledgeBase()
        for name, dep in entries:
            kb.add_entry(KbEntry(EntryKind.TYPE, "p.q", name, dep=dep))
        gt = tmp_path_factory.mktemp("gt") / "gt.txt"
        gt.write_text("".join(
            f"{left.render()} -> {right.render() if right else ''}\n" for left, right in lines
        ))
        kb.ingest_ground_truth(gt)
        kb.filter_against_ground_truth()
        # README: an entry is dropped when a line names its group and
        # artifact, and no line names its exact coordinate on either side.
        sides = {side for line in lines for side in line if side is not None}
        expected = {
            (name, dep) for name, dep in entries
            if dep in sides or not any(
                (side.group, side.artifact) == (dep.group, dep.artifact) for side in sides
            )
        }
        assert sorted((entry.name, entry.dep.render()) for entry in kb.entries) == sorted(
            (name, dep.render()) for name, dep in expected
        )

    def test_relation_side_counts_as_known(self, tmp_path):
        gt = tmp_path / "gt.txt"
        gt.write_text("g:a:1 -> g2:b:2\n")
        kb = KnowledgeBase()
        kb.add_entry(KbEntry(EntryKind.TYPE, "p.q", "R", dep=Coordinate.parse("g2:b:9")))
        kb.ingest_ground_truth(gt)
        assert kb.filter_against_ground_truth() == 1


# Each line input: how to ingest it, a valid line, how many items that line
# adds, what the knowledge base holds after it, an invalid line, and the
# error that line raises.
_each_input = pytest.mark.parametrize(
    ("ingest", "good", "added", "held", "bad", "error"),
    [
        pytest.param(
            lambda kb, path: kb.ingest_class_listing(path, JDK8),
            "T a.b.C",
            1,
            lambda kb: [entry.render() for entry in kb.entries],
            "M a.b.C.run(",
            ListingError,
            id="listing",
        ),
        pytest.param(
            KnowledgeBase.ingest_ground_truth,
            "g:a:1 -> g:b:2",
            2,  # a coordinate on each side
            lambda kb: kb.ground_truth,
            "g:a:1",
            GroundTruthError,
            id="ground-truth",
        ),
    ],
)
# Characters `str.splitlines` ends a line at, and Java does not.
_NOT_LINE_ENDS = {
    "form-feed": "\f",
    "vertical-tab": "\v",
    "file-separator": "\x1c",
    "next-line": "\x85",
    "line-separator": "\u2028",
    "paragraph-separator": "\u2029",
}


class TestLineEnds:
    """Listings and ground-truth files end lines at CR LF, CR or LF only."""

    @pytest.mark.parametrize("char", list(_NOT_LINE_ENDS.values()), ids=list(_NOT_LINE_ENDS))
    @_each_input
    def test_other_separators_stay_inside_a_comment(
        self, tmp_path, char, ingest, good, added, held, bad, error
    ):
        path = tmp_path / "input.txt"
        path.write_bytes(f"# see{char}notes\n{good}\n".encode())
        lf = tmp_path / "lf.txt"
        lf.write_text(f"{good}\n")
        kb, expected = KnowledgeBase(), KnowledgeBase()
        assert ingest(kb, path) == ingest(expected, lf) == added
        assert held(kb) == held(expected)
        path.write_bytes(f"# see{char}notes\n{good}\n{bad}\n".encode())
        with pytest.raises(error) as err:
            ingest(KnowledgeBase(), path)
        assert str(err.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    @_each_input
    def test_crlf_and_cr_read_as_lf(
        self, tmp_path, end, ingest, good, added, held, bad, error
    ):
        text = f"# head\n\n  {good}\n"
        reads = []
        for name, ending in (("lf.txt", "\n"), ("other.txt", end)):
            path = tmp_path / name
            path.write_bytes(text.replace("\n", ending).encode())
            kb = KnowledgeBase()
            assert ingest(kb, path) == added
            path.write_bytes((text + f"{bad}\n").replace("\n", ending).encode())
            with pytest.raises(error) as err:
                ingest(KnowledgeBase(), path)
            reads.append((held(kb), str(err.value).removeprefix(str(path))))
        assert reads[0] == reads[1]
        assert reads[0][1].startswith(":4: ")


class TestPersistence:
    def probe_sketches(self):
        return [
            type_sketch("Pattern"),
            type_sketch("String", owner="java.lang"),
            method_sketch("compile", ("java.lang.String",)),
            method_sketch("find", ()),
            Sketch(EntryKind.FIELD, "?", "CASE_INSENSITIVE", field_type="?"),
        ]

    def test_round_trip_preserves_lookups(self, fixture_kb, tmp_path):
        fixture_kb.ingest_ground_truth(FIXTURES / "ground_truth.txt")
        path = tmp_path / "kb.txt"
        fixture_kb.save(path)
        loaded = KnowledgeBase.load(path)
        for probe in self.probe_sketches():
            assert loaded.lookup(probe) == fixture_kb.lookup(probe)
        assert loaded.stats() == fixture_kb.stats()
        assert loaded.ground_truth == fixture_kb.ground_truth

    def test_save_is_deterministic(self, fixture_kb, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        fixture_kb.save(a)
        fixture_kb.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_dump_identical(self, fixture_kb, tmp_path):
        first = tmp_path / "first.txt"
        fixture_kb.save(first)
        second = tmp_path / "second.txt"
        KnowledgeBase.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_file_rejected(self, fixture_kb, tmp_path):
        path = tmp_path / "kb.txt"
        fixture_kb.save(path)
        complete = path.read_text()
        path.write_text(complete[: complete.rindex("end")])
        with pytest.raises(KbLoadError) as err:
            KnowledgeBase.load(path)
        assert "truncated" in str(err.value)

    def test_alien_header_rejected(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("SOMETHING v9\nend 0 0 0\n")
        with pytest.raises(KbLoadError):
            KnowledgeBase.load(path)

    @pytest.mark.parametrize(
        ("body", "probe", "line_no", "reason"),
        [
            (["M c/0 dep=g:a:1 M a.b.c(int", "end 1 0"], method_sketch("c", ()), 2, "parenthes"),
            (
                ["T C dep=g:a:1 T a.b.C", "T C dep=g:a:1 T a.b.C", "end 2 0"],
                type_sketch("C"), 3, "duplicate entry",
            ),
            (
                ["T C dep=g:a:1 T a.b.C", "T D dep=g:a T a.b.D", "end 2 0"],
                type_sketch("D"), 3, "group:artifact:version",
            ),
            (["T C dep=g:a:1 T a.b.C", "end 2 0"], type_sketch("C"), 3, "does not match body"),
            (["T C dep=g:a:1 T a.b.C", "end 1 1 0"], type_sketch("C"), 3, "does not match body"),
            (["itemset\tproject\tg:a:1", "end 0 1"], type_sketch("C"), 2, "unrecognized line"),
            (["T C dep=g:a:1 T a.b.C\t<: Object", "end 1 0"], type_sketch("C"), 2, "bad supertype"),
            (
                ["T C dep=g:a:1 T a.b.C", "T B dep=g:a:1 T a.b.B", "end 2 0"],
                type_sketch("C"), 3, "not sorted",
            ),
            (["T B dep=g:a:1 T a.b.C", "end 1 0"], type_sketch("B"), 2, "filed under key 'T B'"),
            (
                ["M run/1 dep=g:a:1 M a.b.C.run()void", "end 1 0"],
                method_sketch("run", ("?",)), 2, "filed under key 'M run/1'",
            ),
        ],
        ids=[
            "malformed-entry", "duplicate-entry", "bad-dep", "end-count-mismatch",
            "nonzero-middle-count", "itemset-line", "bad-supertype",
            "unsorted-block", "misfiled-key", "misfiled-arity",
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, body, probe, line_no, reason):
        # A layout fault fails in load, an entry fault on the first read of
        # its section: the lookup that reaches it, or stats, which reads all.
        path = tmp_path / "kb.txt"
        path.write_text("\n".join(["FQNKB v2", *body]) + "\n")
        for read in (lambda kb: kb.lookup(probe), KnowledgeBase.stats):
            with pytest.raises(KbLoadError) as err:
                read(KnowledgeBase.load(path))
            assert str(err.value).startswith(f"{path}:{line_no}: ")
            assert reason in str(err.value)

    def test_dump_with_a_two_sided_gt_line_still_reads(self, tmp_path):
        # Dumps once wrote one gt line per pair of coordinates; both sides
        # are known, and a re-save writes one line per coordinate.
        path = tmp_path / "kb.txt"
        path.write_text("FQNKB v2\ngt a:b:1 -> c:d:1\ngt c:d:1 ->\nend 0 2\n")
        kb = KnowledgeBase.load(path)
        assert kb.ground_truth == {Coordinate.parse("a:b:1"), Coordinate.parse("c:d:1")}
        assert kb.stats() == KnowledgeBase().stats()
        assert kb.filter_against_ground_truth() == 0
        kb.save(path)
        assert path.read_text() == "FQNKB v2\ngt a:b:1 ->\ngt c:d:1 ->\nend 0 2\n"
        for dep in ("a:b:1", "a:b:2", "c:d:1", "c:d:2", "e:f:1"):
            kb.add_entry(KbEntry(EntryKind.TYPE, "p.q", "R", dep=Coordinate.parse(dep)))
        assert kb.filter_against_ground_truth() == 2
        assert sorted(entry.dep.render() for entry in kb.entries) == ["a:b:1", "c:d:1", "e:f:1"]

    def test_v1_dump_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_text("FQNKB v1\ndep=g:a:1 T a.b.C\nend 1 0 0\n")
        with pytest.raises(KbLoadError) as err:
            KnowledgeBase.load(path)
        assert str(err.value).startswith(f"{path}:1: ")
        assert "'FQNKB v1'" in str(err.value)
        assert "depsketch ingest" in str(err.value)

    def test_unread_section_fails_only_on_stats(self, tmp_path):
        # The trade-off of reading in part: a damaged section no lookup
        # reaches loads fine, and stats, which reads every line, reports it.
        path = tmp_path / "kb.txt"
        path.write_text("FQNKB v2\nT C dep=g:a:1 T a.b.C\nT D dep=g:a:1 M a.b.D(\nzz\nend 3 0\n")
        kb = KnowledgeBase.load(path)
        assert [entry.render() for entry, _ in kb.lookup(type_sketch("C"))] == ["a.b.C"]
        with pytest.raises(KbLoadError) as err:
            kb.stats()
        assert str(err.value).startswith(f"{path}:3: ")
        path.write_text("FQNKB v2\nT C dep=g:a:1 T a.b.C\nzz\nend 2 0\n")
        with pytest.raises(KbLoadError) as err:
            KnowledgeBase.load(path).stats()
        assert str(err.value).startswith(f"{path}:3: unrecognized line")

    def test_failed_section_fails_again(self, tmp_path):
        # a later read of a section that failed half-way must neither answer
        # from nor trip over the entries parsed before the bad line
        path = tmp_path / "kb.txt"
        path.write_text(
            "FQNKB v2\nT C dep=g:a:1 T a.b.C\nT C dep=g:a:2 T a.b.C <: Object\nend 2 0\n"
        )
        kb = KnowledgeBase.load(path)
        reads = [lambda: kb.lookup(type_sketch("C"))] * 2 + [kb.stats] * 2
        for read in reads:
            with pytest.raises(KbLoadError) as err:
                read()
            assert str(err.value) == f"{path}:3: bad supertype: 'Object'"

    def test_load_parses_nothing_and_lookup_one_section(self, fixture_kb, tmp_path):
        path = tmp_path / "kb.txt"
        fixture_kb.save(path)
        loaded = KnowledgeBase.load(path)
        assert loaded.entries == []
        found = loaded.lookup(type_sketch("Pattern"))
        assert found == fixture_kb.lookup(type_sketch("Pattern"))
        assert sorted(entry.render() for entry in loaded.entries) == sorted(
            entry.render() for entry, _ in found
        )
        assert loaded.by_method_key == {} and loaded.by_field_name == {}
        assert loaded.stats() == fixture_kb.stats()

    def test_dump_lines_carry_their_section_key(self, fixture_kb, tmp_path):
        path = tmp_path / "kb.txt"
        fixture_kb.save(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "FQNKB v2"
        assert (
            "M compile/1 dep=jdk:java8:8 "
            "M java.util.regex.Pattern.compile(java.lang.String)java.util.regex.Pattern"
        ) in lines
        assert lines[-1] == "end 10 0"

    def test_non_utf8_dump_names_path(self, tmp_path):
        path = tmp_path / "kb.txt"
        path.write_bytes(b"FQNKB v2\nT C dep=g:a:1 T a.b.\xff\nend 1 0\n")
        with pytest.raises(KbLoadError) as err:
            KnowledgeBase.load(path)
        assert str(err.value).startswith(f"{path}:2: ")
        assert "UTF-8" in str(err.value)

    @pytest.mark.parametrize(
        ("ingest", "error"),
        [
            (lambda kb, path: kb.ingest_class_listing(path, JDK8), ListingError),
            (KnowledgeBase.ingest_ground_truth, GroundTruthError),
        ],
        ids=["listing", "ground-truth"],
    )
    def test_non_utf8_ingest_names_path(self, tmp_path, ingest, error):
        path = tmp_path / "input.txt"
        path.write_bytes(b"# fine\n\n# \xff\n")
        with pytest.raises(error) as err:
            ingest(KnowledgeBase(), path)
        assert str(err.value).startswith(f"{path}:3: ")
        assert "UTF-8" in str(err.value)

    def test_dump_keeps_listing_whitespace_rules(self, tmp_path):
        # load accepts what a class listing accepts: any run of blanks
        # between the parts of an entry line
        path = tmp_path / "kb.txt"
        path.write_text("FQNKB v2\nT C dep=g:a:1 T\ta.b.C  <:  x.Y \nend 1 0\n")
        kb = KnowledgeBase.load(path)
        kb.stats()  # parses every section
        (entry,) = kb.entries
        assert entry.listing_line() == "T a.b.C <: x.Y"


class TestStats:
    def test_fixture_counts(self, fixture_kb):
        stats = fixture_kb.stats()
        assert stats == {
            "entries": 10,
            "types": 6,
            "methods": 3,
            "fields": 1,
            "dependencies": 2,
        }

    def test_empty_kb(self):
        assert KnowledgeBase().stats() == {
            "entries": 0,
            "types": 0,
            "methods": 0,
            "fields": 0,
            "dependencies": 0,
        }
