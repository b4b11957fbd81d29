"""Span recording around depsketch's layers, from outside the package.

``install`` replaces public functions at the module attributes their
callers look up (``depsketch.frontend.parser.tokenize`` for the parser,
``depsketch.resolver.solve_min`` for ``resolve``, and so on) with wrappers
that record a span per call while a trace unit is open.  Outside a unit the
wrappers only forward the call.  The ``feasible`` and ``tie_key`` callables
``solve_min`` receives are wrapped with counters, not spans: they run once
per search node and per leaf.

A unit is one request (or one setup step); every span carries its unit id,
its parent span and a dict of counts taken from the call's arguments and
result.  ``summarize`` turns the spans into per-layer self times and
counts.  No file under ``src/`` knows about any of this.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    unit: str
    attrs: dict = field(default_factory=dict)

    def as_row(self) -> list:
        return [self.sid, self.name, self.start, self.end, self.parent, self.unit, self.attrs]


class Tracer:
    """Spans of the units opened so far, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.unit_kinds: dict[str, str] = {}
        self.unit: str | None = None
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.unit)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def open(self, unit: str, kind: str, root: str) -> Span:
        """Start unit *unit* with a root span named *root*."""
        self.unit = unit
        self.unit_kinds[unit] = kind
        return self.begin(root)

    def close(self, root: Span) -> None:
        self.end(root)
        self.unit = None

    def adopt(self, rows: list[list], parent: Span) -> None:
        """Append spans recorded by a child process under *parent*."""
        base = len(self.spans)
        for sid, name, start, end, up, _unit, attrs in rows:
            up = parent.sid if up is None else base + up
            self.spans.append(Span(base + sid, name, start, end, up, parent.unit, attrs))

    def write(self, path: Path) -> None:
        rows = [span.as_row() for span in self.spans]
        Path(path).write_text(json.dumps({"units": self.unit_kinds, "spans": rows}) + "\n")


# -- wrappers -------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, counts=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.unit is None:
            return fn(*args, **kwargs)
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counts is not None:
            span.attrs.update(counts(*args, result=result))
        return result

    return traced


def _wrap_solve_min(tracer: Tracer, fn):
    @functools.wraps(fn)
    def traced(problem, *, feasible=None, tie_key=None):
        if tracer.unit is None:
            return fn(problem, feasible=feasible, tie_key=tie_key)
        tally = {"feasible_calls": 0, "feasible_rejects": 0, "leaves": 0}

        def counted_feasible(chosen):
            tally["feasible_calls"] += 1
            ok = feasible(chosen)
            if not ok:
                tally["feasible_rejects"] += 1
            return ok

        def counted_tie_key(chosen):
            tally["leaves"] += 1
            return tie_key(chosen)

        span = tracer.begin("solver.solve_min")
        try:
            return fn(
                problem,
                feasible=None if feasible is None else counted_feasible,
                tie_key=None if tie_key is None else counted_tie_key,
            )
        finally:
            tracer.end(span)
            span.attrs.update(tally)  # kept for timed-out searches too

    return traced


def _tokens(source, result):
    return {"tokens": len(result)}


def _analysis(unit, result):
    return {
        "sketches": len(result.sketches),
        "holed": sum(1 for sketch in result.sketches if sketch.has_holes),
    }


def _lookup(kb, sketch, result):
    from depsketch.model import EntryKind

    if sketch.kind is EntryKind.TYPE:
        bucket = kb.by_simple_name.get(sketch.name, ())
    elif sketch.kind is EntryKind.METHOD:
        bucket = kb.by_method_key.get((sketch.name, len(sketch.params)), ())
    else:
        bucket = kb.by_field_name.get(sketch.name, ())
    return {"candidates": len(result), "bucket": len(bucket)}


def _problem(*args, result):
    problem = result[0]
    return {
        "vars": problem.num_vars,
        "clauses": len(problem.clauses),
        "max_clause_vars": max((len(c) for c in problem.clauses), default=0),
    }


def _preprocessed(problem, result):
    return {"forced": len(result.forced), "live": len(result.clauses)}


def _loaded(path, result):
    return {"entries": len(result.entries)}


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    import depsketch.cli as cli
    import depsketch.frontend.analysis as analysis
    import depsketch.frontend.parser as parser
    import depsketch.resolver as resolver
    import depsketch.solver as solver
    from depsketch.kb import KnowledgeBase

    saved: list[tuple[object, str, object]] = []

    def replace(owner, attr, wrapper) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def plain(owner, attr, name, counts=None) -> None:
        replace(owner, attr, _wrap(tracer, name, getattr(owner, attr), counts))

    plain(parser, "tokenize", "lexer.tokenize", _tokens)
    plain(parser, "parse_unit", "parser.parse_unit")
    plain(parser, "parse_statements", "parser.parse_statements")
    plain(analysis, "wrap", "parser.wrap")
    plain(analysis, "parse", "parser.parse")
    plain(analysis, "analyze", "analysis.analyze", _analysis)
    plain(resolver, "sketch_source", "frontend.sketch_source")
    plain(resolver, "build_problem", "resolver.build_problem", _problem)
    replace(resolver, "solve_min", _wrap_solve_min(tracer, resolver.solve_min))
    plain(solver, "preprocess", "solver.preprocess", _preprocessed)
    plain(KnowledgeBase, "lookup", "kb.lookup", _lookup)
    plain(KnowledgeBase, "save", "kb.save")
    plain(KnowledgeBase, "ingest_class_listing", "kb.ingest")
    load = KnowledgeBase.__dict__["load"].__func__
    replace(KnowledgeBase, "load", classmethod(_wrap(tracer, "kb.load", load, lambda cls, path, result: _loaded(path, result))))
    # resolve and emit_patch are looked up in two modules: the benchmark
    # calls them through depsketch.resolver, the CLI through its own imports.
    traced_resolve = _wrap(tracer, "resolver.resolve", resolver.resolve)
    traced_patch = _wrap(tracer, "resolver.emit_patch", resolver.emit_patch)
    replace(resolver, "resolve", traced_resolve)
    replace(resolver, "emit_patch", traced_patch)
    replace(cli, "resolve", traced_resolve)
    replace(cli, "emit_patch", traced_patch)
    plain(cli, "build_report", "cli.build_report")
    plain(cli, "main", "cli.main")

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore


# -- summaries ------------------------------------------------------------------

# Span name -> the per-layer self-time metric it feeds.  Parser entry points
# are charged to whichever of wrap (classification) or parse called them.
SELF_TIME_METRIC = {
    "lexer.tokenize": "lexer.tokenize_ms",
    "parser.wrap": "parser.wrap_ms",
    "parser.parse": "parser.parse_ms",
    "analysis.analyze": "analysis.analyze_ms",
    "kb.lookup": "kb.lookup_ms",
    "kb.load": "kb.load_ms",
    "kb.ingest": "kb.ingest_ms",
    "kb.save": "kb.save_ms",
    "resolver.build_problem": "resolver.build_problem_ms",
    "resolver.resolve": "resolver.bind_ms",
    "resolver.emit_patch": "resolver.emit_patch_ms",
    "solver.preprocess": "solver.preprocess_ms",
    "solver.solve_min": "solver.search_ms",
    "cli.main": "cli.main_ms",
    "cli.build_report": "cli.report_ms",
    "cli.process": "cli.startup_ms",
}
_PARSER_ENTRIES = ("parser.parse_unit", "parser.parse_statements")
# Metrics measured on setup units as well as requests.
KB_SETUP_METRICS = ("kb.load_ms", "kb.ingest_ms", "kb.save_ms", "kb.load_entries")

COUNT_METRICS = (
    "lexer.tokenize_calls", "lexer.tokens", "parser.parse_calls",
    "analysis.sketches", "analysis.holed_sketches",
    "kb.lookup_calls", "kb.candidates", "kb.lookup_match_ratio", "kb.load_entries",
    "resolver.vars", "resolver.clauses", "resolver.max_clause_vars",
    "solver.forced_vars", "solver.live_clauses", "solver.feasible_calls",
    "solver.feasible_rejects", "solver.leaves", "solver.leaf_yield",
)
TIME_METRICS = tuple(SELF_TIME_METRIC.values()) + ("cli.process_ms",)


def self_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per unit, the self time in ms of every layer metric present."""
    by_id = {span.sid: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.end - span.start
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.name in _PARSER_ENTRIES:
            up = by_id.get(span.parent)
            while up is not None and up.name not in ("parser.wrap", "parser.parse"):
                up = by_id.get(up.parent)
            metric = "parser.wrap_ms" if up is not None and up.name == "parser.wrap" else "parser.parse_ms"
        else:
            metric = SELF_TIME_METRIC.get(span.name)
        if metric is None:
            continue
        own = span.end - span.start - child_time.get(span.sid, 0.0)
        unit = out.setdefault(span.unit, {})
        unit[metric] = unit.get(metric, 0.0) + own * 1000.0
        if span.name == "cli.process":
            unit["cli.process_ms"] = unit.get("cli.process_ms", 0.0) + (span.end - span.start) * 1000.0
    return out


def _counts(spans: list[Span]) -> dict[str, float]:
    total: dict[str, float] = {name: 0 for name in COUNT_METRICS}
    solves = 0
    buckets = 0
    for span in spans:
        a = span.attrs
        if span.name == "lexer.tokenize":
            total["lexer.tokenize_calls"] += 1
            total["lexer.tokens"] += a.get("tokens", 0)
        elif span.name in _PARSER_ENTRIES:
            total["parser.parse_calls"] += 1
        elif span.name == "analysis.analyze":
            total["analysis.sketches"] += a.get("sketches", 0)
            total["analysis.holed_sketches"] += a.get("holed", 0)
        elif span.name == "kb.lookup":
            total["kb.lookup_calls"] += 1
            total["kb.candidates"] += a.get("candidates", 0)
            buckets += a.get("bucket", 0)
        elif span.name == "kb.load":
            total["kb.load_entries"] += a.get("entries", 0)
        elif span.name == "resolver.build_problem":
            total["resolver.vars"] += a.get("vars", 0)
            total["resolver.clauses"] += a.get("clauses", 0)
            total["resolver.max_clause_vars"] = max(total["resolver.max_clause_vars"], a.get("max_clause_vars", 0))
        elif span.name == "solver.preprocess":
            total["solver.forced_vars"] += a.get("forced", 0)
            total["solver.live_clauses"] += a.get("live", 0)
        elif span.name == "solver.solve_min":
            solves += 1
            total["solver.feasible_calls"] += a.get("feasible_calls", 0)
            total["solver.feasible_rejects"] += a.get("feasible_rejects", 0)
            total["solver.leaves"] += a.get("leaves", 0)
    total["kb.lookup_match_ratio"] = total["kb.candidates"] / buckets if buckets else 0.0
    total["solver.leaf_yield"] = solves / total["solver.leaves"] if total["solver.leaves"] else 0.0
    return total


def summarize(tracer: Tracer, primary: str, root: str) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Layer metrics come from units of kind *primary* (the workload's
    requests).  ``cli.*`` metrics come from units of kind ``cli``; the
    knowledge-base load/ingest/save metrics also from ``setup`` units.  A
    ``_ms`` metric is the median over those units of the layer's self time
    in the unit; a count is the total over them.  ``trace.self_time_share``
    is the layers' summed self time over the wall time of the *root* spans.
    """
    kinds = tracer.unit_kinds

    def units_for(metric: str) -> set[str]:
        if metric.startswith("cli."):
            wanted = {"cli"}
        elif metric in KB_SETUP_METRICS:
            wanted = {primary, "setup"}
        else:
            wanted = {primary}
        return {unit for unit, kind in kinds.items() if kind in wanted}

    per_unit = self_times(tracer.spans)
    metrics: dict[str, float] = {}
    for metric in TIME_METRICS:
        chosen = units_for(metric)
        values = [times[metric] for unit, times in per_unit.items() if unit in chosen and metric in times]
        metrics[metric] = statistics.median(values) if values else 0.0
    request_counts = _counts([s for s in tracer.spans if s.unit in units_for("")])
    kb_counts = _counts([s for s in tracer.spans if s.unit in units_for("kb.load_entries")])
    for metric in COUNT_METRICS:
        metrics[metric] = (kb_counts if metric in KB_SETUP_METRICS else request_counts)[metric]

    requests = {unit for unit, kind in kinds.items() if kind == primary}
    wall = sum(s.end - s.start for s in tracer.spans if s.unit in requests and s.name == root) * 1000.0
    layered = sum(
        ms for unit, times in per_unit.items() if unit in requests
        for metric, ms in times.items() if metric != "cli.process_ms"
    )
    metrics["trace.self_time_share"] = layered / wall if wall else 0.0
    return metrics
