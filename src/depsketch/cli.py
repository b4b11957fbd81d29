"""Command-line surface: ``ingest | sketch | resolve | stats``.

Exit codes are 0 (success), 1 (resolution left sketches unresolved), and
2 (any error: bad usage, unreadable input, syntax or analysis failures,
strict-mode misses, and, as ``error: internal: ...``, any other exception).
Reports and dumps are deterministic: same inputs, byte-identical output.
Diagnostics go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .frontend import sketch_source
from .kb import KnowledgeBase, read_utf8
from .model import Coordinate, DepsketchError
from .resolver import Resolution, emit_patch, resolve
from .solver import dump_problem


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depsketch",
        description="Resolve fully qualified names in Java snippets and "
        "recommend the minimal dependency set.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    ingest = commands.add_parser("ingest", help="build or extend a knowledge base file")
    ingest.add_argument("--kb", required=True, help="knowledge base file to create or update")
    ingest.add_argument("--classes", action="append", default=[], help="class listing file")
    ingest.add_argument("--dep", action="append", default=[], help="g:a:v for the matching --classes")
    ingest.add_argument("--ground-truth", help="known coordinate relations, one 'g:a:v -> g:a:v' per line")
    ingest.set_defaults(func=cmd_ingest)

    sketch = commands.add_parser("sketch", help="print a snippet's sketches")
    sketch.add_argument("source", nargs="?", default="-", help="snippet file, or - for stdin")
    sketch.add_argument("--wrapped", choices=["true", "false"], default="true",
                        help="false forces compilation-unit parsing")
    sketch.add_argument("--spans", action="store_true", help="append occurrence spans to each line")
    sketch.set_defaults(func=cmd_sketch)

    res = commands.add_parser("resolve", help="resolve a snippet against a knowledge base")
    res.add_argument("source", nargs="?", default="-", help="snippet file, or - for stdin")
    res.add_argument("--kb", required=True, help="knowledge base file")
    res.add_argument("--declared", action="append", default=[],
                     help="g:a:v already declared by the project (repeatable)")
    res.add_argument("--strict", action="store_true",
                     help="fail when any sketch has no candidates")
    res.add_argument("--partial", action="store_true",
                     help="allow patching even with unresolved sketches")
    res.add_argument("--output", choices=["human", "machine"], default="human")
    res.add_argument("--patch", help="write the patched snippet to this file (- for stdout)")
    res.add_argument("--emit-cnf", dest="emit_cnf", help="write the covering problem to this file (- for stdout)")
    res.add_argument("--wrapped", choices=["true", "false"], default="true")
    res.set_defaults(func=cmd_resolve)

    stats = commands.add_parser("stats", help="print knowledge base counts")
    stats.add_argument("--kb", required=True, help="knowledge base file")
    stats.set_defaults(func=cmd_stats)
    return parser


def _read_source(spec: str) -> str:
    """The text of file *spec* or of stdin (``-``), line endings untranslated."""
    if spec == "-":
        return read_utf8("<stdin>", DepsketchError, _read_stdin)
    return read_utf8(spec, DepsketchError, lambda: Path(spec).read_bytes().decode("utf-8"))


def _read_stdin() -> str:
    # In UTF-8 mode stdin decodes with surrogateescape, which would let bytes
    # a file read rejects through; decode them as strictly as a file's.
    return sys.stdin.read().encode("utf-8", "surrogateescape").decode("utf-8")


def _write_output(spec: str, text: str) -> None:
    if spec == "-":
        sys.stdout.write(text)
    else:
        Path(spec).write_text(text, encoding="utf-8", newline="")


def _parse_coordinates(texts: list[str]) -> tuple[Coordinate, ...]:
    return tuple(Coordinate.parse(text) for text in texts)


def cmd_ingest(args: argparse.Namespace) -> int:
    if not (args.classes or args.ground_truth):
        print("error: nothing to ingest, pass --classes or --ground-truth", file=sys.stderr)
        return 2
    if len(args.classes) != len(args.dep):
        print("error: each --classes file needs a matching --dep coordinate", file=sys.stderr)
        return 2
    deps = _parse_coordinates(args.dep)
    kb = KnowledgeBase.load(args.kb) if Path(args.kb).exists() else KnowledgeBase()
    added = 0
    for listing, dep in zip(args.classes, deps):
        added += kb.ingest_class_listing(listing, dep)
    if args.ground_truth:
        kb.ingest_ground_truth(args.ground_truth)
    # saved ground truth applies to every ingest, not only the one that brought it
    removed = kb.filter_against_ground_truth()
    kb.save(args.kb)
    print(f"entries added: {added}")
    print(f"entries removed: {removed}")
    return 0


def cmd_sketch(args: argparse.Namespace) -> int:
    text = _read_source(args.source)
    _, analysis = sketch_source(text, allow_wrap=args.wrapped == "true")
    for sketch in analysis.sketches:
        line = f"{'U' if sketch.has_holes else 'R'} {sketch.render()}"
        if args.spans:
            line += " " + " ".join(span.render() for span in sketch.occurrences)
        print(line)
    return 0


def cmd_resolve(args: argparse.Namespace) -> int:
    kb = KnowledgeBase.load(args.kb)
    declared = _parse_coordinates(args.declared)
    text = _read_source(args.source)
    resolution = resolve(
        text, kb, declared, strict=args.strict, require_unit=args.wrapped == "false"
    )
    if args.emit_cnf:
        _write_output(args.emit_cnf, dump_problem(resolution.problem, resolution.variable_names))
    if args.patch:
        _write_output(args.patch, emit_patch(resolution, text, partial=args.partial))
    if args.output == "machine":
        print(json.dumps(build_report(resolution), indent=2, sort_keys=True))
    else:
        _print_human(resolution)
    if resolution.unresolved:
        print(f"warning: {len(resolution.unresolved)} sketches unresolved", file=sys.stderr)
        return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    kb = KnowledgeBase.load(args.kb)
    print(" ".join(f"{key}={value}" for key, value in kb.stats().items()))
    return 0


def build_report(resolution: Resolution) -> dict:
    """The machine report; shape is fixed by report_schema.json."""
    bound = {binding.sketch.render(): binding for binding in resolution.bindings}
    builtin = set(resolution.builtins)
    sketches = []
    for sketch in resolution.sketches:
        render = sketch.render()
        if render in bound:
            status = "bound"
        elif render in builtin:
            status = "builtin"
        else:
            status = "unresolved"
        sketches.append(
            {
                "render": render,
                "status": status,
                "occurrences": [span.render() for span in sketch.occurrences],
            }
        )
    bindings = {
        render: {
            "fqn": binding.entry.render(),
            "dependency": binding.entry.dep.render(),
        }
        for render, binding in bound.items()
    }
    return {
        "sketches": sketches,
        "bindings": bindings,
        "dependencies": list(resolution.dependencies),
        "imports": list(resolution.imports),
        "cost": resolution.cost,
        "ambiguities": list(resolution.ambiguities),
        "unresolved": list(resolution.unresolved),
    }


def _print_human(resolution: Resolution) -> None:
    report = build_report(resolution)
    for sketch_row in report["sketches"]:
        line = f"{sketch_row['status']:<10} {sketch_row['render']}"
        if sketch_row["status"] == "bound":
            binding = report["bindings"][sketch_row["render"]]
            line += f" -> {binding['fqn']} [{binding['dependency']}]"
        print(line)
    print(f"cost {resolution.cost}")
    print("dependencies: " + (", ".join(resolution.dependencies) or "(none)"))
    print("imports: " + (", ".join(resolution.imports) or "(none)"))
    for note in resolution.ambiguities:
        print(f"ambiguous: {note}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DepsketchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault in depsketch itself: one line, no traceback
        message = " ".join(str(exc).split())
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
