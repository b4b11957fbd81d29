#!/usr/bin/env python3
"""Regenerate the golden corpus in ``tests/golden/``.

Each case runs ``depsketch`` commands in-process, in a fresh directory, on
fixed inputs, and records one transcript: every command line, its exit
code, stdout, stderr, and the bytes of each file it writes.  The cases
cover the fixture snippet against the demo knowledge base in every output
form, a frontend-heavy unit, an operator-heavy snippet, cost ties,
one-line-unit patches, CR and CR LF line endings, a U+2028 in a comment
above the class, a knowledge base ingested from CR LF and CR files with a
form feed and a U+2028 in their comments, one tiny request of each
benchmark workload, and the CNF dump of a wide member clause.

``tests/test_golden.py`` regenerates every case and compares bytes.  Run
this script only when an output change is intended, and say in that
change why the transcripts moved:

    PYTHONPATH=src python3 scripts/update_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402  (the benchmark's request generator, read only)

from depsketch.cli import main as depsketch  # noqa: E402

WORKLOAD_SEED = 1

DEMO_INGEST = (
    "ingest", "--kb", "kb.txt",
    "--classes", str(FIXTURES / "jdk8_classes.txt"), "--dep", "jdk:java8:8",
    "--classes", str(FIXTURES / "regexkit_classes.txt"), "--dep", "com.regexkit:regexkit:1.2",
    "--ground-truth", str(FIXTURES / "ground_truth.txt"),
)

# Fields with and without initializers (one reads a field declared after
# it), parameters, locals, and every statement form a `for` header takes.
FRONTEND_UNIT = """\
package demo.frontend;

import java.util.regex.Pattern;

public class Scanner extends Base {
    private static final String NAME = "scanner";
    Pattern pattern = Pattern.compile(NAME);
    Matcher matcher;
    String first = last;
    String last = "z";
    Point point;
    int count;

    int scan(String input, int limit, java.util.List items) {
        int i;
        Counter counter = new Counter(limit);
        matcher = pattern.matcher(input);
        for (int j = 0; j < limit; j = j + 1) { counter.add(j); }
        for (java.util.Iterator it = items.iterator(); it.hasNext();) { it.next(); }
        for (Cursor c = null;;) { c.close(); }
        for (i = 0; i < limit;) { i = i + 1; }
        for (point.x = 1;; point.x = 2) { return point.x; }
        for (demo.Util.start(); counter.ready(); counter.tick()) ;
        for (;;) {}
    }

    void reset(Counter counter) {
        if (counter.done()) { count = 0; } else if (matcher.find()) count = 1; else { count = 2; }
        while (counter.ready()) counter.tick();
    }
}

class Base {
    Object origin;
}
"""

# Every binary precedence level, unary chains, parenthesised calls and a
# long flat `+` chain, over the demo knowledge base's names.
OPERATORS = (
    'String text = "a" + "b";\n'
    "Pattern p = Pattern.compile(text" + "".join(f' + "{i}"' for i in range(60)) + ");\n"
    "Matcher m = p.matcher((text));\n"
    "boolean hit = !!m.find() || m.find() && -1 * 2 / 3 % 4 + 5 - 6 < 7 == (8 >= 9) != !(10 <= 11) && 12 > 13;\n"
    "int n = - -(1 + 2) * -(3 - 4) % (p.matcher(text + hit).find() == hit)"
    " + (Pattern.compile(text)).matcher(text).find();\n"
    "if (!(p.matcher(text).find()) || (m.find())) { hit = !-!(m.find()); }\n"
)

# Cost ties: a snippet, its listings, and the extra `resolve` arguments.
# (`tie-lone-name` is a tie among the demo knowledge base's three `Pattern`s.)
TIE_CASES = {
    "tie-ambiguous-type": (
        "A a = new A(); a.m1(); a.m2();",
        (("g1:a1:1", "T p.A\nM p.A.m1()void\n"), ("g2:a2:1", "T q.A\nM q.A.m2()void\n")),
        (),
    ),
    "tie-one-dependency": (
        "Left l = null; Right r = null;",
        (
            ("split:left:1", "T aa.Left\n"),
            ("split:right:1", "T zz.Right\n"),
            ("whole:both:1", "T mm.Left\nT mm.Right\n"),
        ),
        (),
    ),
    "tie-declared": (
        "Util u = null;",
        (("aa:lib:1", "T q.Util\n"), ("bb:lib:1", "T p.Util\n")),
        ("--declared", "bb:lib:1"),
    ),
    # every name offered by both artifacts: 2^4 covers of equal cost
    "tie-two-artifacts": (
        "".join(f"Name{i} v{i} = null;\n" for i in range(4)),
        tuple(
            (coord, "".join(f"T {coord.split(':')[0]}.Name{i}\n" for i in range(4)))
            for coord in ("org.left:left:1", "org.right:right:1")
        ),
        (),
    ),
}

ONE_LINE_HEADS = {
    "one-line-package": "package a; ",
    "one-line-import": "import a.B; ",
    "one-line-package-and-import": "package a;\nimport a.B;  /* x */ ",
    "one-line-package-then-import": "package a; import a.B;\t",
}
ONE_LINE_BODY = "class A { void go(String s) { Pattern p = Pattern.compile(s); } }"

# A snippet with a line comment and a unit, written below with CR or CR LF
# line endings (JLS 3.4), as the line-ending tests of `tests/test_cli.py` do.
COMMENTED = 'String s = "a"; // note\nPattern p = Pattern.compile(s);\n'
UNIT = "package a;\nclass A { void go(String s) {\n  Pattern p = Pattern.compile(s);\n} }\n"


# Knowledge-base inputs: a listing with CR LF line ends and a form feed in a
# comment, and ground truth with lone CRs and a U+2028 in a comment.  Only
# CR LF, CR and LF end a line, so each comment stays one line; the ground
# truth knows java8 version 8 only, so the version-9 listing is dropped.
KB_LISTING = (
    "# java.util.regex\f(second page)\n"
    "T java.util.regex.Pattern\n"
    "M java.util.regex.Pattern.compile(java.lang.String)java.util.regex.Pattern\n"
).replace("\n", "\r\n")
KB_GROUND_TRUTH = (
    "# builds seen\u2028in the wild\njdk:java8:8 ->\ncom.regexkit:regexkit:1.2 -> jdk:java8:8\n"
).replace("\n", "\r")


class Transcript:
    """Runs commands in one directory and records what each one did."""

    def __init__(self, work: Path):
        self.work = work
        self.out = bytearray()

    def write(self, name: str, text: str) -> str:
        (self.work / name).write_bytes(text.encode("utf-8"))
        return name

    def run(self, *args: str, files: tuple[str, ...] = (), record: bool = True) -> None:
        """Run one command line in the directory, recording it unless not *record*."""
        stdout, stderr = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.work)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = depsketch(list(args))
        finally:
            os.chdir(cwd)
        if not record:
            if code != 0:
                raise RuntimeError(f"{' '.join(args)} exited {code}: {stderr.getvalue()}")
            return
        shown = " ".join(arg.replace(str(FIXTURES), "fixtures") for arg in args)
        self.out += f"$ depsketch {shown}\nexit {code}\n".encode()
        self._section("stdout", stdout.getvalue().encode("utf-8"))
        self._section("stderr", stderr.getvalue().encode("utf-8"))
        for name in files:
            self._section(f"file {name}", (self.work / name).read_bytes())

    def _section(self, title: str, data: bytes) -> None:
        self.out += f"--- {title}: {len(data)} bytes\n".encode() + data + b"\n"


def _case(args: tuple[str, ...], source: str | None = None, listings=None, files: tuple[str, ...] = ()):
    """Build a knowledge base (the demo one unless *listings*), write *source*, run *args*."""

    def case(t: Transcript) -> None:
        if listings is None:
            t.run(*DEMO_INGEST, record=False)
        else:
            ingest = ["ingest", "--kb", "kb.txt"]
            for index, (dep, text) in enumerate(listings):
                ingest += ["--classes", t.write(f"listing-{index:03d}.txt", text), "--dep", dep]
            t.run(*ingest, record=False)
        if source is not None:
            t.write("snippet.java", source)
        t.run(*args, files=files)

    return case


FIXTURE_SNIPPET = (FIXTURES / "snippet.java").read_text(encoding="utf-8")
PATCHED = ("patched.java",)
RESOLVE_HUMAN = ("resolve", "--kb", "kb.txt", "--patch", "patched.java", "snippet.java")
RESOLVE_MACHINE = ("resolve", "--kb", "kb.txt", "--output", "machine", "--patch", "patched.java", "snippet.java")
TINY = {name: workloads.build(name, WORKLOAD_SEED, tiny=True) for name in workloads.WORKLOADS}

# Over the tiny shared-names knowledge base, every `run` call is one wide
# clause: a call on a type with no import (a hole owner), one on an imported
# type, and `run(null)`, whose parameter is a hole.  A declared dependency
# gives some variables weight 0, so the dump pins numbering, weights and
# clause order.
WIDE_MEMBER = """\
import org.shared03.Item001;

class Wide {
    void go(Item007 a, Item001 b, Item003 c) {
        a.run("x");
        b.run("x");
        c.run(null);
    }
}
"""


def _kb_line_ends(t: Transcript) -> None:
    listing = t.write("listing.txt", KB_LISTING)
    t.run(
        "ingest", "--kb", "kb.txt", "--classes", listing, "--dep", "jdk:java8:8",
        "--classes", listing, "--dep", "jdk:java8:9",
        "--ground-truth", t.write("ground-truth.txt", KB_GROUND_TRUTH),
        files=("kb.txt",),
    )
    t.run("stats", "--kb", "kb.txt")


def _operators(t: Transcript) -> None:
    _case(("sketch", "--spans", "snippet.java"), OPERATORS)(t)
    t.run(*RESOLVE_MACHINE, files=PATCHED)


CASES = {
    "demo-ingest": lambda t: t.run(*DEMO_INGEST, files=("kb.txt",)),
    "demo-resolve-human": _case(("resolve", "--kb", "kb.txt", "snippet.java"), FIXTURE_SNIPPET),
    "demo-resolve-machine": _case(
        ("resolve", "--kb", "kb.txt", "--output", "machine", "--emit-cnf", "problem.cnf",
         "--patch", "patched.java", "snippet.java"),
        FIXTURE_SNIPPET,
        files=("problem.cnf", "patched.java"),
    ),
    "demo-sketch-spans": _case(("sketch", "--spans", "snippet.java"), FIXTURE_SNIPPET),
    "demo-stats": _case(("stats", "--kb", "kb.txt")),
    "frontend-unit-sketch": _case(("sketch", "--spans", "snippet.java"), FRONTEND_UNIT),
    "operators-sketch-and-patch": _operators,
    "tie-lone-name": _case(RESOLVE_MACHINE, "Pattern p = null;", files=PATCHED),
    **{
        name: _case(RESOLVE_MACHINE[:3] + declared + RESOLVE_MACHINE[3:], source, listings, PATCHED)
        for name, (source, listings, declared) in TIE_CASES.items()
    },
    **{
        name: _case(RESOLVE_HUMAN, head + ONE_LINE_BODY, files=PATCHED)
        for name, head in ONE_LINE_HEADS.items()
    },
    "line-ending-cr-sketch": _case(("sketch", "--spans", "snippet.java"), COMMENTED.replace("\n", "\r")),
    "line-ending-crlf-patch": _case(RESOLVE_MACHINE, UNIT.replace("\n", "\r\n"), files=PATCHED),
    "line-ending-cr-patch": _case(RESOLVE_MACHINE, UNIT.replace("\n", "\r"), files=PATCHED),
    "kb-line-ends": _kb_line_ends,
    "line-separator-in-comment-patch": _case(
        RESOLVE_MACHINE, "package p; /* x\u2028y */\n" + ONE_LINE_BODY, files=PATCHED
    ),
    "wide-member-cnf": _case(
        ("resolve", "--kb", "kb.txt", "--output", "machine", "--declared", "org.shared01:lib01:3.0",
         "--emit-cnf", "problem.cnf", "--patch", "patched.java", "snippet.java"),
        WIDE_MEMBER,
        TINY["shared-names"].listings,
        ("problem.cnf", "patched.java"),
    ),
    **{
        f"workload-{name}": _case(RESOLVE_MACHINE, wl.requests[0].source, wl.listings, PATCHED)
        for name, wl in TINY.items()
    },
}


def render(name: str) -> bytes:
    """The transcript of case *name*, run in a fresh temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        transcript = Transcript(Path(tmp))
        CASES[name](transcript)
        return bytes(transcript.out)


def path_of(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


def main() -> int:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for stale in set(GOLDEN.glob("*.txt")) - {path_of(name) for name in CASES}:
        stale.unlink()
        print(f"removed {stale.relative_to(ROOT)}")
    for name in CASES:
        path_of(name).write_bytes(render(name))
        print(f"wrote {path_of(name).relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
