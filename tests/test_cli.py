from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import depsketch
from depsketch.cli import main

from conftest import FIXTURES

SCHEMA_PATH = Path(depsketch.__file__).resolve().parent / "report_schema.json"

EXPECTED_SKETCH_LINES = [
    "R java.lang.String",
    "U ?.Pattern",
    "U ?.compile(java.lang.String)?",
    "U ?.Matcher",
    "U ?.matcher(java.lang.String)?",
    "U ?.find()?",
]


@pytest.fixture
def kb_path(tmp_path, capsys):
    path = tmp_path / "kb.txt"
    code = main(
        [
            "ingest",
            "--kb", str(path),
            "--classes", str(FIXTURES / "jdk8_classes.txt"),
            "--dep", "jdk:java8:8",
            "--classes", str(FIXTURES / "regexkit_classes.txt"),
            "--dep", "com.regexkit:regexkit:1.2",
            "--ground-truth", str(FIXTURES / "ground_truth.txt"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    return path


class TestIngest:
    def test_fresh_ingest_counts(self, tmp_path, capsys):
        path = tmp_path / "kb.txt"
        code = main(
            [
                "ingest",
                "--kb", str(path),
                "--classes", str(FIXTURES / "jdk8_classes.txt"),
                "--dep", "jdk:java8:8",
                "--classes", str(FIXTURES / "regexkit_classes.txt"),
                "--dep", "com.regexkit:regexkit:1.2",
                "--ground-truth", str(FIXTURES / "ground_truth.txt"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["entries added: 10", "entries removed: 0"]
        assert path.exists()

    def test_reingest_is_idempotent(self, kb_path, capsys):
        code = main(
            [
                "ingest",
                "--kb", str(kb_path),
                "--classes", str(FIXTURES / "jdk8_classes.txt"),
                "--dep", "jdk:java8:8",
            ]
        )
        assert code == 0
        assert "entries added: 0" in capsys.readouterr().out

    def test_saved_ground_truth_filters_later_ingests(self, kb_path, tmp_path, capsys):
        # the dump's gt lines say jdk:java8 is version 8, so a java8:99
        # listing ingested later, without --ground-truth, is dropped too
        stale = tmp_path / "stale.txt"
        stale.write_text("T stale.pkg.Stale\n")
        code = main(
            ["ingest", "--kb", str(kb_path), "--classes", str(stale), "--dep", "jdk:java8:99"]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "entries added: 1", "entries removed: 1",
        ]
        assert "stale.pkg.Stale" not in kb_path.read_text()

    def test_nothing_to_ingest(self, tmp_path, capsys):
        code = main(["ingest", "--kb", str(tmp_path / "kb.txt")])
        assert code == 2
        assert "nothing to ingest" in capsys.readouterr().err

    def test_mismatched_classes_and_deps(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--kb", str(tmp_path / "kb.txt"),
                "--classes", str(FIXTURES / "jdk8_classes.txt"),
            ]
        )
        assert code == 2
        assert "matching --dep" in capsys.readouterr().err

    def test_bad_coordinate_is_an_error(self, tmp_path, capsys):
        code = main(
            [
                "ingest",
                "--kb", str(tmp_path / "kb.txt"),
                "--classes", str(FIXTURES / "jdk8_classes.txt"),
                "--dep", "not-a-coordinate",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestSketch:
    def test_fixture_lines(self, capsys):
        code = main(["sketch", str(FIXTURES / "snippet.java")])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == EXPECTED_SKETCH_LINES

    def test_spans_flag_appends_occurrences(self, capsys):
        code = main(["sketch", str(FIXTURES / "snippet.java"), "--spans"])
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (
            "R java.lang.String 2:19-2:25 2:26-2:31 2:33-2:39 2:40-2:45 "
            "3:37-3:42 4:31-4:36"
        )

    def test_stdin_source(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Matcher m = null;"))
        code = main(["sketch", "-"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["U ?.Matcher"]

    def test_empty_stdin_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        code = main(["sketch", "-"])
        assert code == 2
        assert "empty source" in capsys.readouterr().err

    def test_wrapped_false_rejects_bare_statements(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Matcher m = null;"))
        code = main(["sketch", "-", "--wrapped", "false"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_positioned(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("int x = ;"))
        code = main(["sketch", "-"])
        assert code == 2
        assert "1:9" in capsys.readouterr().err

    def test_deep_nesting_exits_two(self, capsys, monkeypatch):
        source = "int x = " + "(" * 300 + "1" + ")" * 300 + ";"
        monkeypatch.setattr("sys.stdin", io.StringIO(source))
        code = main(["sketch", "-"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: 1:73: nesting deeper than 64 levels is not supported\n"
        )

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("int x = " + " + ".join(["1"] * 1000) + ";", []),
            ("String s = null; s" + ".trim()" * 500 + ";",
             ["R java.lang.String", "U java.lang.String.trim()?", "U ?.trim()?"]),
            ("String s = null; int y = s" + ".f" * 1500 + ";",
             ["R java.lang.String", "U java.lang.String.f:?", "U ?.f:?"]),
            ("String s = null; if (s == null) s = null;" + " else if (s == null) s = s.trim();" * 1000,
             ["R java.lang.String", "U java.lang.String.trim()?"]),
        ],
        ids=["1000-term-sum", "500-call-chain", "1500-field-chain", "1000-rung-else-if"],
    )
    def test_flat_chains_exit_zero(self, source, expected, capsys, monkeypatch):
        # the parser builds these in loops, so analysis must not recurse on them
        monkeypatch.setattr("sys.stdin", io.StringIO(source))
        code = main(["sketch", "-"])
        assert (code, capsys.readouterr().out.splitlines()) == (0, expected)


class TestResolve:
    def test_machine_report_validates(self, kb_path, capsys):
        code = main(
            [
                "resolve", str(FIXTURES / "snippet.java"),
                "--kb", str(kb_path),
                "--output", "machine",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.Draft7Validator.check_schema(schema)
        jsonschema.validate(report, schema)
        assert sorted(report) == [
            "ambiguities", "bindings", "cost", "dependencies",
            "imports", "sketches", "unresolved",
        ]
        assert report["dependencies"] == ["jdk:java8:8"]
        assert report["cost"] == 3
        assert report["unresolved"] == []
        assert [s["render"] for s in report["sketches"]] == [
            line[2:] for line in EXPECTED_SKETCH_LINES
        ]
        assert all(s["status"] == "bound" for s in report["sketches"])
        assert set(report["bindings"]) == {s["render"] for s in report["sketches"]}
        assert report["bindings"]["?.Pattern"] == {
            "fqn": "java.util.regex.Pattern",
            "dependency": "jdk:java8:8",
        }

    def test_human_output(self, kb_path, capsys):
        code = main(["resolve", str(FIXTURES / "snippet.java"), "--kb", str(kb_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "cost 3" in out
        assert "dependencies: jdk:java8:8" in out
        assert (
            "bound      ?.Pattern -> java.util.regex.Pattern [jdk:java8:8]" in out
        )

    def test_emit_cnf(self, kb_path, capsys, tmp_path):
        cnf = tmp_path / "problem.cnf"
        code = main(
            [
                "resolve", str(FIXTURES / "snippet.java"),
                "--kb", str(kb_path),
                "--emit-cnf", str(cnf),
            ]
        )
        assert code == 0
        lines = cnf.read_text().splitlines()
        assert lines[0] == "p cover 5 6"
        assert sum(1 for l in lines if l.startswith("c ")) == 5
        assert all(l.endswith(" 0") for l in lines if l[0].isdigit())

    def test_patch_file(self, kb_path, capsys, tmp_path):
        patched_path = tmp_path / "patched.java"
        code = main(
            [
                "resolve", str(FIXTURES / "snippet.java"),
                "--kb", str(kb_path),
                "--patch", str(patched_path),
            ]
        )
        assert code == 0
        patched = patched_path.read_text()
        original = (FIXTURES / "snippet.java").read_text()
        assert patched == (
            "import java.util.regex.Matcher;\n"
            "import java.util.regex.Pattern;\n" + original
        )

    def test_declared_dependency_zeroes_cost(self, kb_path, capsys):
        code = main(
            [
                "resolve", str(FIXTURES / "snippet.java"),
                "--kb", str(kb_path),
                "--declared", "jdk:java8:8",
                "--output", "machine",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cost"] == 0
        assert report["dependencies"] == ["jdk:java8:8"]

    def test_unresolved_exits_one(self, kb_path, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin", io.StringIO('Pattern p = Pattern.compile("x"); Unknown u = null;')
        )
        code = main(["resolve", "-", "--kb", str(kb_path), "--output", "machine"])
        assert code == 1
        captured = capsys.readouterr()
        assert "1 sketches unresolved" in captured.err
        report = json.loads(captured.out)
        assert report["unresolved"] == ["?.Unknown"]
        statuses = {s["render"]: s["status"] for s in report["sketches"]}
        assert statuses["?.Unknown"] == "unresolved"

    def test_strict_miss_exits_two(self, kb_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Unknown u = null; Pattern p = null;"))
        code = main(["resolve", "-", "--kb", str(kb_path), "--strict"])
        assert code == 2
        assert "no candidates for: ?.Unknown" in capsys.readouterr().err

    def test_missing_kb_exits_two(self, tmp_path, capsys):
        code = main(
            ["resolve", str(FIXTURES / "snippet.java"), "--kb", str(tmp_path / "nope.txt")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_kb_exits_two_naming_it(self, tmp_path, capsys):
        kb = tmp_path / "kb.txt"
        kb.write_bytes(b"FQNKB v2\nT C dep=g:a:1 T a.b.\xff\nend 1 0\n")
        code = main(["resolve", str(FIXTURES / "snippet.java"), "--kb", str(kb)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {kb}:2: ")
        assert "codec" not in err

    @pytest.mark.parametrize(
        "command",
        [
            ["ingest", "--kb", "{tmp}/kb.txt", "--classes", "{bad}", "--dep", "g:a:1"],
            ["ingest", "--kb", "{tmp}/kb.txt", "--ground-truth", "{bad}"],
            ["sketch", "{bad}"],
        ],
        ids=["ingest-classes", "ingest-ground-truth", "sketch"],
    )
    def test_non_utf8_input_exits_two_naming_it(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"# fine\n# \xff\n")
        argv = [arg.format(tmp=tmp_path, bad=bad) for arg in command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: not UTF-8 text")
        assert "codec" not in err

    @pytest.mark.parametrize(
        "command, data",
        [
            (["sketch", "{bad}"], b'String s = "a";\rPattern p = null;\r\xff\r'),
            (
                ["ingest", "--kb", "{tmp}/kb.txt", "--classes", "{bad}", "--dep", "g:a:1"],
                b"# fine\r# fine\r# \xff\r",
            ),
        ],
        ids=["sketch", "ingest-classes"],
    )
    def test_non_utf8_cr_only_input_names_the_line(self, tmp_path, capsys, command, data):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(data)
        argv = [arg.format(tmp=tmp_path, bad=bad) for arg in command]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}:3: not UTF-8 text")

    @pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
    def test_non_utf8_stdin_exits_two_naming_it(self, capsys, monkeypatch, errors):
        # surrogateescape is how stdin decodes in UTF-8 mode
        raw = io.BytesIO(b"int x = 1;\n// \xff\nint y = 2;\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8", errors=errors))
        assert main(["sketch", "-"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: <stdin>:2: not UTF-8 text")

    def test_damaged_section_fails_when_read(self, kb_path, capsys):
        # resolve reads the sections its sketches look up, stats reads all
        lines = kb_path.read_text().splitlines()
        at = lines.index("T Matcher dep=jdk:java8:8 T java.util.regex.Matcher <: java.lang.Object")
        lines[at] = "T Matcher dep=jdk:java8:8 T java.util.regex.Matcher <: Object"
        kb_path.write_text("\n".join(lines) + "\n")
        for argv in (["resolve", str(FIXTURES / "snippet.java")], ["stats"]):
            assert main([*argv, "--kb", str(kb_path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {kb_path}:{at + 1}: bad supertype")

    def test_internal_error_is_one_line(self, kb_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("something\nbroke")

        monkeypatch.setattr("depsketch.cli.resolve", broken)
        code = main(["resolve", str(FIXTURES / "snippet.java"), "--kb", str(kb_path)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: RuntimeError: something broke\n"

    def test_bad_declared_coordinate(self, kb_path, capsys):
        code = main(
            [
                "resolve", str(FIXTURES / "snippet.java"),
                "--kb", str(kb_path),
                "--declared", "nope",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_wrapped_false_accepts_units(self, kb_path, capsys):
        code = main(
            [
                "resolve", str(FIXTURES / "snippet.java"),
                "--kb", str(kb_path),
                "--wrapped", "false",
            ]
        )
        assert code == 0


def _posix_stdin(monkeypatch, data: bytes) -> None:
    # stdin as Python opens it on POSIX: lines split at "\n", nothing translated
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
    monkeypatch.setattr("sys.stdin", stream)


COMMENTED = 'String s = "a"; // note\nPattern p = Pattern.compile(s);\n'
UNIT = "package a;\nclass A { void go(String s) {\n  Pattern p = Pattern.compile(s);\n} }\n"


class TestLineEndings:
    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_stdin_and_file_sketch_alike(self, newline, tmp_path, capsys, monkeypatch):
        data = COMMENTED.replace("\n", newline).encode()
        path = tmp_path / "snippet.java"
        path.write_bytes(data)
        assert main(["sketch", "--spans", str(path)]) == 0
        from_file = capsys.readouterr().out
        _posix_stdin(monkeypatch, data)
        assert main(["sketch", "--spans", "-"]) == 0
        assert capsys.readouterr().out == from_file
        assert from_file.splitlines() == [
            "R java.lang.String 1:1-1:7 1:8-1:9 2:29-2:30",
            "U ?.Pattern 2:1-2:8 2:13-2:20 2:9-2:10",
            "U ?.compile(java.lang.String)? 2:21-2:28",
        ]

    def test_real_stdin_and_file_sketch_alike(self, tmp_path):
        data = COMMENTED.replace("\n", "\r").encode()
        path = tmp_path / "snippet.java"
        path.write_bytes(data)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "depsketch", "sketch", "--spans", spec],
                input=data, capture_output=True,
            )
            for spec in (str(path), "-")
        ]
        assert [run.returncode for run in runs] == [0, 0]
        assert runs[0].stdout == runs[1].stdout
        assert len(runs[0].stdout.splitlines()) == 3

    @pytest.mark.parametrize("via", ["file", "stdin"])
    @pytest.mark.parametrize("newline", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_patch_keeps_the_input_line_endings(self, newline, via, kb_path, tmp_path, monkeypatch):
        data = UNIT.replace("\n", newline).encode()
        source = tmp_path / "unit.java"
        source.write_bytes(data)
        if via == "stdin":
            _posix_stdin(monkeypatch, data)
        patched = tmp_path / "patched.java"
        spec = str(source) if via == "file" else "-"
        assert main(["resolve", spec, "--kb", str(kb_path), "--patch", str(patched)]) == 0
        head = f"package a;{newline}".encode()
        imports = f"import java.util.regex.Pattern;{newline}".encode()
        assert patched.read_bytes() == head + imports + data[len(head):]

    def test_patch_of_wrapped_stdin_to_stdout(self, kb_path, capsys, monkeypatch):
        data = b"Matcher m = null;\r\nm.find();\r\n"
        _posix_stdin(monkeypatch, data)
        assert main(["resolve", "-", "--kb", str(kb_path), "--patch", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("import java.util.regex.Matcher;\r\n" + data.decode())

    def test_patch_not_inside_a_comment_holding_a_line_separator(self, kb_path, tmp_path):
        data = "package p; /* x\u2028y */\nclass A { void go(String s) { Pattern q = Pattern.compile(s); } }"
        source = tmp_path / "unit.java"
        source.write_bytes(data.encode())
        patched = tmp_path / "patched.java"
        assert main(["resolve", str(source), "--kb", str(kb_path), "--patch", str(patched)]) == 0
        head = "package p; /* x\u2028y */\n"
        expected = head + "import java.util.regex.Pattern;\n" + data[len(head):]
        assert patched.read_bytes() == expected.encode()

    def test_mixed_line_endings_patch_keeps_the_input_bytes(self, kb_path, tmp_path):
        data = UNIT.replace("\n", "\r\n", 1).encode()
        source = tmp_path / "unit.java"
        source.write_bytes(data)
        patched = tmp_path / "patched.java"
        assert main(["resolve", str(source), "--kb", str(kb_path), "--patch", str(patched)]) == 0
        head = b"package a;\r\n"
        assert patched.read_bytes() == head + b"import java.util.regex.Pattern;\n" + data[len(head):]


class TestStatsAndUsage:
    def test_stats_line(self, kb_path, capsys):
        code = main(["stats", "--kb", str(kb_path)])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "entries=10 types=6 methods=3 fields=1 dependencies=2"
        )

    def test_stats_missing_kb(self, tmp_path, capsys):
        assert main(["stats", "--kb", str(tmp_path / "nope.txt")]) == 2

    def test_no_arguments_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "ingest" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    kb_file = tmp_path / "kb.txt"
    build = subprocess.run(
        [
            sys.executable, "-m", "depsketch", "ingest",
            "--kb", str(kb_file),
            "--classes", str(FIXTURES / "jdk8_classes.txt"),
            "--dep", "jdk:java8:8",
        ],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    run = subprocess.run(
        [
            sys.executable, "-m", "depsketch", "resolve",
            str(FIXTURES / "snippet.java"),
            "--kb", str(kb_file),
            "--output", "machine",
        ],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["dependencies"] == ["jdk:java8:8"]
