#!/usr/bin/env python3
"""depsketch benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; depsketch is imported from ``src/``
and child processes get the same ``src/`` on ``PYTHONPATH``.  Generated
inputs, the knowledge-base dump, the span file and a full result record go
to ``perfbench/.work/<workload>-<seed>/``.

``--trace 0`` measures end-to-end metrics: set-up (knowledge base build or
load plus one warm-up request, median of several), then whole passes over
the workload's requests, sent one after another, until ``--seconds`` have
passed and at least 100 were sent.
``--trace 1`` runs one pass over the workload's requests twice, untraced and
traced, checks both give byte-identical reports and patches, and prints the
per-layer metrics.  Every request's output is checked against the answer
the generator built in.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
MIN_REQUESTS = 100  # the p90 needs ten samples beyond it
SETUP_REPEATS = 5
CLI_SAMPLE = 3  # in-process workloads also send this many requests through the CLI when traced


class BudgetExceeded(BaseException):
    """Raised by SIGALRM inside a request that ran past its budget.

    A BaseException, so no ``except Exception`` in the code under test
    swallows it.
    """


def _on_alarm(signum, frame):
    raise BudgetExceeded()


def _arm(seconds: float) -> None:
    signal.setitimer(signal.ITIMER_REAL, seconds)


def _disarm() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Outcome:
    seconds: float
    status: str  # ok | wrong | error | timeout
    report: str = ""
    patch: str = ""
    detail: str = ""


def answer_of(report: dict, patch: str) -> dict:
    """The parts of a machine report a request's expected answer fixes."""
    return {
        "dependencies": report["dependencies"],
        "imports": report["imports"],
        "cost": report["cost"],
        "bindings": {render: [b["fqn"], b["dependency"]] for render, b in report["bindings"].items()},
        "builtins": sorted(row["render"] for row in report["sketches"] if row["status"] == "builtin"),
        "unresolved": report["unresolved"],
        "ambiguities": report["ambiguities"],
        "patch": patch,
    }


def _checked(request: workloads.Request, seconds: float, report_text: str, patch: str) -> Outcome:
    got = answer_of(json.loads(report_text), patch)
    want = request.expected.as_dict()
    if got == want:
        return Outcome(seconds, "ok", report_text, patch)
    diff = sorted(key for key in want if got.get(key) != want[key])
    return Outcome(seconds, "wrong", report_text, patch, f"{request.rid}: differs in {', '.join(diff)}")


class InProcess:
    """Requests resolved in this process against a loaded knowledge base."""

    def __init__(self, kb, budget_s: float, tracer: spans.Tracer | None = None):
        self.kb = kb
        self.budget_s = budget_s
        self.tracer = tracer

    def run(self, request: workloads.Request, traced: bool = False) -> Outcome:
        import depsketch.cli as cli
        import depsketch.resolver as resolver

        root = self.tracer.open(request.rid, "request", "request") if traced else None
        start = time.perf_counter()
        try:
            _arm(self.budget_s)
            resolution = resolver.resolve(request.source, self.kb)
            patch = resolver.emit_patch(resolution, request.source)
            _disarm()
            seconds = time.perf_counter() - start
        except BudgetExceeded:
            return Outcome(self.budget_s, "timeout", detail=f"{request.rid}: over {self.budget_s} s")
        except Exception as exc:  # any raise is a failed request, recorded with its message
            _disarm()
            return Outcome(time.perf_counter() - start, "error", detail=f"{request.rid}: {exc!r}")
        finally:
            if root is not None:
                self.tracer.close(root)
        report_text = json.dumps(cli.build_report(resolution), indent=2, sort_keys=True) + "\n"
        return _checked(request, seconds, report_text, patch)


class Cli:
    """Requests sent as one ``depsketch resolve`` process each."""

    def __init__(self, root: Path, work: Path, dump: Path, budget_s: float, tracer: spans.Tracer | None = None):
        self.work = work
        self.dump = dump
        self.budget_s = budget_s
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.peak_rss_kb = 0

    def _command(self, args: list[str], traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(HERE / "traced_cli.py"), str(self.work / "child-spans.json"), *args]
        return [sys.executable, "-m", "depsketch", *args]

    def call(self, args: list[str], unit: str | None = None, kind: str = "cli") -> tuple[int | None, float, bytes]:
        """Run one CLI process; returns exit code (None on timeout), seconds, stdout."""
        out_path = self.work / "child-stdout.txt"
        root = self.tracer.open(unit, kind, "cli.process") if unit is not None else None
        (self.work / "child-spans.json").unlink(missing_ok=True)
        with open(out_path, "wb") as out, open(self.work / "child-stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(self._command(args, root is not None), stdout=out, stderr=err, env=self.env)
            try:
                _arm(self.budget_s)
                _, status, usage = os.wait4(proc.pid, 0)
                _disarm()
                code = os.waitstatus_to_exitcode(status)
            except BudgetExceeded:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                code = None
            proc.returncode = os.waitstatus_to_exitcode(status)
            seconds = time.perf_counter() - start
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if root is not None:
            self.tracer.close(root)
            if code is not None:
                rows = json.loads((self.work / "child-spans.json").read_text())
                self.tracer.adopt(rows, root)
        return code, seconds, out_path.read_bytes()

    def run(self, request: workloads.Request, traced: bool = False) -> Outcome:
        source = self.work / "snippets" / f"{request.rid}.java"
        patch_path = self.work / "patched.java"
        patch_path.unlink(missing_ok=True)
        args = ["resolve", str(source), "--kb", str(self.dump), "--output", "machine", "--patch", str(patch_path)]
        code, seconds, stdout = self.call(args, f"cli:{request.rid}" if traced else None)
        if code is None:
            return Outcome(self.budget_s, "timeout", detail=f"{request.rid}: over {self.budget_s} s")
        if code != 0:
            stderr = (self.work / "child-stderr.txt").read_text(errors="replace").strip()
            return Outcome(seconds, "error", detail=f"{request.rid}: exit {code}: {stderr[-300:]}")
        return _checked(request, seconds, stdout.decode(), patch_path.read_text(encoding="utf-8"))


def _nearest_rank(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def _write_inputs(wl: workloads.Workload, work: Path) -> list[tuple[Path, str]]:
    (work / "listings").mkdir(parents=True)
    (work / "snippets").mkdir()
    listings = []
    for index, (dep, text) in enumerate(wl.listings):
        path = work / "listings" / f"{index:03d}.txt"
        path.write_text(text, encoding="utf-8")
        listings.append((path, dep))
    for request in [wl.warmup, *wl.requests, *wl.probes]:
        (work / "snippets" / f"{request.rid}.java").write_text(request.source, encoding="utf-8")
    return listings


def run_workload(
    root: Path,
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: Path,
    *,
    tiny: bool = False,
    min_requests: int = MIN_REQUESTS,
    setup_repeats: int = SETUP_REPEATS,
    corrupt=None,
) -> dict:
    """Run one workload; returns the result record (the JSON line and more).

    ``corrupt``, if given, is applied to the generated workload before the
    run; the self-tests use it to show a wrong expected answer is caught.
    """
    from depsketch import Coordinate, KnowledgeBase

    wl = workloads.build(name, seed, tiny=tiny)
    if corrupt is not None:
        corrupt(wl)
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    listings = _write_inputs(wl, work)
    dump = work / "kb.txt"
    tracer = spans.Tracer() if trace else None
    restore = spans.install(tracer) if trace else None
    problems: list[str] = []
    setup_times: list[float] = []
    cli = Cli(root, work, dump, wl.budget_s, tracer)
    ingest = ["ingest", "--kb", str(dump)]
    for path, dep in listings:
        ingest += ["--classes", str(path), "--dep", dep]
    dumps: set[bytes] = set()

    def setup():
        """One set-up: build (CLI) or load (in-process) the KB, then a warm-up request."""
        rep = len(setup_times)
        start = time.perf_counter()
        if wl.via_cli:
            dump.unlink(missing_ok=True)
            code, _, _ = cli.call(ingest, f"setup{rep}" if trace else None, "setup")
            runner = cli
        else:
            unit = tracer.open(f"setup{rep}", "setup", "setup") if trace else None
            kb = KnowledgeBase.load(dump)
            if unit is not None:
                tracer.close(unit)
            code, runner = 0, InProcess(kb, wl.budget_s, tracer)
        warm = runner.run(wl.warmup)
        setup_times.append(time.perf_counter() - start)
        if code != 0 or warm.status != "ok":
            problems.append(f"setup {rep}: ingest exit {code}, warm-up {warm.status} {warm.detail}")
        dumps.add(dump.read_bytes() if dump.exists() else b"")
        return runner

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if not wl.via_cli:
            # Preparation, outside set-up: the dump in-process set-ups load.
            prep = tracer.open("prep", "setup", "setup") if trace else None
            kb = KnowledgeBase()
            for path, dep in listings:
                kb.ingest_class_listing(path, Coordinate.parse(dep))
            kb.save(dump)
            if prep is not None:
                tracer.close(prep)
        runner = setup()
        outcomes: list[Outcome] = []
        extra: dict = {}
        if not trace:
            # Closed loop over whole passes, so every run's percentiles are
            # taken over the same mix of requests.  The remaining set-ups are
            # spread over the run, so set-up time is sampled across the same
            # machine conditions as the requests; it is not request time.
            start = time.perf_counter()
            in_setup = elapsed = 0.0
            while elapsed < seconds or len(outcomes) < min_requests or len(outcomes) % len(wl.requests):
                if len(setup_times) < setup_repeats and elapsed >= seconds * len(setup_times) / setup_repeats:
                    before = time.perf_counter()
                    setup()
                    in_setup += time.perf_counter() - before
                outcome = runner.run(wl.requests[len(outcomes) % len(wl.requests)])
                outcome.report = outcome.patch = ""  # checked; kept, they would swell peak RSS
                outcomes.append(outcome)
                elapsed = time.perf_counter() - start - in_setup
            while len(setup_times) < setup_repeats:
                setup()
            latencies = [o.seconds * 1000.0 for o in outcomes]
            if wl.via_cli:
                peak_kb = cli.peak_rss_kb
            else:
                peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = {
                "latency_p50_ms": (statistics.median(latencies), "ms"),
                "latency_p90_ms": (_nearest_rank(latencies, 0.9), "ms"),
                "throughput_rps": (sum(o.status == "ok" for o in outcomes) / elapsed, "1/s"),
                "setup_s": (statistics.median(setup_times), "s"),
                "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            }
        else:
            while len(setup_times) < setup_repeats:
                setup()
            probed = [runner.run(probe) for probe in wl.probes]
            timeouts = sum(o.status == "timeout" for o in probed)
            problems += [f"probe {o.status}: {o.detail}" for o in probed if o.status in ("wrong", "error")]
            plain_ms, traced_ms = [], []
            for index, request in enumerate(wl.requests):
                plain = runner.run(request)
                traced = runner.run(request, traced=True)
                outcomes += [plain, traced]
                plain_ms.append(plain.seconds * 1000.0)
                traced_ms.append(traced.seconds * 1000.0)
                if (plain.report, plain.patch) != (traced.report, traced.patch):
                    problems.append(f"{request.rid}: traced output differs from untraced")
                if not wl.via_cli and index < CLI_SAMPLE:
                    via_cli = cli.run(request, traced=True)
                    outcomes.append(via_cli)
                    if (plain.report, plain.patch) != (via_cli.report, via_cli.patch):
                        problems.append(f"{request.rid}: CLI output differs from in-process")
            if wl.via_cli:
                layer = spans.summarize(tracer, "cli", "cli.process")
            else:
                layer = spans.summarize(tracer, "request", "request")
            layer["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(plain_ms)
            layer["solver.budget_timeouts"] = timeouts
            if layer["trace.self_time_share"] < 0.9:
                problems.append(f"layer self times cover only {layer['trace.self_time_share']:.1%} of request time")
            metrics = {key: (value, _unit(key)) for key, value in layer.items()}
            tracer.write(work / "spans.json")
            extra = {"probes": len(wl.probes), "probe_timeouts": timeouts, "probe_budget_s": wl.budget_s}
        if len(dumps) != 1:
            problems.append("repeated set-ups left different knowledge-base dumps")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        if restore is not None:
            restore()

    failures = [o for o in outcomes if o.status != "ok"]
    problems += [f"{o.status}: {o.detail}" for o in failures if o.status in ("wrong", "error")]
    record = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "input_sha256": wl.digest(),
        "requests_per_pass": len(wl.requests),
        "budget_s": wl.budget_s,
        "failed_share": len(failures) / len(outcomes) if outcomes else 0.0,
        "timeouts": sum(o.status == "timeout" for o in failures),
        "latencies_ms": [round(o.seconds * 1000.0, 3) for o in outcomes],
        "problems": problems,
        "environment": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        },
        **extra,
    }
    (work / "result.json").write_text(json.dumps({**record, **details}, indent=2) + "\n")
    return {**record, "details": details}


def _unit(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith(("_ratio", "_share", "_yield")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "depsketch" / "__init__.py").is_file():
        print(f"error: no depsketch sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import depsketch

    if not Path(depsketch.__file__).resolve().is_relative_to(root.resolve()):
        print(f"error: depsketch imported from {depsketch.__file__}, not from this checkout", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}"
    result = run_workload(root, args.workload, args.seed, args.seconds, bool(args.trace), work)
    details = result.pop("details")
    print(f"workload {args.workload} seed {args.seed} inputs sha256 {details['input_sha256']}")
    print(
        f"attempted {result['attempted']} failed {result['failed']} "
        f"(failed_share {details['failed_share']:.4f}, timeouts {details['timeouts']})"
    )
    if "probes" in details and details["probes"]:
        print(
            f"over-budget probes: {details['probe_timeouts']} of {details['probes']} "
            f"timed out at {details['probe_budget_s']} s"
        )
    for problem in details["problems"]:
        print(f"problem: {problem}")
    for key, metric in result["metrics"].items():
        print(f"{key} {metric['value']:.6g} {metric['unit']}")
    print(f"details: {work / 'result.json'}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
