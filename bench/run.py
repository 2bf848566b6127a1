"""Benchmark for revcirc: drives ``revcirc.cli.main`` in-process and checks every answer.

Run from the repository root:

    python3 bench/run.py --workload enum-profile --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --smoke

One process, one thread, one closed-loop client: each command starts when
the previous one has returned. The workload's command list (a "round", see
workloads.py) is repeated until ``--seconds`` have passed, and every report
is checked against closed forms (checks.py) outside the timed region.

Every command and set-up is bracketed by a fixed probe of the host's speed,
and its time is given in seconds at a reference speed (speed.py). With
``--trace 0`` the last stdout line carries the end-to-end metrics (each
command at its median round, set-up at its median); with ``--trace 1``
untraced and traced rounds alternate, and it carries the per-layer metrics
of the traced rounds (spans.py) plus the tracing overhead. The spans are written to
``.bench_trace/<workload>.jsonl.gz``, replacing the previous run's. ``--smoke`` runs every
workload at tiny sizes, both ways, and tests the checker and the trace
writer; it exits 0 only if all of that holds.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import spans
import speed
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS_PER_ROUND = 3  # set-ups are short; sample many, spread over the run
MAX_TRACED_ROUNDS = 3  # bounds the span log's memory (about 230k spans a round)
MAX_PROBLEMS_SHOWN = 5


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_cli():
    """Import ``revcirc.cli`` afresh from this checkout's ``src/``."""
    if not (SRC / "revcirc" / "__init__.py").is_file():
        raise BenchError(f"no revcirc package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "revcirc" or m.startswith("revcirc.")]:
        del sys.modules[name]
    cli = importlib.import_module("revcirc.cli")
    if Path(cli.__file__).resolve().parent != SRC / "revcirc":
        raise BenchError(f"imported revcirc from {cli.__file__}, not from {SRC}")
    return cli


def invoke(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Run one command; return (exit code, stdout, stderr, seconds).

    An exception escaping the CLI counts as exit code -1: it is a failed
    command, and the run goes on.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:
            code = -1
            traceback.print_exc()
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def set_up(plan: workloads.Plan):
    """Import revcirc and write the workload's input circuits; return (seconds, cli).

    The seconds are at the reference speed (speed.py), from probes run just
    before and just after.
    """
    before = speed.probe()
    start = time.perf_counter()
    cli = load_cli()
    for argv in plan.setup:
        code, _, err, _ = invoke(cli, argv)
        if code != 0:
            raise BenchError(f"set-up command {argv} exited {code}: {err[-500:]}")
    elapsed = time.perf_counter() - start
    return speed.scaled(elapsed, before, speed.probe()), cli


class Rounds:
    """Latencies and failures of the rounds run so far."""

    def __init__(self, plan: workloads.Plan) -> None:
        self.plan = plan
        self.latencies: list[list[float]] = []  # [round][command] seconds at the reference speed
        self.raw: list[list[float]] = []  # [round][command] seconds as measured
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.self_tested: set[str] = set()  # kinds whose corrupted report was tried
        self.checker_misses: list[str] = []

    def run(self, cli, tracer: spans.Tracer | None = None, round_no: int = 0,
            self_test: bool = False) -> None:
        gc.collect()
        times = []
        probes = [speed.probe()]  # probes[i] and probes[i + 1] bracket command i
        for cmd in self.plan.commands:
            kind = cmd.expect["kind"]
            if tracer is not None:
                tracer.begin_command(round_no, kind)
            code, out, err, elapsed = invoke(cli, cmd.argv)
            probes.append(speed.probe())
            times.append(elapsed)
            self.attempted += 1
            try:
                problems = checks.check(cmd.expect, code, out)
            except Exception as exc:  # a report too malformed to check is wrong
                problems = [f"malformed report: {exc!r}"]
            if problems:
                self.failed += 1
                detail = f"; stderr: {err.strip()[-300:]}" if err.strip() else ""
                self.problems.append(f"{' '.join(cmd.argv)[:120]}: {'; '.join(problems)}{detail}")
            elif self_test and kind not in self.self_tested:
                self.self_tested.add(kind)
                if not checks.check(cmd.expect, code, checks.corrupt(kind, out)):
                    self.checker_misses.append(kind)
        self.raw.append(times)
        self.latencies.append([speed.scaled(t, before, after)
                               for t, before, after in zip(times, probes, probes[1:])])

    def command_latencies(self, rounds: int | None = None, raw: bool = False) -> list[float]:
        """Latency of each command of the list: its median over the rounds.

        Scaled to the reference speed by default (speed.py); `raw` gives
        the medians of the times as measured.
        """
        table = self.raw if raw else self.latencies
        return [statistics.median(column) for column in zip(*table[:rounds])]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(plan: workloads.Plan, rounds: Rounds, setups: list[float], peak_mb: float) -> dict:
    latency = rounds.command_latencies()
    wall = sum(latency)
    gates, rows, trials = plan.total("gates"), plan.total("rows"), plan.total("trials")
    invert_wall = sum(t for t, c in zip(latency, plan.commands) if c.expect["kind"].startswith("invert"))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latency, 95) * 1e3, "ms"),
        "gates_per_s": (gates / wall, "gates/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    # Not gated: zero on some workloads, and fixed work over wall_s where not.
    shown = {
        "rows_per_s": (rows / wall if rows else 0.0, "rows/s"),
        "trials_per_s": (trials / invert_wall if trials else 0.0, "trials/s"),
        "failed_ratio": (rounds.failed / rounds.attempted, "ratio"),
        # The same command list as measured, without scaling to the reference speed.
        "wall_measured_s": (sum(rounds.command_latencies(raw=True)), "s"),
    }
    notes = [
        f"rounds: {len(rounds.latencies)}; latency percentiles over {len(latency)} commands "
        f"(each its median round); set-ups: {len(setups)} (first {setups[0]:.4f} s)",
        f"times are seconds at the reference speed, where the probe takes {speed.REFERENCE_S} s",
        f"per round: {rows} rows asked, {gates} gates read or written, {trials} trials",
    ]
    return {"metrics": metrics, "shown": shown, "notes": notes}


def per_layer(plan: workloads.Plan, tracer: spans.Tracer, traced: Rounds, untraced: Rounds) -> dict:
    metrics = tracer.log.metrics(len(traced.latencies), plan.total("rows"), plan.total("rows", "profile"))
    # Compare with the untraced rounds paired with traced ones, so both
    # medians are taken over the same number of rounds.
    plain = sum(untraced.command_latencies(len(traced.latencies)))
    overhead = sum(traced.command_latencies()) - plain
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = [
        f"traced rounds: {len(traced.latencies)}, untraced rounds: {len(untraced.latencies)}, "
        f"spans: {len(tracer.log)}; values are per round",
        f"tracing overhead: {overhead:.4f} s per round ({overhead / plain:.1%} of untraced wall_s)",
    ]
    return {"metrics": metrics, "shown": {}, "notes": notes}


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full",
            trace_path: Path | None = None, self_test: bool = False) -> dict:
    """One benchmark run; returns the result object plus human-readable notes.

    revcirc is imported afresh and its inputs rewritten before every round,
    so set-up is sampled across the whole run rather than in one spell of
    the host's speed.
    """
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = workloads.build(workload, seed, work, size)
        setups: list[float] = []
        untraced = Rounds(plan)
        traced = Rounds(plan)
        tracer = spans.Tracer()
        deadline = time.perf_counter() + seconds
        round_no = 0
        peak_mb = 0.0
        while True:
            for _ in range(SETUPS_PER_ROUND):
                elapsed, cli = set_up(plan)
                setups.append(elapsed)
            untraced.run(cli, self_test=self_test)
            if round_no == 0:
                # Later rounds' re-imports and heap fragmentation raise the
                # high-water mark with the round count, so read it once.
                peak_mb = peak_rss_mb()
            if trace and len(traced.latencies) < MAX_TRACED_ROUNDS:
                tracer.install()
                try:
                    traced.run(cli, tracer, round_no)
                finally:
                    tracer.uninstall()
            round_no += 1
            if time.perf_counter() >= deadline:
                break
        if not trace:
            report = end_to_end(plan, untraced, setups, peak_mb)
            everything = [untraced]
        else:
            report = per_layer(plan, tracer, traced, untraced)
            rounds_seen = tracer.log.round_counts()
            if any(c != rounds_seen[0] for c in rounds_seen):
                traced.failed += 1
                traced.problems.append("call counts differ between traced rounds of one command list")
            if trace_path is not None:
                tracer.log.write(trace_path, workload=workload, seed=seed, rounds=len(traced.latencies))
                report["notes"].append(f"spans written to {trace_path.relative_to(ROOT)}")
            everything = [untraced, traced]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    report["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report["metrics"].items()},
    }
    report["problems"] = [p for r in everything for p in r.problems]
    report["checker_misses"] = [k for r in everything for k in r.checker_misses]
    report["self_tested"] = {k for r in everything for k in r.self_tested}
    report["plan"] = plan
    return report


def print_report(workload: str, report: dict) -> None:
    for note in report["notes"]:
        print(f"# {workload}: {note}")
    for name, (value, unit) in {**report["metrics"], **report["shown"]}.items():
        print(f"{workload:>12}  {name:<34} {value:>16.6g} {unit}")
    for problem in report["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps(report["result"]))


def smoke() -> list[str]:
    """Every workload at tiny sizes, traced and untraced; returns failures."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: sorted(m["name"] for m in spec["end_to_end"]),
        True: sorted(m["name"] for m in spec["per_layer"]),
    }
    failures = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            path = ROOT / ".bench_trace" / f"smoke-{workload}.jsonl.gz"
            report = measure(workload, seed=7, seconds=0, trace=trace, size="smoke",
                             trace_path=path, self_test=True)
            print_report(workload, report)
            result = report["result"]
            if not result["correct"]:
                failures.append(f"{workload}: wrong answers: {report['problems'][:2]}")
            if sorted(result["metrics"]) != want[trace]:
                failures.append(f"{workload}: metrics differ from BENCHMARK.json (trace={trace})")
            if trace:
                reread = spans.SpanLog.read(path)
                plan = report["plan"]
                again = reread.metrics(1, plan.total("rows"), plan.total("rows", "profile"))
                if any(again[k] != report["metrics"][k] for k in again):
                    failures.append(f"{workload}: metrics from the written trace differ")
                path.unlink()
            kinds = {c.expect["kind"] for c in report["plan"].commands}
            if report["self_tested"] != kinds:
                failures.append(f"{workload}: checker not self-tested on {kinds - report['self_tested']}")
            for kind in report["checker_misses"]:
                failures.append(f"{workload}: a corrupted {kind} report passed the checker")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, self-tests")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "revcirc" / "__init__.py").is_file():
            raise BenchError(f"no revcirc package under {SRC}")
        if args.smoke:
            failures = smoke()
            for failure in failures:
                print(f"SMOKE FAILED: {failure}", file=sys.stderr)
            return 1 if failures else 0
        if args.workload is None:
            parser.error("--workload is required")
        trace_path = ROOT / ".bench_trace" / f"{args.workload}.jsonl.gz"
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), trace_path=trace_path)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print_report(args.workload, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
