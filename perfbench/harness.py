"""Timing loop, result assembly and the end-of-run checks of the benchmark.

Imported by run.py once rframes has been imported from ./src.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
import tracing
from workloads import CheckFailed

SETUP_REPEATS = 9
SRC = Path(__file__).resolve().parent.parent / "src"
LP_RTOL = 1e-7  # ℓ1 objective against HiGHS


def ops_per_s(times) -> float:
    """Operations completed per second of program time (checks excluded)."""
    return len(times) / sum(t for _, t in times)


def median_op_ms(times, wl, large: bool = False) -> float:
    """Median, over the list's operations (only the large ones if asked), of each
    operation's mean wall time across the run's rounds, in ms.

    The reference machine runs at one of two speeds about 1.7x apart, in
    spells from under a second to minutes.  A median over single calls lands
    on whichever speed held most of the run and jumps between runs; a
    per-operation mean moves only with the share of time spent at each speed.
    """
    per_op: dict[int, list[float]] = {}
    for index, t in times:
        if not large or wl.ops[index].large:
            per_op.setdefault(index, []).append(t)
    return 1e3 * statistics.median(statistics.fmean(v) for v in per_op.values())


class Measurement:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.times: list[tuple[int, float]] = []  # (op index, seconds)
        self.objectives: dict[int, list[float]] = {}
        self.last: dict[int, object] = {}
        self.problems: list[str] = []


def measure(wl, seconds: float, m: Measurement, tracer=None, between=None) -> None:
    """Run whole rounds of wl.ops until `seconds` have passed; time each call.

    Between rounds, between(share of `seconds` gone) is called; its time is
    not counted against `seconds`.
    """
    start = time.perf_counter()
    paused = 0.0
    while True:
        for index, op in enumerate(wl.ops):
            m.attempted += 1
            if tracer is not None:
                tracer.begin(f"op.{op.kind}")
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # the op failed in the program; count it and go on
                m.failed += 1
                print(f"FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end()
            m.times.append((index, elapsed))
            m.last[index] = out
            try:
                objective = op.check(out)
            except CheckFailed as exc:
                m.problems.append(f"{op.label}: {exc}")
                continue
            if objective is not None:
                m.objectives.setdefault(index, []).append(objective)
        m.rounds += 1
        if tracer is not None:
            tracer.end_round()
        gone = time.perf_counter() - start - paused
        if gone >= seconds:
            return
        if between is not None:
            t0 = time.perf_counter()
            between(gone / seconds)
            paused += time.perf_counter() - t0


def lp_checks(wl, m: Measurement) -> str:
    """Compare every recorded ℓ1 objective with HiGHS; returns a note for the log."""
    version = oracles.scipy_version()
    if not m.objectives:
        return "no LP in this workload"
    if version is None:
        return "HiGHS check SKIPPED: scipy does not import"
    for index, values in m.objectives.items():
        op = wl.ops[index]
        ref = op.lp_reference()
        worst = max(abs(v - ref) for v in values)
        if worst > LP_RTOL * abs(ref):
            m.problems.append(f"{op.label}: objective off HiGHS {ref!r} by {worst:.3g}")
    return f"HiGHS check on {len(m.objectives)} LPs (scipy {version})"


def self_test(wl, m: Measurement) -> str:
    """Feed one corrupted output to its check; the check must reject it."""
    for index, op in enumerate(wl.ops):
        if op.corrupt is not None and index in m.last:
            try:
                op.check(op.corrupt(m.last[index]))
            except CheckFailed as exc:
                return f"self-test: corrupted {op.label} rejected ({exc})"
            m.problems.append(f"self-test: corrupted output of {op.label} passed its check")
            return "self-test FAILED"
    m.problems.append("self-test: no output to corrupt")
    return "self-test FAILED"


def summary(wl, m: Measurement) -> str:
    times = sorted(t for _, t in m.times)
    line = (f"{wl.name}: {m.rounds} rounds x {len(wl.ops)} ops, "
            f"p50 {1e3 * statistics.median(times):.3f} ms")
    if len(times) >= 40:  # a p90 with fewer than ten samples beyond it is no tail
        line += f", p90 {1e3 * times[int(0.9 * len(times))]:.3f} ms (n={len(times)})"
    return line


def traced_run(wl, args, m: Measurement, out: Path) -> dict:
    """Alternate untraced and traced rounds for --seconds; per-layer metrics per round.

    Alternating makes the two sides share the machine's slow and fast spells,
    so their difference is the tracing overhead rather than drift.
    """
    tracer = tracing.Tracer()
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        n = len(m.times)
        measure(wl, 0, m)
        untraced += m.times[n:]
        uninstall = tracing.install(tracer)
        try:
            n = len(m.times)
            measure(wl, 0, m, tracer)
            traced += m.times[n:]
        finally:
            uninstall()
        if time.perf_counter() - start >= args.seconds:
            break
    path = out / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write(str(path))
    print(f"trace: {len(tracer.spans)} spans over {tracer.rounds} traced rounds -> {path}")
    metrics = {name: {"value": v, "unit": u}
               for name, (v, u) in tracing.layer_metrics(tracer).items()}
    overhead = ops_per_s(traced) - ops_per_s(untraced)
    metrics["trace.overhead_ops_per_s"] = {"value": overhead, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * overhead / ops_per_s(untraced),
                                     "unit": "%"}
    return metrics


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import rframes (numpy included) from ./src."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import rframes; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120, env=os.environ)
    return float(proc.stdout)


def run(args, build, workdir: str, out: Path, blas_threads: int) -> int:
    """One benchmark run; prints the log lines and the JSON result, returns the exit code.

    A set-up is an import of rframes in a fresh interpreter, input
    generation, bank construction and the warm-up; the first one builds the
    workload that is measured.  An untraced run makes SETUP_REPEATS of them,
    the others spread over its timed rounds (set-up k once k/(SETUP_REPEATS-1)
    of the run has gone, the last after it), and setup_s is their median: a
    single cold import swings by half, and set-ups made back to back all
    land in whichever of the machine's speed states holds at the start.
    """
    setups, imports = [], []

    def set_up():
        imports.append(import_seconds())
        start = time.perf_counter()
        wl = build(args.seed, workdir)
        wl.warm_up()
        setups.append(imports[-1] + time.perf_counter() - start)
        return wl

    def due(share: float) -> None:
        while len(setups) < SETUP_REPEATS and len(setups) <= share * (SETUP_REPEATS - 1):
            set_up()

    wl = set_up()
    m = Measurement()
    m.problems.extend(wl.problems)
    if args.trace:
        metrics = traced_run(wl, args, m, out)
    else:
        measure(wl, args.seconds, m, between=due)
        due(1.0)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "ops_per_s": {"value": ops_per_s(m.times), "unit": "1/s"},
            "latency_p50_ms": {"value": median_op_ms(m.times, wl), "unit": "ms"},
            "latency_large_p50_ms": {"value": median_op_ms(m.times, wl, large=True),
                                     "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(summary(wl, m))
    print(lp_checks(wl, m))
    print(self_test(wl, m))
    print(f"BLAS threads pinned to {blas_threads}; setup runs (s): "
          + ", ".join(f"{s:.4f}" for s in setups) + "; of which import: "
          + ", ".join(f"{s:.4f}" for s in imports))
    for problem in m.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print(json.dumps({"correct": not m.problems, "attempted": m.attempted,
                      "failed": m.failed, "metrics": metrics}))
    return 0
