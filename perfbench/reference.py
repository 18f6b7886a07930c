#!/usr/bin/env python3
"""Regenerate the reference figures in perfbench/README.md.

    python3 perfbench/reference.py [--trace]

Runs run.py on every workload of BENCHMARK.json, seeds 0-9, in two sets, one
run at a time, with BENCHMARK.json's run length.  For each end-to-end metric
it prints the median, the quartiles and their spread as a share of the median
(Python's statistics.quantiles(values, n=4)), per set, against the metric's
bound; then each run's p90 line.  With --trace it also runs each workload
once traced (seed 0) and prints the per-layer figures.  Exits 1 if a run is
not correct or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(10)
SETS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    """One run of run.py; returns its JSON result and its log lines, the wall time last."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), lines[:-1] + [f"run took {time.perf_counter() - start:.1f} s"]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for n in range(SETS):
            values: dict[str, list[float]] = {}
            shares = set()
            for seed in SEEDS:
                result, log = run(workload, seed, seconds, 0)
                ok &= result["correct"]
                shares.add(result["failed"] / result["attempted"])
                print(f"{workload} set {n + 1} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} | {log[0]}; "
                      f"{log[-1]}",
                      flush=True)
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
            print(f"\n| {workload} set {n + 1} | median | q1 | q3 | spread | bound |")
            print("|---|---|---|---|---|---|")
            for name, vals in values.items():
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                ok &= spread <= bounds[name]
                print(f"| {name} | {med:.5g} | {q1:.5g} | {q3:.5g} | {spread:.4f} | "
                      f"{bounds[name]} |")
            print(f"failed share: {sorted(shares)}\n", flush=True)
        if args.trace:
            result, log = run(workload, 0, seconds, 1)
            print(f"\n{workload} traced: " + "; ".join(log))
            print(f"| {workload} layer | per round | unit |\n|---|---|---|")
            for name, metric in result["metrics"].items():
                if metric["value"]:
                    print(f"| {name} | {metric['value']:.6g} | {metric['unit']} |")
            print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
