"""Spans and counters around the program's layers, recorded from outside it.

``install`` replaces each traced public function, in every rframes module
that holds it, by a wrapper that opens a span (name, start, end, parent) and
updates counters.  Replacing the module attributes catches callers that look
a name up at call time (``filterbank.circular_convolution``,
``recovery.solve_l1_lp``, the ``from .frames import frame_report`` inside
``synthesize``); the program's source is untouched.  Spans stay in memory
until ``write`` is called at the end of the run.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import Counter

import numpy as np
from rframes import cli, experiments, filterbank, frames, numtheory, recovery, simplex, subspaces
from rframes import io as rio

MODULES = (numtheory, filterbank, frames, subspaces, simplex, recovery, rio, cli, experiments)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._stack: list[list[int]] = []  # [span index, ns covered by children]
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.rounds = 0
        self.distinct_banks = 0  # summed over rounds
        self._round_banks: set = set()

    def begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append([len(self.spans) - 1, 0])

    def end(self) -> None:
        index, children = self._stack.pop()
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        duration = span[2] - span[1]
        self.self_ns[span[0]] += duration - children
        if self._stack:
            self._stack[-1][1] += duration

    def end_round(self) -> None:
        self.rounds += 1
        self.distinct_banks += len(self._round_banks)
        self._round_banks.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count(key: str):
    def hook(tracer, args, kwargs, result):
        tracer.counts[key] += 1
    return hook


def _frame_report(tracer, args, kwargs, result):
    tracer.counts["frames.frame_report_calls"] += 1
    tracer._round_banks.add(_arg(args, kwargs, 0, "bank"))


def _coefficient_rows(tracer, args, kwargs, result):
    tracer.counts["recovery.rows_built"] += result.shape[0]


def _simplex_solve(tracer, args, kwargs, result):
    rows, cols = np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "A"))).shape
    c = tracer.counts
    c["simplex.calls"] += 1
    c["simplex.iterations"] += result.iterations
    c["simplex.phase1_iterations"] += result.phase1_iterations
    c["simplex.dropped_rows"] += len(result.dropped_rows)
    c["simplex.input_rows"] += rows
    c["simplex.input_cols"] += cols


def _write_json(tracer, args, kwargs, result):
    tracer.counts["io.bytes_written"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


# (defining module, function, span name or None for a counter only, hook)
TRACED = (
    (numtheory, "circular_convolution", "numtheory.convolution",
     _count("numtheory.convolution_calls")),
    (numtheory, "ramanujan_sum", "numtheory.ramanujan_sum", _count("numtheory.ramanujan_sum_calls")),
    (filterbank, "analyze", "filterbank.analyze", None),
    (filterbank, "synthesize", "filterbank.synthesize", None),
    (filterbank, "channel_energies", "filterbank.channel_energies", None),
    (frames, "frame_report", "frames.frame_report", _frame_report),
    (subspaces, "channel_erasure_margins", "subspaces.erasure_margins", None),
    (subspaces, "robust_to_erasures", "subspaces.robust", None),
    (subspaces, "fusion_frame_check", "subspaces.fusion", None),
    (subspaces, "fusion_after_local_erasures", "subspaces.fusion", None),
    (subspaces, "build_nonuniform", "subspaces.nonuniform", None),
    (subspaces, "subspace_basis", None, _count("subspaces.subspace_basis_calls")),
    (recovery, "coefficient_rows", "recovery.coefficient_rows", _coefficient_rows),
    (recovery, "truncated_sum", "recovery.truncated_sum", None),
    (recovery, "recover_missing", "recovery.recover_self", None),
    (recovery, "recover_missing_periodic", "recovery.recover_self", None),
    (recovery, "membership_null_basis", "recovery.null_basis", None),
    (recovery, "detect_support_set", "recovery.detect", None),
    (simplex, "solve_l1_lp", "simplex.solve", None),
    (simplex, "l1_fit", "simplex.solve", None),
    (simplex, "simplex_solve", "simplex.solve", _simplex_solve),
    (cli, "main", "cli.frame_check", None),
    (rio, "write_json", "io.write_json", _write_json),
)


def _wrapper(tracer: Tracer, fn, span: str | None, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if span is not None:
            tracer.begin(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            if span is not None:
                tracer.end()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result
    return traced


def install(tracer: Tracer):
    """Wrap every traced function wherever rframes binds it; returns the undo function."""
    undo = []
    for home, name, span, hook in TRACED:
        fn = getattr(home, name)
        wrapped = _wrapper(tracer, fn, span, hook)
        for module in MODULES:
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapped)
                undo.append((module, name, fn))

    def uninstall():
        for module, name, fn in undo:
            setattr(module, name, fn)
    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures per round of the fixed list: (value, unit) by metric name."""
    r = tracer.rounds
    ms = {name: tracer.self_ns[name] / 1e6 / r for name in
          ("numtheory.convolution", "numtheory.ramanujan_sum", "filterbank.analyze",
           "filterbank.synthesize", "filterbank.channel_energies", "frames.frame_report",
           "subspaces.erasure_margins", "subspaces.robust", "subspaces.fusion",
           "subspaces.nonuniform", "recovery.coefficient_rows", "recovery.truncated_sum",
           "recovery.recover_self", "recovery.null_basis", "recovery.detect",
           "simplex.solve", "cli.frame_check", "io.write_json")}
    c = {k: v / r for k, v in tracer.counts.items()}
    out = {f"{name}_ms": (value, "ms") for name, value in ms.items()}
    for key in ("numtheory.convolution_calls", "numtheory.ramanujan_sum_calls",
                "frames.frame_report_calls", "subspaces.subspace_basis_calls",
                "recovery.rows_built", "simplex.calls", "simplex.iterations",
                "simplex.phase1_iterations", "simplex.dropped_rows", "simplex.input_rows",
                "simplex.input_cols"):
        out[key] = (c.get(key, 0.0), "count")
    out["io.bytes_written"] = (c.get("io.bytes_written", 0.0), "bytes")
    calls = tracer.counts["frames.frame_report_calls"]
    out["frames.banks_per_report"] = (tracer.distinct_banks / calls if calls else 0.0, "ratio")
    iterations = c.get("simplex.iterations", 0.0)
    out["simplex.ms_per_iteration"] = (ms["simplex.solve"] / iterations if iterations else 0.0,
                                       "ms")
    return out
