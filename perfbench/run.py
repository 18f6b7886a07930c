#!/usr/bin/env python3
"""rframes benchmark.

    python3 perfbench/run.py --workload {spectral,recover,denoise,certify}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ./src, never from
an installed copy.  Each run repeats whole rounds of the workload's fixed
operation list until S seconds have passed, checks every output against
``oracles``, and prints a JSON result as its last line of standard output.
With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
run alternates untraced and traced rounds for S seconds and reports the
per-layer metrics, the tracing overhead and a span file under perfbench/out/.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from pathlib import Path

# OpenBLAS threads, pinned before numpy loads; at most the 2 cores the
# reference figures were taken on, and 1 keeps runs steady.
BLAS_THREADS = 1

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


class ProgramMissing(Exception):
    pass


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program() -> None:
    """Import rframes from ./src."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rframes
    except ImportError as exc:
        raise ProgramMissing(f"cannot import rframes from {src}: {exc}") from exc
    if not Path(rframes.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"rframes resolved to {rframes.__file__}, not under {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectral", "recover", "denoise", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_blas_threads()
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    try:
        return harness.run(args, workloads.WORKLOADS[args.workload], str(workdir), OUT,
                           BLAS_THREADS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
