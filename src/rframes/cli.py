"""Command-line front end.

Subcommands: rsum, frame-check, period-id, recover, denoise, reproduce.
Every run is deterministic given its inputs and --seed; with --out DIR each
command drops a request.json (the parsed invocation) and a response.json,
plus CSVs where a table or signal triple is produced.  Exit codes: 0 ok,
2 precondition violation, 3 solver failure, 4 I/O error.  Set RFRAMES_LOG to
a level name (DEBUG, INFO, ...) for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys

import numpy as np

from .errors import PreconditionError, SolverError
from .experiments import run_erasures, run_examples, run_fusion, run_tables
from .filterbank import (
    RamanujanFilterBank,
    _checked_pairs,
    _period_scan,
    uniform_bank,
)
from .frames import frame_report
from .io import (
    check_size,
    frame_report_dict,
    json_dumps,
    read_bank,
    read_pairs,
    read_signal,
    write_csv,
    write_json,
    write_signal,
)
from .numtheory import ramanujan_sum
from .recovery import (
    GaussianNoiseModel,
    add_noise,
    all_pairs,
    denoise,
    detect_support_set,
    recover_missing,
    recover_missing_periodic,
    snr_db,
    truncated_sum,
)

log = logging.getLogger("rframes")


def _setup_logging() -> None:
    level = os.environ.get("RFRAMES_LOG", "").upper()
    if level:
        logging.basicConfig(
            stream=sys.stderr,
            level=getattr(logging, level, logging.INFO),
            format="%(levelname)s %(name)s: %(message)s",
        )


def _outdir(args) -> str | None:
    if args.out is None:
        return None
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _dump(outdir: str | None, request: dict, response: dict) -> None:
    if outdir is None:
        return
    write_json(os.path.join(outdir, "request.json"), request)
    write_json(os.path.join(outdir, "response.json"), response)
    log.info("wrote %s", os.path.join(outdir, "response.json"))


def _bank_from(args) -> RamanujanFilterBank:
    if getattr(args, "bank", None):
        return read_bank(args.bank)
    if args.n is None or args.p is None:
        raise PreconditionError("give either --bank or both --n and --p")
    return uniform_bank(args.n, args.p)


def _parse_periods(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise PreconditionError(f"bad --periods value {text!r}") from exc


def cmd_rsum(args) -> int:
    n = args.n if args.n is not None else check_size(args.q)
    c = ramanujan_sum(args.q, n)
    print(",".join(str(int(v)) for v in c))
    outdir = _outdir(args)
    if outdir:
        request = {"command": "rsum", "q": args.q, "n": n}
        response = {"q": args.q, "n": n, "values": [int(v) for v in c]}
        _dump(outdir, request, response)
        if args.format == "csv":
            write_signal(os.path.join(outdir, "rsum.csv"), c.astype(float), fmt="csv")
    return 0


def cmd_frame_check(args) -> int:
    bank = _bank_from(args)
    report = frame_report(bank)
    body = frame_report_dict(report)
    print(f"N={bank.n} p={bank.ratio}: {report.classification} (A={report.A:.6g}, "
          f"B={report.B:.6g})")
    request = {"command": "frame-check", "n": bank.n,
               "channels": [{"q": ch.q, "p": ch.p} for ch in bank.channels]}
    _dump(_outdir(args), request, body)
    return 0


def cmd_period_id(args) -> int:
    x = read_signal(args.signal)
    n = args.n if args.n is not None else len(x)
    period, responding, energies = _period_scan(x, n, 1e-8)
    print(f"period {period}")
    request = {"command": "period-id", "signal": args.signal, "n": n}
    response = {
        "n": n,
        "period": period,
        "responding": [int(q) for q in responding],
        "energies": [float(e) for e in energies],
    }
    _dump(_outdir(args), request, response)
    return 0


def _bank_and_signal(args) -> tuple[RamanujanFilterBank, np.ndarray]:
    """The bank and --signal of recover and denoise, checked to have one length."""
    bank = _bank_from(args)
    x = read_signal(args.signal)
    if len(x) != bank.n:
        raise PreconditionError(f"signal length {len(x)} does not match bank N={bank.n}")
    return bank, x


def _gain_text(gain: float) -> str:
    return f"SNR gain {gain:.4f} dB" if np.isfinite(gain) else "SNR gain inf dB"


def _dump_signals(args, request: dict, response: dict, columns: dict, name: str) -> None:
    """_dump, with signals.csv of the columns and column ``name`` as its own signal file."""
    outdir = _outdir(args)
    _dump(outdir, request, response)
    if outdir:
        write_csv(os.path.join(outdir, "signals.csv"), columns)
        write_signal(os.path.join(outdir, f"{name}.{args.format}"), columns[name],
                     fmt=args.format)


def cmd_recover(args) -> int:
    bank, x = _bank_and_signal(args)
    missing = _checked_pairs(bank, read_pairs(args.missing))
    missing_set = set(missing)
    retained = [pr for pr in all_pairs(bank) if pr not in missing_set]
    observed = truncated_sum(x, retained, bank)
    periods = _parse_periods(args.periods) if args.periods else None
    log.info("recovering %d missing coefficients (periods=%s)", len(missing), periods)
    if periods is None:
        xhat = recover_missing(observed, retained, bank)
    else:
        xhat = recover_missing_periodic(observed, retained, bank, periods)
    snr_before = snr_db(x, x - observed)
    snr_after = snr_db(x, x - xhat)
    sup_err = float(np.abs(x - xhat).max())
    print(f"sup error {sup_err:.6g}; " + _gain_text(snr_after - snr_before))
    request = {
        "command": "recover", "signal": args.signal, "missing": args.missing,
        "n": bank.n, "periods": list(periods) if periods else None,
    }
    response = {
        "n": bank.n,
        "n_missing": len(missing),
        "periods": list(periods) if periods else None,
        "snr_before_db": snr_before,
        "snr_after_db": snr_after,
        "snr_gain_db": snr_after - snr_before,
        "sup_error": sup_err,
    }
    _dump_signals(args, request, response,
                  {"original": x, "observed": observed, "recovered": xhat}, "recovered")
    return 0


def cmd_denoise(args) -> int:
    bank, x = _bank_and_signal(args)
    noisy = args.snr_db is not None
    y = add_noise(x, GaussianNoiseModel(args.snr_db), seed=args.seed) if noisy else x.copy()
    detected = detect_support_set(y, bank, args.threshold)
    log.info("detected channels %s", detected.channels)
    xhat = denoise(y, detected, bank)
    snr_before = snr_db(x, y - x) if noisy else float("inf")
    snr_after = snr_db(x, x - xhat)
    gain = snr_after - snr_before
    if gain != gain:  # inf − inf: noiseless input recovered exactly
        gain = float("inf")
    print(f"channels {','.join(str(q) for q in detected.channels)}; " + _gain_text(gain))
    request = {
        "command": "denoise", "signal": args.signal, "n": bank.n,
        "snr_db": args.snr_db, "threshold": args.threshold, "seed": args.seed,
    }
    response = {
        "n": bank.n,
        "estimated_components": list(detected.channels),
        "n_membership": len(detected.pairs),
        "snr_before_db": snr_before,
        "snr_after_db": snr_after,
        "snr_gain_db": gain,
    }
    _dump_signals(args, request, response,
                  {"original": x, "noisy": y, "denoised": xhat}, "denoised")
    return 0


# what reproduce runs for each target name, in the order the parser lists them
_TARGETS = {
    "examples": lambda seed: run_examples(),
    "tables": lambda seed: run_tables(seed=seed),
    "erasures": lambda seed: run_erasures(),
    "fusion": lambda seed: run_fusion(),
}


def cmd_reproduce(args) -> int:
    outdir = _outdir(args)
    which = args.which
    log.info("reproduce %s (seed %d)", which, args.seed)
    body = _TARGETS[which](args.seed)
    request = {"command": "reproduce", "which": which, "seed": args.seed}
    if outdir:
        _dump(outdir, request, body)
        if which == "tables":
            t1, t2 = body["table1"], body["table2"]
            write_csv(os.path.join(outdir, "table1.csv"), {
                "row": [r["row"] for r in t1],
                "n_missing": [r["n_missing"] for r in t1],
                "condition": [r["condition"] for r in t1],
                "bound": [r["bound"] for r in t1],
                "gain_plain_db": [r["gain_plain_db"] for r in t1],
                "gain_periodic_db": [r["gain_periodic_db"] for r in t1],
                "sup_err_periodic": [r["sup_err_periodic"] for r in t1],
            })
            write_csv(os.path.join(outdir, "table2.csv"), {
                "row": [r["row"] for r in t2],
                "true_components": ["|".join(map(str, r["true_components"])) for r in t2],
                "estimated_components": ["|".join(map(str, r["estimated_components"])) for r in t2],
                "n_membership": [r["n_membership"] for r in t2],
                "condition": [r["condition"] for r in t2],
                "snr_in_db": [r["snr_in_db"] for r in t2],
                "gain_db": [r["gain_db"] for r in t2],
                "unique": [r["unique"] for r in t2],
            })
    else:
        print(json_dumps(body))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse_args returns a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="rframes",
        description="Ramanujan-sum filter banks: frames, period detection, "
                    "erasures, and ℓ1 recovery on Z_N.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *flags: str) -> None:
        if "n" in flags:
            p.add_argument("--n", type=int, default=None, help="signal length N")
        if "p" in flags:
            p.add_argument("--p", type=int, default=None, help="decimation ratio")
        if "bank" in flags:
            p.add_argument("--bank", type=str, default=None, help="bank JSON path")
        if "out" in flags:
            p.add_argument("--out", type=str, default=None, help="report directory")
        if "format" in flags:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if "seed" in flags:
            p.add_argument("--seed", type=int, default=0)

    p_rsum = sub.add_parser("rsum", help="print a Ramanujan sum over Z_N")
    p_rsum.add_argument("--q", type=int, required=True)
    common(p_rsum, "n", "out", "format")
    p_rsum.set_defaults(func=cmd_rsum)

    p_fc = sub.add_parser("frame-check", help="frame bounds and classification")
    common(p_fc, "n", "p", "bank", "out")
    p_fc.set_defaults(func=cmd_frame_check)

    p_pid = sub.add_parser("period-id", help="identify the period of a signal")
    p_pid.add_argument("--signal", type=str, required=True)
    common(p_pid, "n", "out")
    p_pid.set_defaults(func=cmd_period_id)

    p_rec = sub.add_parser("recover", help="ℓ1 recovery from missing coefficients")
    p_rec.add_argument("--signal", type=str, required=True)
    p_rec.add_argument("--missing", type=str, required=True,
                       help="pairs JSON of missing (k, i)")
    p_rec.add_argument("--periods", type=str, default=None,
                       help="comma-separated divisors, e.g. 5,7")
    common(p_rec, "n", "p", "bank", "out", "format")
    p_rec.set_defaults(func=cmd_recover)

    p_den = sub.add_parser("denoise", help="detect components and denoise")
    p_den.add_argument("--signal", type=str, required=True)
    p_den.add_argument("--snr-db", dest="snr_db", type=float, default=None,
                       help="add white Gaussian noise at this SNR first")
    p_den.add_argument("--threshold", type=float, default=0.45)
    common(p_den, "n", "p", "bank", "out", "format", "seed")
    p_den.set_defaults(func=cmd_denoise)

    p_rep = sub.add_parser("reproduce", help="run a reproduction driver")
    p_rep.add_argument("which", choices=tuple(_TARGETS))
    common(p_rep, "out", "seed")
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "n", None) is not None:
            check_size(args.n)
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
