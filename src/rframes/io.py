"""File formats: signals, banks, coefficient-pair sets, and report JSON.

Output is deterministic down to the byte: a hand-rolled JSON emitter prints
every float with 12 significant digits, normalizes −0 to 0, and writes the
infinities as the strings "inf"/"-inf" (JSON itself has no spelling for
them).  All writes are atomic (temp file in the target directory, then
os.replace) so readers never observe a half-written report.

Formats
-------
signal CSV   one real per line, no header
signal JSON  {"n": N, "values": [...]}
bank JSON    {"n": N, "channels": [{"q": ..., "p": ...}, ...]}
pairs JSON   {"pairs": [[k, i], ...]}        (0-based shift and channel)

Sizes: a bank file or the CLI's --n may declare at most N = MAX_N; banks
allocate K×N filters and more at the declared size, so larger N is refused
before any bank is built.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import PreconditionError
from .filterbank import Channel, RamanujanFilterBank
from .numtheory import _is_int

__all__ = [
    "MAX_N",
    "check_size",
    "json_dumps",
    "atomic_write",
    "write_json",
    "write_csv",
    "read_signal",
    "write_signal",
    "read_bank",
    "write_bank",
    "read_pairs",
    "write_pairs",
    "frame_report_dict",
]


MAX_N = 32768  # 2**15; admits N = 30030 = 2·3·5·7·11·13


def check_size(n):
    """Return n, or raise PreconditionError if it is an integer above MAX_N."""
    if _is_int(n) and n > MAX_N:
        raise PreconditionError(f"N={n} exceeds the size limit N <= {MAX_N}")
    return n


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        raise PreconditionError("NaN is not representable in report JSON")
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if x == 0.0:
        x = 0.0  # normalize −0
    return format(x, ".12g")


def _emit(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, complex):
        raise PreconditionError("complex values must be split before serialization")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return _emit(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (f"{json.dumps(str(k))}: {_emit(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise PreconditionError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    """Deterministic JSON: 12-significant-digit floats, "inf" sentinels."""
    return _emit(obj)


def atomic_write(path: str, text: str) -> None:
    """Write text to path via a same-directory temp file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    atomic_write(path, json_dumps(obj) + "\n")


def write_csv(path: str, columns: dict) -> None:
    """Plot-style CSV: named columns of equal length, 12-significant-digit floats."""
    names = list(columns)
    cols = [list(columns[k]) for k in names]
    if len({len(c) for c in cols}) > 1:
        raise PreconditionError("CSV columns must have equal length")
    lines = [",".join(names)]
    for row in zip(*cols):
        lines.append(
            ",".join(
                _fmt_float(float(v)).strip('"') if isinstance(v, (float, np.floating))
                else str(v)
                for v in row
            )
        )
    atomic_write(path, "\n".join(lines) + "\n")


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise PreconditionError(f"{path} is not UTF-8 text: {exc}") from exc


def _load_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path} is not valid JSON: {exc}") from exc


def read_signal(path: str) -> np.ndarray:
    """Read a real signal from .json ({"n", "values"}) or CSV (one value per line)."""
    if path.endswith(".json"):
        obj = _load_json(path)
        if not isinstance(obj, dict) or "values" not in obj:
            raise PreconditionError(f"{path}: signal JSON needs a 'values' field")
        try:
            values = np.asarray(obj["values"], dtype=float)
            declared = int(obj.get("n", len(values)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise PreconditionError(f"{path}: non-numeric entry in signal JSON") from exc
        if declared != len(values):
            raise PreconditionError(f"{path}: declared n={declared} but {len(values)} values")
        return values
    lines = [ln.strip() for ln in _read_text(path).splitlines() if ln.strip()]
    try:
        return np.array([float(ln) for ln in lines])
    except ValueError as exc:
        raise PreconditionError(f"{path}: non-numeric line in signal CSV") from exc


def write_signal(path: str, x, fmt: str | None = None) -> None:
    x = np.asarray(x, dtype=float)
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    if fmt == "json":
        write_json(path, {"n": len(x), "values": [float(v) for v in x]})
    elif fmt == "csv":
        atomic_write(path, "\n".join(_fmt_float(float(v)) for v in x) + "\n")
    else:
        raise PreconditionError(f"unknown signal format {fmt!r}")


def read_bank(path: str) -> RamanujanFilterBank:
    obj = _load_json(path)
    try:
        channels = tuple(Channel(c["q"], c["p"]) for c in obj["channels"])
        return RamanujanFilterBank(check_size(obj["n"]), channels)
    except (KeyError, TypeError) as exc:
        raise PreconditionError(f"{path}: malformed bank JSON ({exc})") from exc


def write_bank(path: str, bank: RamanujanFilterBank) -> None:
    write_json(
        path,
        {"n": bank.n, "channels": [{"q": ch.q, "p": ch.p} for ch in bank.channels]},
    )


def read_pairs(path: str) -> list[tuple[int, int]]:
    obj = _load_json(path)
    if not isinstance(obj, dict) or "pairs" not in obj:
        raise PreconditionError(f"{path}: pairs JSON needs a 'pairs' field")
    pairs = obj["pairs"]
    if not isinstance(pairs, list) or not all(
        isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in pairs
    ):
        raise PreconditionError(f"{path}: each pair must be [k, i] with integer k and i")
    return [(k, i) for k, i in pairs]


def write_pairs(path: str, pairs) -> None:
    write_json(path, {"pairs": [[int(k), int(i)] for k, i in pairs]})


def frame_report_dict(report) -> dict:
    """The frame-check response body, field order fixed."""
    return {
        "A": float(report.A),
        "B": float(report.B),
        "tight": bool(report.tight),
        "is_frame": bool(report.is_frame),
        "ranks": list(report.ranks),  # frame_report stores Python ints and floats
        "per_m_eigs": [list(row) for row in report.per_m_eigs],
    }
