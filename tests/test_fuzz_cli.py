"""Generated malformed signal, bank and pairs files through the CLI.

Every run must end in one of the documented exit codes; no exception may
escape ``main``.  Lengths stay at N ≤ 12 so the recovery LPs are tiny.
"""

import contextlib
import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rframes.cli import main
from rframes.io import write_signal

EXIT_CODES = {0, 2, 3, 4}
FUZZ = settings(derandomize=True, max_examples=40, deadline=None, database=None)

_int = st.integers(-1, 12)
_field = st.one_of(
    _int,
    st.floats(-2, 12),
    st.floats(width=32),  # includes nan and ±inf
    st.text(max_size=2),
    st.none(),
    st.booleans(),
)
_json = st.recursive(
    _field,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["n", "q", "p", "values", "channels", "pairs"]),
                      kids, max_size=3),
    max_leaves=8,
)
# each file is near-valid (right shape, small integers or finite values, which
# reach the numerics) or malformed anywhere

@st.composite
def _near_bank(draw):
    """Mostly divisors of n at one common ratio, with a stray 0 or 5."""
    n = draw(st.integers(1, 12))
    near = st.sampled_from([d for d in range(1, n + 1) if n % d == 0] * 4 + [0, 5])
    p = draw(near)
    qs = draw(st.lists(near, min_size=1, max_size=6))
    return {"n": n, "channels": [{"q": q, "p": p} for q in qs]}


_bank = st.one_of(
    _near_bank(),
    st.fixed_dictionaries({
        "n": _field,
        "channels": st.lists(st.one_of(st.fixed_dictionaries({"q": _field, "p": _field}), _json),
                             max_size=4),
    }),
    _json,
)


@st.composite
def _recover_case(draw):
    """n and a pairs body: distinct in-range [k, i], or malformed."""
    n = draw(st.sampled_from([6, 10, 12]))
    K = sum(n % q == 0 for q in range(1, n + 1))
    near = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, K - 1)).map(list),
                    max_size=8, unique_by=tuple)
    bad = st.lists(st.one_of(st.lists(_field, max_size=3), _field), max_size=6)
    return n, draw(st.one_of(st.fixed_dictionaries({"pairs": st.one_of(near, bad)}), _json))


_values = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12)
_json_signal = st.one_of(
    _values.map(lambda v: {"values": v}),
    st.fixed_dictionaries({"values": st.lists(_field, max_size=12)}, optional={"n": _field}),
    _json,
)
_csv_signal = st.one_of(
    _values,
    st.lists(st.one_of(st.floats(width=32), st.text(max_size=3)), max_size=12),
).map(lambda vals: "\n".join(map(str, vals)))


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def _write(path, text: str) -> str:
    path.write_bytes(text.encode("utf-8", "surrogatepass"))
    return str(path)


@FUZZ
@given(body=st.one_of(_json_signal.map(json.dumps), _csv_signal, st.text(max_size=20)))
def test_period_id_survives_malformed_signals(tmp_path_factory, body):
    tmp = tmp_path_factory.mktemp("pid")
    sig = _write(tmp / ("x.json" if body.startswith("{") else "x.csv"), body)
    assert _run(["period-id", "--signal", sig, "--out", str(tmp / "out")]) in EXIT_CODES


@FUZZ
@given(bank=_bank)
def test_frame_check_survives_malformed_banks(tmp_path_factory, bank):
    tmp = tmp_path_factory.mktemp("bank")
    path = _write(tmp / "bank.json", json.dumps(bank))
    assert _run(["frame-check", "--bank", path, "--out", str(tmp / "out")]) in EXIT_CODES


@FUZZ
@given(case=_recover_case())
def test_recover_survives_malformed_pairs(tmp_path_factory, case):
    n, pairs = case
    tmp = tmp_path_factory.mktemp("pairs")
    sig = str(tmp / "x.csv")
    write_signal(sig, np.cos(2 * np.pi * np.arange(n) / 3))
    missing = _write(tmp / "missing.json", json.dumps(pairs))
    argv = ["recover", "--signal", sig, "--missing", missing, "--n", str(n), "--p", "1",
            "--out", str(tmp / "out")]
    assert _run(argv) in EXIT_CODES
