"""`rframes reproduce {examples,tables,erasures,fusion} --seed 0` against the
outputs of the direct-convolution implementation, kept under tests/golden/.

Integers, booleans and strings must be identical.  Floats must agree to
1e-9 relative; a float inside a JSON array is measured against the largest
magnitude of its array, so rounding-level entries of a matrix compare on
the matrix's scale.  The named fields below are the exceptions.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from rframes import uniform_bank
from rframes.cli import main
from rframes.experiments import periodic_signal, table1_rows, table2_rows
from rframes.recovery import (
    GaussianNoiseModel,
    add_noise,
    all_pairs,
    denoise,
    detect_support_set,
    recover_missing,
    truncated_sum,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-9

# Residuals of exact computations, with the test that a value sits at
# rounding level (a ceiling on an error, a floor on a gain in dB).  A golden
# value at rounding level pins only that the new one is there too.
NOISE_LEVEL = {
    "gram_error": lambda v: v <= 1e-12,
    "sup_err_plain": lambda v: v <= 1e-12,
    "sup_err_periodic": lambda v: v <= 1e-12,
    "gain_plain_db": lambda v: v >= 200.0,
    "gain_periodic_db": lambda v: v >= 200.0,
}
# Plain ℓ1 recovery on the Z_70 patterns that miss the exactness bound: the
# ℓ1 minimizer is not unique there, and which minimizer the simplex returns
# moves with rounding in its input.  Only "not recovered" is pinned here;
# the objective is pinned in test_table1_plain_objectives.
VERTEX_CHOICE = {"sup_err_plain", "gain_plain_db"}
# Table-2 fields of the denoised signal: compared only on rows whose `unique`
# flag (itself compared exactly) certifies that the ℓ1 optimum is a point.
# On a face the golden gain_db is that of a vertex the standard-form simplex
# returned, not of the face's optimum nearest y that denoise returns (checked
# in tests/test_recovery.py); the objective is pinned in
# test_table2_denoise_objectives.
FACE_CHOICE = {"gain_db"}


def _is_float(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _numbers(v):
    if isinstance(v, list):
        for item in v:
            yield from _numbers(item)
    elif _is_float(v):
        yield abs(v)


def _compare_number(key, want, got, scale, where):
    at_noise = NOISE_LEVEL.get(key)
    if at_noise and (at_noise(want) or key in VERTEX_CHOICE):
        assert at_noise(got) == at_noise(want), where
    elif isinstance(want, int) and isinstance(got, int):
        assert got == want, where
    else:
        assert abs(got - want) <= RTOL * scale, where


def _compare(want, got, where="", key=None, scale=None):
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), where
        for k in want:
            if k in FACE_CHOICE and want.get("unique") is False:
                continue
            _compare(want[k], got[k], f"{where}/{k}", k)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        if scale is None:
            scale = max(_numbers(want), default=0.0)
        for i, (w, g) in enumerate(zip(want, got)):
            _compare(w, g, f"{where}[{i}]", key, scale)
    elif _is_float(want) and _is_float(got):
        _compare_number(key, want, got, abs(want) if scale is None else scale, where)
    else:
        assert type(got) is type(want) and got == want, where


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{k: _parse_cell(v) for k, v in row.items()} for row in rows]


def _parse_cell(text):
    if text in ("True", "False"):
        return text == "True"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.mark.parametrize("which", ["examples", "tables", "erasures", "fusion"])
def test_reproduce_matches_golden(which, tmp_path, capsys):
    out = tmp_path / which
    assert main(["reproduce", which, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    golden = GOLDEN / which
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in golden.iterdir())
    assert (out / "request.json").read_bytes() == (golden / "request.json").read_bytes()
    _compare(json.loads((golden / "response.json").read_text()),
             json.loads((out / "response.json").read_text()))
    for name in ("table1.csv", "table2.csv"):
        if (golden / name).exists():
            _compare(_read_csv(golden / name), _read_csv(out / name), name)


# ‖x̂‖₁ of the plain recoveries of the six Z_70 patterns (reproduce tables,
# seed 0), computed by the direct-convolution implementation.
PLAIN_L1 = (21.849197477450726, 21.84919747745072, 21.849197477450726,
            19.33642608660323, 17.588594358617307, 19.33642608660322)


def test_table1_plain_objectives():
    bank = uniform_bank(70, 2)
    x = periodic_signal(70, (5, 7), seed=0)
    for spec, want in zip(table1_rows(), PLAIN_L1, strict=True):
        missing = {(int(k), int(i)) for k, i in spec["missing"]}
        retained = [pr for pr in all_pairs(bank) if pr not in missing]
        xhat = recover_missing(truncated_sum(x, retained, bank), retained, bank)
        assert math.isclose(float(np.abs(xhat).sum()), want, rel_tol=RTOL), spec["row"]


# ‖y − x̂‖₁ of the table-2 denoisings (reproduce tables, seed 0), computed by
# the standard-form simplex that denoised before the least-absolute-deviations
# fit; the rows' optima are faces except row 5, but their objectives are fixed.
DENOISE_L1 = (7.234063321084527, 9.103332286394838, 9.668616485270945,
              12.304240232878977, 10.42019005162523, 10.510610288647868,
              10.853285326359366)


def test_table2_denoise_objectives():
    bank = uniform_bank(30, 1)
    for j, (spec, want) in enumerate(zip(table2_rows(), DENOISE_L1, strict=True)):
        x = periodic_signal(30, spec["components"], seed=1000 + j)
        y = add_noise(x, GaussianNoiseModel(spec["snr_in"]), seed=2000 + j)
        xhat = denoise(y, detect_support_set(y, bank, 0.45), bank)
        assert math.isclose(float(np.abs(y - xhat).sum()), want, rel_tol=RTOL), spec["row"]
