"""Deterministic serialization and the command-line surface."""

import json
import math
import os

import numpy as np
import pytest

from rframes import PreconditionError, frame_report, uniform_bank
from rframes.cli import main
from rframes.io import (
    frame_report_dict,
    json_dumps,
    read_bank,
    read_pairs,
    read_signal,
    write_bank,
    write_csv,
    write_json,
    write_pairs,
    write_signal,
)


# ---------------------------------------------------------------------------
# serialization


def test_json_float_formatting():
    assert json_dumps(0.1) == "0.1"
    assert json_dumps(-0.0) == "0"
    assert json_dumps(float("inf")) == '"inf"'
    assert json_dumps(float("-inf")) == '"-inf"'
    assert json_dumps(1.0 / 3.0) == "0.333333333333"
    assert json_dumps({"a": [1, True, None]}) == '{"a": [1, true, null]}'
    with pytest.raises(PreconditionError):
        json_dumps(float("nan"))
    with pytest.raises(PreconditionError):
        json_dumps(1 + 2j)
    with pytest.raises(PreconditionError):
        json_dumps(object())


def test_json_is_byte_deterministic():
    obj = {"x": [0.1, 2.5, -0.0], "flag": False, "n": 7}
    assert json_dumps(obj) == json_dumps(obj)
    # and round-trips through a standard parser
    back = json.loads(json_dumps(obj))
    assert back["n"] == 7 and back["x"][2] == 0


def test_signal_round_trip(tmp_path):
    x = np.array([1.5, -2.25, 0.0, 3.75])
    for name in ("sig.json", "sig.csv"):
        path = str(tmp_path / name)
        write_signal(path, x)
        assert np.array_equal(read_signal(path), x)
    # explicit format overrides the extension
    path = str(tmp_path / "sig.dat")
    write_signal(path, x, fmt="csv")
    assert np.array_equal(read_signal(path), x)
    with pytest.raises(PreconditionError):
        write_signal(str(tmp_path / "sig.bin"), x, fmt="binary")


def test_signal_read_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "values": [1, 2]}')
    with pytest.raises(PreconditionError):
        read_signal(str(bad))
    nojson = tmp_path / "broken.json"
    nojson.write_text("{not json")
    with pytest.raises(PreconditionError):
        read_signal(str(nojson))
    badcsv = tmp_path / "bad.csv"
    badcsv.write_text("1.0\npotato\n")
    with pytest.raises(PreconditionError):
        read_signal(str(badcsv))


def test_bank_round_trip(tmp_path):
    bank = uniform_bank(30, 2)
    path = str(tmp_path / "bank.json")
    write_bank(path, bank)
    back = read_bank(path)
    assert back.n == 30 and back.qs == bank.qs and back.ratio == 2
    malformed = tmp_path / "mal.json"
    malformed.write_text('{"n": 6, "channels": [{"q": 2}]}')
    with pytest.raises(PreconditionError):
        read_bank(str(malformed))


def test_pairs_round_trip(tmp_path):
    pairs = [(0, 1), (3, 2), (7, 0)]
    path = str(tmp_path / "pairs.json")
    write_pairs(path, pairs)
    assert read_pairs(path) == pairs
    bad = tmp_path / "bad.json"
    bad.write_text('{"pairs": [[1, 2, 3]]}')
    with pytest.raises(PreconditionError):
        read_pairs(str(bad))
    nofield = tmp_path / "nofield.json"
    nofield.write_text("[]")
    with pytest.raises(PreconditionError):
        read_pairs(str(nofield))


def test_write_csv_columns(tmp_path):
    path = str(tmp_path / "t.csv")
    write_csv(path, {"a": [1.5, 2.5], "b": ["x", "y"]})
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines == ["a,b", "1.5,x", "2.5,y"]
    with pytest.raises(PreconditionError):
        write_csv(path, {"a": [1], "b": [1, 2]})


def test_frame_report_dict_fields():
    rep = frame_report(uniform_bank(6, 2))
    d = frame_report_dict(rep)
    assert list(d) == ["A", "B", "tight", "is_frame", "ranks", "per_m_eigs"]
    assert d["tight"] is True
    assert np.isclose(d["A"], 18.0)
    assert json.loads(json_dumps(d))["ranks"] == [2, 2, 2]


# ---------------------------------------------------------------------------
# CLI


def test_cli_rsum(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert main(["rsum", "--q", "5", "--n", "10", "--out", out]) == 0
    assert capsys.readouterr().out.strip() == "4,-1,-1,-1,-1,4,-1,-1,-1,-1"
    resp = json.loads((tmp_path / "r" / "response.json").read_text())
    assert resp["values"][0] == 4 and resp["n"] == 10


def test_cli_rsum_rejects_non_divisor(capsys):
    assert main(["rsum", "--q", "3", "--n", "4"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_frame_check(tmp_path, capsys):
    out = str(tmp_path / "fc")
    assert main(["frame-check", "--n", "6", "--p", "2", "--out", out]) == 0
    assert "tight" in capsys.readouterr().out
    resp = json.loads((tmp_path / "fc" / "response.json").read_text())
    assert math.isclose(resp["A"], 18.0, rel_tol=1e-9)
    assert resp["ranks"] == [2, 2, 2]


def test_cli_frame_check_from_bank_file(tmp_path, capsys):
    bankfile = str(tmp_path / "bank.json")
    write_bank(bankfile, uniform_bank(12, 2))
    assert main(["frame-check", "--bank", bankfile]) == 0
    assert "not_frame" in capsys.readouterr().out
    assert main(["frame-check"]) == 2  # neither --bank nor --n/--p


def test_cli_period_id(tmp_path, capsys):
    from rframes.experiments import periodic_signal

    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(30, (3, 5), seed=2))
    out = str(tmp_path / "pid")
    assert main(["period-id", "--signal", sig, "--out", out]) == 0
    assert "period 15" in capsys.readouterr().out
    resp = json.loads((tmp_path / "pid" / "response.json").read_text())
    assert resp["period"] == 15
    assert set(resp["responding"]) == {3, 5}


def test_cli_period_id_rejects_nan(tmp_path, capsys):
    sig = tmp_path / "x.csv"
    sig.write_text("1\n2\nnan\n4\n1\n2\n")
    assert main(["period-id", "--signal", str(sig), "--out", str(tmp_path / "pid")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NaN or inf" in captured.err
    assert not (tmp_path / "pid" / "response.json").exists()


def test_cli_recover_round_trip(tmp_path, capsys):
    from rframes.experiments import sparse_top_channel

    sig = str(tmp_path / "x.csv")
    write_signal(sig, 2.0 * sparse_top_channel(12))
    missing = str(tmp_path / "missing.json")
    write_pairs(missing, [(0, 0), (1, 3)])
    out = str(tmp_path / "rec")
    rc = main([
        "recover", "--signal", sig, "--missing", missing,
        "--n", "12", "--p", "1", "--out", out, "--format", "json",
    ])
    assert rc == 0
    resp = json.loads((tmp_path / "rec" / "response.json").read_text())
    assert resp["sup_error"] < 1e-6
    assert (tmp_path / "rec" / "recovered.json").exists()
    assert (tmp_path / "rec" / "signals.csv").exists()


def test_cli_recover_with_periods(tmp_path):
    from rframes.experiments import periodic_signal

    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(30, (3, 5), seed=9))
    missing = str(tmp_path / "missing.json")
    # drop whole swaths; the periods side-channel carries the recovery
    write_pairs(missing, [(k, 7) for k in range(30)] + [(k, 6) for k in range(15)])
    out = str(tmp_path / "rec2")
    rc = main([
        "recover", "--signal", sig, "--missing", missing,
        "--n", "30", "--p", "1", "--periods", "3,5", "--out", out,
    ])
    assert rc == 0
    resp = json.loads((tmp_path / "rec2" / "response.json").read_text())
    assert resp["sup_error"] < 1e-6
    assert resp["periods"] == [3, 5]


def test_cli_denoise_noiseless(tmp_path, capsys):
    from rframes.experiments import periodic_signal

    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(30, (3, 5), seed=1))
    out = str(tmp_path / "den")
    rc = main(["denoise", "--signal", sig, "--n", "30", "--p", "1", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "channels 3,5" in text
    resp = json.loads((tmp_path / "den" / "response.json").read_text())
    assert resp["estimated_components"] == [3, 5]
    assert resp["snr_before_db"] == "inf"  # serialized sentinel
    # the pass-through is exact up to LP roundoff, so "after" is merely huge
    assert resp["snr_after_db"] > 100.0


def test_cli_denoise_with_noise(tmp_path):
    from rframes.experiments import periodic_signal

    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(30, (3, 5), seed=1))
    out = str(tmp_path / "den2")
    rc = main([
        "denoise", "--signal", sig, "--n", "30", "--p", "1",
        "--snr-db", "0", "--seed", "10001", "--out", out,
    ])
    assert rc == 0
    resp = json.loads((tmp_path / "den2" / "response.json").read_text())
    assert resp["estimated_components"] == [3, 5]
    assert np.isclose(resp["snr_before_db"], 0.0, atol=1e-9)


def test_cli_reproduce_examples(tmp_path):
    out = str(tmp_path / "ex")
    assert main(["reproduce", "examples", "--out", out]) == 0
    resp = json.loads((tmp_path / "ex" / "response.json").read_text())
    assert "polyphase_n6" in resp or len(resp) > 0


def test_cli_signal_length_mismatch(tmp_path):
    sig = str(tmp_path / "x.csv")
    write_signal(sig, np.ones(8))
    missing = str(tmp_path / "m.json")
    write_pairs(missing, [(0, 0)])
    rc = main(["recover", "--signal", sig, "--missing", missing, "--n", "12", "--p", "1"])
    assert rc == 2


def test_cli_io_error_exit_code(tmp_path, capsys):
    missing_file = str(tmp_path / "does-not-exist.csv")
    rc = main(["period-id", "--signal", missing_file])
    assert rc == 4
    assert "i/o error" in capsys.readouterr().err


def test_atomic_writes_leave_no_temp_files(tmp_path):
    write_json(str(tmp_path / "a.json"), {"k": 1})
    write_signal(str(tmp_path / "b.csv"), np.ones(3))
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []
