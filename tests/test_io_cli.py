"""Deterministic serialization and the command-line surface."""

import json
import math
import os
import sys

import numpy as np
import pytest

from rframes import (
    Channel,
    PreconditionError,
    RamanujanFilterBank,
    frame_report,
    frames,
    uniform_bank,
)
from rframes.cli import build_parser, main
from rframes.io import (
    MAX_N,
    check_size,
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
    # the report's own Python ints and floats, not converted again
    assert d["ranks"] == list(rep.ranks) and all(type(r) is int for r in d["ranks"])
    assert d["per_m_eigs"] == [list(row) for row in rep.per_m_eigs]
    assert all(type(e) is float for row in d["per_m_eigs"] for e in row)


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


def test_cli_frame_check_classifies_the_given_bank(tmp_path, capsys):
    # channels {1, 3, 6} of Z_6 miss V_2: not a frame, whatever the full divisor bank is
    bankfile = str(tmp_path / "bank.json")
    write_bank(bankfile, RamanujanFilterBank(6, tuple(Channel(q, 1) for q in (1, 3, 6))))
    out = tmp_path / "fc"
    assert main(["frame-check", "--bank", bankfile, "--out", str(out)]) == 0
    assert "N=6 p=1: not_frame" in capsys.readouterr().out
    resp = json.loads((out / "response.json").read_text())
    assert not resp["tight"] and not resp["is_frame"]
    # K = 3 channels < p = 4: a valid bank that is not a frame, not a precondition error
    assert main(["frame-check", "--n", "4", "--p", "4"]) == 0
    assert "N=4 p=4: not_frame" in capsys.readouterr().out


def test_cli_frame_check_never_builds_the_frame_operator(tmp_path, capsys, monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("frame-check built the N×N frame operator")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rframes" and hasattr(module, "frame_operator"):
            monkeypatch.setattr(module, "frame_operator", dense)
    assert frames.frame_operator is dense
    bankfile = str(tmp_path / "bank.json")
    write_bank(bankfile, RamanujanFilterBank(30, tuple(Channel(q, 2) for q in (1, 2, 3, 5))))
    for argv in (["--n", "210", "--p", "1"], ["--n", "30", "--p", "2"], ["--n", "12", "--p", "2"],
                 ["--bank", bankfile]):
        assert main(["frame-check", *argv, "--out", str(tmp_path / "fc")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(":")[1].split()[0] for line in out] == ["tight", "tight", "not_frame",
                                                               "not_frame"]


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


def test_cli_period_id_rejects_non_numeric_json(tmp_path, capsys):
    sig = tmp_path / "x.json"
    sig.write_text('{"n": 6, "values": [1, "a", 3, 4, 5, 6]}')
    assert main(["period-id", "--signal", str(sig)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err and "non-numeric" in captured.err


def test_cli_frame_check_rejects_mixed_bank(tmp_path, capsys):
    bankfile = str(tmp_path / "mixed.json")
    write_bank(bankfile, RamanujanFilterBank(6, (Channel(1, 1), Channel(2, 2))))
    assert main(["frame-check", "--bank", bankfile]) == 2
    assert capsys.readouterr().out == ""


def test_cli_recover_rejects_bad_missing_pairs(tmp_path, capsys):
    sig = str(tmp_path / "x.csv")
    write_signal(sig, np.arange(6.0))
    missing = str(tmp_path / "missing.json")
    for pairs in ([(0, -1), (0, 0), (0, 0)], [(0, 0), (0, 0)], [(6, 0)], [(0, 4)]):
        write_pairs(missing, pairs)
        rc = main(["recover", "--signal", sig, "--missing", missing, "--n", "6", "--p", "1"])
        assert rc == 2, pairs
        captured = capsys.readouterr()
        assert captured.out == "" and "error" in captured.err


@pytest.mark.parametrize("command,text", [
    ("recover", '{"pairs": [5]}'),
    ("recover", '{"pairs": [[0, "a"]]}'),
    ("recover", '{"pairs": [[0, 1.5]]}'),
    ("frame-check", '{"n": "abc", "channels": [{"q": 1, "p": 1}]}'),
    ("frame-check", '{"n": 6, "channels": [{"q": 0, "p": 1}]}'),
    ("frame-check", '{"n": 6, "channels": [{"q": 1.5, "p": 1}]}'),
])
def test_cli_rejects_malformed_files(tmp_path, capsys, command, text):
    sig = str(tmp_path / "x.csv")
    write_signal(sig, np.arange(6.0))
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "recover":
        argv = ["recover", "--signal", sig, "--missing", str(path), "--n", "6", "--p", "1"]
    else:
        argv = ["frame-check", "--bank", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_cli_rejects_binary_signal(tmp_path, capsys):
    sig = tmp_path / "x.csv"
    sig.write_bytes(b"\xff\xfe\x00\x01")
    assert main(["period-id", "--signal", str(sig)]) == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_cli_period_id_computes_energies_once(tmp_path, monkeypatch):
    import rframes.cli as cli
    import rframes.filterbank as filterbank
    from rframes.experiments import periodic_signal

    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(30, (3, 5), seed=2))
    want = filterbank.channel_energies(read_signal(sig), uniform_bank(30, 1))
    calls = []
    real = filterbank.channel_energies
    for module in (filterbank, cli):  # every name the command could call it by
        monkeypatch.setattr(module, "channel_energies",
                            lambda *a: calls.append(a) or real(*a), raising=False)
    assert main(["period-id", "--signal", sig, "--out", str(tmp_path / "pid")]) == 0
    assert len(calls) == 1
    resp = json.loads((tmp_path / "pid" / "response.json").read_text())
    assert resp["energies"] == [float(json_dumps(e)) for e in want]
    assert resp["responding"] == [3, 5] and resp["period"] == 15


def test_cli_recover_rejects_nan(tmp_path, capsys):
    sig = tmp_path / "x.csv"
    sig.write_text("1\n2\nnan\n4\n1\n2\n")
    missing = str(tmp_path / "missing.json")
    write_pairs(missing, [(0, 3)])
    rc = main(["recover", "--signal", str(sig), "--missing", missing, "--n", "6", "--p", "1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "NaN or inf" in captured.err


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


def test_parser_is_built_once_and_calls_share_no_values(tmp_path, capsys):
    from rframes.experiments import periodic_signal
    from rframes.recovery import GaussianNoiseModel, add_noise

    assert build_parser() is build_parser()
    first = tmp_path / "D1"
    assert main(["frame-check", "--n", "30", "--p", "1", "--out", str(first)]) == 0
    written = {f: (first / f).read_bytes() for f in os.listdir(first)}
    assert main(["frame-check", "--n", "70", "--p", "2"]) == 0
    assert {f: (first / f).read_bytes() for f in os.listdir(first)} == written
    assert json.loads(written["request.json"])["n"] == 30
    assert capsys.readouterr().out.splitlines()[1].startswith("N=70 p=2: tight")

    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(30, (3, 5), seed=1))
    den = ["denoise", "--signal", sig, "--n", "30", "--p", "1", "--snr-db", "0"]
    assert main([*den, "--seed", "5", "--out", str(tmp_path / "s5")]) == 0
    assert main([*den, "--out", str(tmp_path / "s0")]) == 0
    for d, seed in (("s5", 5), ("s0", 0)):
        assert json.loads((tmp_path / d / "request.json").read_text())["seed"] == seed
        got = np.genfromtxt(tmp_path / d / "signals.csv", delimiter=",", names=True)["noisy"]
        want = add_noise(read_signal(sig), GaussianNoiseModel(0.0), seed=seed)
        assert np.allclose(got, want, rtol=1e-11, atol=1e-11), seed

    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["frame-check", "--n", "30", "--bogus"])
        assert exc.value.code == 2
    assert main(["frame-check", "--n", "6", "--p", "2"]) == 0


@pytest.mark.parametrize("command", [["denoise", "--snr-db", "5"], ["reproduce", "tables"]])
def test_cli_exits_2_on_a_seed_below_0(tmp_path, capsys, command):
    # default_rng's ValueError used to end the run in a traceback
    from rframes.experiments import periodic_signal

    if command[0] == "denoise":
        sig = str(tmp_path / "x.csv")
        write_signal(sig, periodic_signal(30, (3, 5), seed=1))
        command = [*command, "--signal", sig, "--n", "30", "--p", "1"]
    assert main([*command, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "integer seed >= 0" in captured.err


def test_sizes_above_the_limit_exit_2_before_any_bank_is_built(tmp_path, capsys, monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("an array was built for an oversized N")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rframes":
            for attr in ("uniform_bank", "RamanujanFilterBank", "ramanujan_sum"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, build)
    assert MAX_N >= 30030 and check_size(30030) == 30030
    bankfile = tmp_path / "bank.json"
    bankfile.write_text(json.dumps({"n": 10**8, "channels": [{"q": 1, "p": 1}]}))
    sig = str(tmp_path / "x.csv")
    write_signal(sig, np.ones(4))
    for argv in (["frame-check", "--n", str(10**8), "--p", "1"],
                 ["frame-check", "--n", str(MAX_N + 1), "--p", "1"],
                 ["frame-check", "--bank", str(bankfile)],
                 ["denoise", "--signal", sig, "--n", str(10**8), "--p", "1"],
                 ["rsum", "--q", str(10**8)]):
        assert main(argv) == 2, argv
        assert "size limit" in capsys.readouterr().err, argv


def test_atomic_writes_leave_no_temp_files(tmp_path):
    write_json(str(tmp_path / "a.json"), {"k": 1})
    write_signal(str(tmp_path / "b.csv"), np.ones(3))
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []



def test_cli_exits_3_on_a_solver_error(tmp_path, capsys, monkeypatch):
    import rframes.recovery as recovery
    from rframes.errors import SolverError
    from rframes.experiments import periodic_signal

    def fail(B, y):
        raise SolverError("stalled")

    monkeypatch.setattr(recovery, "lad_fit", fail)
    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(30, (3, 5), seed=1))
    assert main(["denoise", "--signal", sig, "--n", "30", "--p", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "solver error: stalled\n"


def test_cli_reproduce_without_out_prints_the_body(capsys):
    from rframes.experiments import run_examples

    assert main(["reproduce", "examples"]) == 0
    assert capsys.readouterr().out == json_dumps(run_examples()) + "\n"


def test_cli_recover_exits_2_on_a_period_that_is_not_an_integer(tmp_path, capsys):
    from rframes.experiments import periodic_signal

    sig = str(tmp_path / "x.csv")
    write_signal(sig, periodic_signal(70, (5, 7), seed=0))
    missing = str(tmp_path / "m.json")
    write_pairs(missing, [(0, 3)])
    argv = ["recover", "--signal", sig, "--missing", missing, "--n", "70", "--p", "2"]
    assert main([*argv, "--periods", "5,x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad --periods value '5,x'" in captured.err
    assert main([*argv, "--periods", "5,7"]) == 0


def test_cli_noiseless_exact_denoise_reports_an_infinite_gain(tmp_path, capsys):
    # a constant signal is denoised exactly: inf − inf is reported as inf
    sig = str(tmp_path / "x.csv")
    write_signal(sig, np.ones(30))
    out = tmp_path / "den"
    assert main(["denoise", "--signal", sig, "--n", "30", "--p", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == "channels 1; SNR gain inf dB\n"
    resp = json.loads((out / "response.json").read_text())
    assert resp["snr_before_db"] == resp["snr_after_db"] == resp["snr_gain_db"] == "inf"
