"""Channel-decoupled missing-coefficient recovery against independent routes.

The oracles: shifted trigonometric sums restricted to the DFT-mask subspaces
(conftest), the ℓ1 program on the stacked coefficient rows solved directly,
and HiGHS when scipy imports.
"""

import time

import numpy as np
import pytest

import rframes.recovery as recovery
import rframes.simplex as simplex
from conftest import dft_subspace_projector, trig_ramanujan
from rframes import (
    Channel,
    PreconditionError,
    RamanujanFilterBank,
    all_pairs,
    denoise,
    divisors,
    frame_report,
    recover_missing,
    recover_missing_periodic,
    totient,
    truncated_sum,
    uniform_bank,
)
from rframes.cli import main
from rframes.experiments import (
    denoise_instances,
    periodic_signal,
    recovery_instances,
    sparse_top_channel,
    table1_rows,
)
from rframes.io import write_pairs, write_signal
from rframes.numtheory import _shift_rank
from rframes.recovery import _channel_systems, _null_directions, _pair_mask, coefficient_rows
from rframes.simplex import solve_l1_lp


def _drop(bank, fraction, draw):
    """The retained pairs after dropping ⌊fraction·#pairs⌋ chosen by default_rng(draw)."""
    pairs = all_pairs(bank)
    gone = set(np.random.default_rng(draw).choice(
        len(pairs), size=int(fraction * len(pairs)), replace=False).tolist())
    return [pr for j, pr in enumerate(pairs) if j not in gone]


def _null_dims(bank, retained):
    return {s.q: s.bins.size - s.rank
            for s in _channel_systems(np.zeros(bank.n), _pair_mask(bank, retained), bank)}


@pytest.mark.parametrize("N,draw", [(105, 1), (120, 0), (150, 0), (150, 2),
                                    (210, 0), (210, 1), (210, 2)])
def test_ten_percent_drops_recover_exactly(N, draw):
    # the drops on which the ℓ1 program over all coefficient rows used to
    # report "unbounded": every channel's retained shifts still span V_q
    bank = uniform_bank(N, 1)
    retained = _drop(bank, 0.1, draw)
    assert not any(_null_dims(bank, retained).values())
    x = np.roll(sparse_top_channel(N), 3)
    xhat = recover_missing(truncated_sum(x, retained, bank), retained, bank)
    assert np.abs(xhat - x).max() <= 1e-12 * np.abs(x).max()


def test_an_observation_with_every_coefficient_dropped_is_zero_at_once(monkeypatch):
    # draw 1 drops every nonzero coefficient of x at 80%: the observation is
    # rounding noise, and the ℓ1 program on it has b = 0 to the tableau's
    # snap level, whose degenerate vertices used to run to the iteration cap
    bank = uniform_bank(462, 1)
    retained = _drop(bank, 0.8, 1)
    observed = truncated_sum(np.roll(sparse_top_channel(462), 3), retained, bank)
    assert np.abs(observed).max() < 1e-11

    def no_pivots(*args):
        raise AssertionError("the simplex pivoted on a zero right-hand side")

    real_fit, fits = recovery.lad_fit, []

    def no_steps(B, y):
        res = real_fit(B, y)
        assert res.iterations == 0, "the ℓ1 fit stepped on a zero observation"
        fits.append(res)
        return res

    monkeypatch.setattr(simplex, "_run", no_pivots)
    monkeypatch.setattr(recovery, "lad_fit", no_steps)
    seconds = []
    for _ in range(2):  # the faster of two calls, so a machine stall cannot fail it
        start = time.perf_counter()
        xhat = recover_missing(observed, retained, bank)
        seconds.append(time.perf_counter() - start)
        assert np.array_equal(xhat, np.zeros(462))
    assert min(seconds) < 1.0
    assert len(fits) == 2  # the 86 null directions went through the fit, which did not step


def _oracle_null_dims(bank, retained):
    """φ(q) minus the numerical rank of the retained trig-sum shifts in V_q's basis."""
    N, p = bank.n, bank.ratio
    blocks = {}
    for i, q in enumerate(bank.qs):
        w, v = np.linalg.eigh(dft_subspace_projector(q, N))
        basis = v[:, w > 0.5]
        c = trig_ramanujan(q, N)
        rows = [np.roll(c, p * k) for k, j in retained if j == i]
        block = np.array(rows).reshape(len(rows), N) @ basis
        sv = np.linalg.svd(block, compute_uv=False) if rows else np.zeros(0)
        blocks[q] = (basis.shape[1], sv)
    top = max((sv.max(initial=0.0) for _, sv in blocks.values()), default=0.0)
    return {q: dim - int(np.sum(sv > 1e-10 * top)) for q, (dim, sv) in blocks.items()}


def test_null_dimensions_match_the_shift_rank_deficit():
    # the null basis Z of the ℓ1 fit: φ(q) − rank orthonormal columns per
    # channel, in the kernel of every retained coefficient row, including
    # the channels that keep fewer shifts than φ(q) (the full SVD's case)
    checked = deficient = short = 0
    for N in (6, 12, 18, 30, 42, 60, 70, 90):
        for p in (1, 2):
            if N % p or not frame_report(uniform_bank(N, p)).tight:
                continue
            bank = uniform_bank(N, p)
            for fraction, draw in ((0.1, 0), (0.5, 1), (0.8, 2), (0.95, 3)):
                retained = _drop(bank, fraction, draw)
                got = _null_dims(bank, retained)
                want = _oracle_null_dims(bank, retained)
                assert got == want, (N, p, fraction)
                assert all(0 <= v <= totient(q) for q, v in got.items())
                shifts = {q: 0 for q in bank.qs}
                for _, i in retained:
                    shifts[bank.qs[i]] += 1
                Z = []
                for s in _channel_systems(np.zeros(N), _pair_mask(bank, retained), bank):
                    Zq = _null_directions(N, s)
                    assert Zq.shape == (N, want[s.q]), (N, p, fraction, s.q)
                    Z.append(Zq)
                    short += shifts[s.q] < totient(s.q)
                Z = np.hstack(Z)
                R = coefficient_rows(bank, retained)
                orth = np.abs(Z.T @ Z - np.eye(Z.shape[1])).max(initial=0.0)
                kernel = np.abs(R @ Z).max(initial=0.0) / np.abs(R).max(initial=1.0)
                assert orth <= 1e-12 and kernel <= 1e-12, (N, p, fraction)
                checked += 1
                deficient += any(got.values())
    assert checked >= 40 and deficient >= 10 and short >= 40


def _deficient_instances():
    bank70 = uniform_bank(70, 2)
    x70 = periodic_signal(70, (5, 7), seed=0)
    for spec in table1_rows():
        missing = {(int(k), int(i)) for k, i in spec["missing"]}
        yield bank70, x70, [pr for pr in all_pairs(bank70) if pr not in missing]
    for N, p in ((30, 1), (42, 1), (70, 1), (70, 2)):
        bank = uniform_bank(N, p)
        x = np.roll(sparse_top_channel(N), 5)
        for fraction, draw in ((0.5, 0), (0.8, 1)):
            yield bank, x, _drop(bank, fraction, draw)


def test_deficient_instances_match_the_stacked_row_program():
    # min ‖x′‖₁ s.t. R x′ = R x on every coefficient row: same optimum
    solved = 0
    for bank, x, retained in _deficient_instances():
        R = coefficient_rows(bank, retained)
        xhat = recover_missing(truncated_sum(x, retained, bank), retained, bank)
        want = solve_l1_lp(R, R @ x).objective
        assert np.isclose(np.abs(xhat).sum(), want, rtol=1e-9, atol=0), (bank.n, len(retained))
        assert np.abs(R @ (xhat - x)).max() <= 1e-8 * np.abs(R @ x).max()
        solved += any(_null_dims(bank, retained).values())
    assert solved >= 10


def _off_period_signal():
    bank = uniform_bank(30, 1)
    x = periodic_signal(30, (3, 5), seed=4) + 0.1 * periodic_signal(30, (2,), seed=5)
    return bank, x


def test_periodic_rejects_energy_in_a_killed_channel():
    bank, x = _off_period_signal()
    retained = all_pairs(bank)[3:]
    with pytest.raises(PreconditionError, match="channel 2"):
        recover_missing_periodic(truncated_sum(x, retained, bank), retained, bank, (3, 5))
    # the same observation with the channel declared is accepted and exact
    xhat = recover_missing_periodic(truncated_sum(x, retained, bank), retained, bank, (2, 3, 5))
    assert np.abs(xhat - x).max() < 1e-12


def test_cli_exits_2_on_energy_in_a_killed_channel(tmp_path, capsys):
    _, x = _off_period_signal()
    sig = str(tmp_path / "x.csv")
    write_signal(sig, x)
    missing = str(tmp_path / "missing.json")
    write_pairs(missing, [(0, 0), (1, 3)])
    rc = main(["recover", "--signal", sig, "--missing", missing,
               "--n", "30", "--p", "1", "--periods", "3,5"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "outside the declared periods" in captured.err


# ROADMAP item 2's standing instances, on its signal L_3 of the sparse top
# channel (optimum 16): the split-variable simplex ran (210, 2) to its cap
STANDING = ((210, 1, 0.8, 2), (330, 1, 0.8, 4), (462, 1, 0.8, 0))


@pytest.mark.parametrize("N,p,fraction,draw", [(30, 1, 0.8, 0), (70, 2, 0.5, 1),
                                               (120, 1, 0.1, 0), (120, 1, 0.8, 0),
                                               (210, 1, 0.8, 0), (210, 2, 0.1, 2),
                                               *STANDING])
def test_recovery_matches_highs(N, p, fraction, draw):
    # linear instances (10% dropped) and ones whose ℓ1 fit runs on the null
    # coordinates (13, 23, 34, 53 and 98 of them at 80% dropped)
    optimize = pytest.importorskip("scipy.optimize")
    bank = uniform_bank(N, p)
    retained = _drop(bank, fraction, draw)
    if (N, p, fraction, draw) in STANDING:
        x = np.roll(sparse_top_channel(N), 3)
    else:
        x = np.roll(sparse_top_channel(N), 1) + 0.5 * periodic_signal(N, (N,), seed=draw)
    R = coefficient_rows(bank, retained)
    n = bank.n
    ref = optimize.linprog(np.ones(2 * n), A_eq=np.hstack([R, -R]), b_eq=R @ x,
                           bounds=(0, None), method="highs")
    assert ref.status == 0
    xhat = recover_missing(truncated_sum(x, retained, bank), retained, bank)
    assert np.isclose(np.abs(xhat).sum(), ref.fun, rtol=1e-7, atol=0)
    assert np.abs(R @ (xhat - x)).max() <= 1e-8 * np.abs(R @ x).max()


# ---------------------------------------------------------------------------
# the bank's cached channel geometry


def test_channel_geometry_maps_back_to_the_shifts():
    # U's columns from the cached bins, sine flags and weights: rows·Uᵀ must
    # give back every kept shift, as coefficient_rows and the trig sums build it
    checked = 0
    for N in (30, 70, 126):
        for p in (1, 2):
            bank = uniform_bank(N, p)
            if not frame_report(bank).tight:
                continue
            d, n = N // p, np.arange(N)
            assert [g.q for g in bank.channel_geometry] == list(bank.qs)
            for i, g in enumerate(bank.channel_geometry):
                angle = 2.0 * np.pi * np.outer(n, g.bins) / N
                U = g.w * np.where(g.sine, np.sin(angle), np.cos(angle))
                assert np.abs(U.T @ U - np.eye(totient(g.q))).max() <= 1e-12
                trig = np.array([np.roll(trig_ramanujan(g.q, N), p * k) for k in range(d)])
                scale = np.abs(trig).max()
                shifts = g.rows @ U.T
                assert np.abs(shifts - trig).max() <= 1e-12 * scale, (N, p, g.q)
                lib = coefficient_rows(bank, [(k, i) for k in range(d)])
                assert np.abs(shifts - lib).max() <= 1e-12 * scale, (N, p, g.q)
                # the shifts span V_q, so every singular value of the rows is N/√p
                assert g.spans
                sv = np.linalg.svd(g.rows, compute_uv=False)
                assert np.abs(sv - N / np.sqrt(p)).max() <= 1e-12 * sv[0]
            checked += 1
    assert checked >= 4


def test_channel_geometry_is_built_once_and_read_only():
    bank = uniform_bank(30, 1)
    geometry = bank.channel_geometry
    assert uniform_bank(30, 1).channel_geometry is geometry
    for g in geometry:
        for name in ("bins", "sine", "w", "rows"):
            a = getattr(g, name)
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = a[(0,) * a.ndim]
        with pytest.raises(AttributeError):
            g.rows = np.zeros_like(g.rows)
    with pytest.raises(PreconditionError):
        RamanujanFilterBank(6, (Channel(1, 1), Channel(2, 2))).channel_geometry


def test_a_second_recovery_takes_the_svd_only_on_partial_channels(monkeypatch):
    bank = uniform_bank(70, 2)
    d = 35
    # channels 1 and 3 lose five shifts, 6 loses them all, the other five keep every shift
    gone = {(k, i) for i in (1, 3) for k in range(5)} | {(k, 6) for k in range(d)}
    retained = [pr for pr in all_pairs(bank) if pr not in gone]
    x = periodic_signal(70, (5, 7), seed=0)
    observed = truncated_sum(x, retained, bank)
    first = recover_missing(observed, retained, bank)
    real_svd, calls = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        calls.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    second = recover_missing(observed, retained, bank)
    assert calls == [(d - 5, totient(2)), (d - 5, totient(7))]
    assert np.array_equal(first, second)


def test_a_first_recovery_takes_the_svd_only_on_partial_channels(monkeypatch):
    # a fresh bank derives its geometry with no SVD: the channels that keep
    # every shift and span V_q take the closed form BᵀB = (N²/p)·I
    bank = RamanujanFilterBank(70, tuple(Channel(q, 2) for q in uniform_bank(70, 2).qs))
    d = 35
    gone = {(k, i) for i in (1, 3) for k in range(5)} | {(k, 6) for k in range(d)}
    retained = [pr for pr in all_pairs(bank) if pr not in gone]
    x = periodic_signal(70, (5, 7), seed=0)
    observed = truncated_sum(x, retained, bank)
    want = recover_missing(observed, retained, uniform_bank(70, 2))
    real_svd, calls = np.linalg.svd, []

    def counting_svd(a, *args, **kwargs):
        calls.append(a.shape)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    got = recover_missing(observed, retained, bank)
    assert calls == [(d - 5, totient(2)), (d - 5, totient(7))]
    assert np.array_equal(got, want)


def test_geometry_of_every_tight_bank_has_the_closed_form_gram():
    # a tight bank spans every V_q, and its rows' Gram is the channel's share
    # (N²/p)·I of the frame operator; where a bank is not a frame, spans
    # follows the exact shift rank channel by channel
    tight = 0
    for N in range(1, 121):
        for p in divisors(N).divisors:
            bank = uniform_bank(N, p)
            if bank.frame_bounds is None or bank.frame_bounds[0] != bank.frame_bounds[1]:
                continue
            for g in bank.channel_geometry:
                assert g.spans, (N, p, g.q)
                gram = g.rows.T @ g.rows
                assert np.abs(gram - N * N / p * np.eye(g.bins.size)).max() <= 1e-12 * N * N, (N, p, g.q)
            tight += 1
    assert tight == 120 + 30  # p = 1 for every N, and p = 2 for N = 2·odd
    for N in (12, 60):
        spans = [g.spans for g in uniform_bank(N, 2).channel_geometry]
        assert spans == [_shift_rank(2, q, N) == totient(q) for q in divisors(N).divisors]
        assert not all(spans)


def test_shuffled_pairs_recover_the_same_signal():
    # the recovery reads the retained pairs as a set, each channel's rows
    # k-ascending: a shuffled list gives the same bits, also on table 1's
    # rows whose ℓ1 optimum is a face, and the exact instances stay exact
    rng = np.random.default_rng(7)
    cases = [(inst.bank, inst.x, list(inst.retained), None, True)
             for inst in recovery_instances(6, seed=11)]
    bank70, x70 = uniform_bank(70, 2), periodic_signal(70, (5, 7), seed=0)
    for spec in table1_rows():
        missing = {(int(k), int(i)) for k, i in spec["missing"]}
        retained = [pr for pr in all_pairs(bank70) if pr not in missing]
        cases += [(bank70, x70, retained, (5, 7), True), (bank70, x70, retained, None, False)]
    for bank, x, retained, periods, exact in cases:
        observed = truncated_sum(x, retained, bank)
        shuffled = [retained[j] for j in rng.permutation(len(retained))]
        assert np.array_equal(truncated_sum(x, shuffled, bank), observed)
        if periods is None:
            want = recover_missing(observed, retained, bank)
            got = recover_missing(observed, shuffled, bank)
        else:
            want = recover_missing_periodic(observed, retained, bank, periods)
            got = recover_missing_periodic(observed, shuffled, bank, periods)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        if exact:
            assert np.abs(got - x).max() <= 1e-9 * np.abs(x).max()
    # denoise reads the membership as a set too
    for inst in denoise_instances(3, seed=2):
        members = list(inst.membership)
        shuffled = [members[j] for j in rng.permutation(len(members))]
        assert np.array_equal(denoise(inst.y, shuffled, inst.bank),
                              denoise(inst.y, members, inst.bank))
