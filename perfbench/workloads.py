"""The four workloads: each is a fixed list of operations (one round), with
inputs made from the seed and a check for every output.

Operations call the program through module attributes looked up at call time
(``filterbank.analyze``, ``recovery.recover_missing``, ...), so the traced
run's wrappers see every call.  Checks compare against ``oracles``, which
shares no code with the program.

The make-up of each list (sizes, counts, component sets, erasure shapes) is
fixed; the seed draws the values.  Counts are chosen so that the median
operation of a round sits inside one block of like operations, never on the
edge between two size classes; README.md gives the classes and their times.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Any, Callable

import numpy as np
from rframes import cli, filterbank, frames, recovery, subspaces

import oracles as orc

THRESHOLD = 0.45  # detection threshold factor of the denoise workload


class CheckFailed(Exception):
    """An output disagrees with the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    kind: str
    n: int
    run: Callable[[], Any]
    # Raises CheckFailed; returns the ℓ1 objective when the op solves an LP.
    check: Callable[[Any], float | None]
    large: bool = False
    lp_reference: Callable[[], float] | None = None
    corrupt: Callable[[Any], Any] | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    problems: list[str] = field(default_factory=list)  # failed setup checks

    def warm_up(self) -> None:
        """Run the smallest operation of each kind once, untimed and unchecked."""
        smallest: dict[str, Op] = {}
        for op in self.ops:
            if op.kind not in smallest or op.n < smallest[op.kind].n:
                smallest[op.kind] = op
        for op in smallest.values():
            op.run()


def _banks(configs) -> tuple[dict, list[str]]:
    """Build the tight uniform banks and check their bounds against the theorem."""
    banks, problems = {}, []
    for N, p in sorted(configs):
        bank = banks[N, p] = filterbank.uniform_bank(N, p)
        rep = frames.frame_report(bank)
        want = orc.tight_bound(N, p)
        if not (rep.tight and abs(rep.A - want) <= 1e-9 * want
                and abs(rep.B - want) <= 1e-9 * want):
            problems.append(f"bank N={N} p={p}: bounds ({rep.A}, {rep.B}), theorem {want}")
    return banks, problems


def _all_pairs(N: int, p: int) -> list[tuple[int, int]]:
    return [(k, i) for i in range(len(orc.divisors(N))) for k in range(N // p)]


def _planted(N: int, qs, rng) -> np.ndarray:
    """Sum of random components on the channels qs, each scaled to ‖x_q‖² = φ(q)."""
    x = np.zeros(N)
    for q in qs:
        comp = orc.project(rng.standard_normal(N), [q])
        x += comp * math.sqrt(orc.totient(q)) / np.linalg.norm(comp)
    return x


def _sup(v) -> float:
    return float(np.abs(v).max())


def _moved(v, scale: float) -> np.ndarray:
    """v with its largest sample moved by 1e-6·scale."""
    out = np.array(v, dtype=float)
    out[int(np.argmax(np.abs(out)))] += 1e-6 * scale
    return out


# ---------------------------------------------------------------------------
# spectral: analyze → synthesize round trip plus identify_period

# (N, p, operations per round).  Every N/p here is odd, so p = 2 is tight.
# Sorted by time a round is 2 small, 3 body and 1 large operation, so the
# median sits in the middle of the body block.  The large operation takes
# about 6 s and is run at p = 2 rather than p = 1 (8 s), so that a run holds
# the three rounds a per-operation median needs.
SPECTRAL_MIX = ((210, 1, 1), (210, 2, 1), (1050, 2, 3), (2310, 2, 1))


def spectral(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    banks, problems = _banks({(N, p) for N, p, _ in SPECTRAL_MIX})
    largest = max(N for N, _, _ in SPECTRAL_MIX)
    ops = []
    for N, p, count in SPECTRAL_MIX:
        for _ in range(count):
            divs = orc.divisors(N)
            picks = rng.choice(len(divs), size=int(rng.integers(1, 4)), replace=False)
            qs = tuple(sorted(divs[int(j)] for j in picks))
            ops.append(_spectral_op(banks[N, p], _planted(N, qs, rng), qs, N == largest))
    return Workload("spectral", ops, problems)


def _spectral_op(bank, x, qs, large: bool) -> Op:
    N, p = bank.n, bank.ratio
    period = math.lcm(*qs)
    want = cache(lambda: orc.analysis(x, p))

    def run():
        coeffs = filterbank.analyze(x, bank)
        return coeffs, filterbank.synthesize(coeffs, bank), filterbank.identify_period(x)

    def check(out):
        coeffs, xhat, found = out
        ref = want()
        scale = max(_sup(c) for c in ref)
        require(len(coeffs) == len(ref), f"{len(coeffs)} channels, expected {len(ref)}")
        err = max(_sup(np.asarray(c) - r) for c, r in zip(coeffs, ref))
        require(err <= 1e-9 * scale, f"analyze differs from the FFT masks by {err:.3g}")
        err = _sup(xhat - x)
        require(err <= 1e-9 * _sup(x), f"synthesize(analyze(x)) misses x by {err:.3g}")
        require(found == period, f"identify_period gave {found}, planted lcm{qs} = {period}")
        return None

    def corrupt(out):
        coeffs, xhat, found = out
        return coeffs, _moved(xhat, _sup(x)), found

    return Op(f"roundtrip N={N} p={p} qs={qs}", "roundtrip", N, run, check,
              large=large, corrupt=corrupt)


# ---------------------------------------------------------------------------
# recover: missing-coefficient ℓ1 solves

# Exact-recovery sizes: p(d/φ(N))² leaves room for at least one missing pair.
EXACT_MENU = ((6, 1), (12, 1), (18, 1), (24, 1), (36, 1), (48, 1), (6, 2), (18, 2), (54, 2))
# The six missing patterns of the Z_70, p = 2 study, as (k_first, k_last, channel)
# runs; channels index the divisors (1, 2, 5, 7, 10, 14, 35, 70).
TABLE1 = (
    ((0, 2, 1), (17, 20, 2), (27, 29, 4)),
    ((15, 34, 3),),
    ((0, 24, 2), (0, 24, 7)),
    ((0, 10, 2), (21, 34, 4), (10, 34, 6)),
    ((6, 34, 3), (0, 34, 4), (12, 12, 5), (0, 34, 6)),
    ((0, 9, 0), (5, 14, 1), (11, 30, 2), (21, 34, 3), (17, 34, 4), (6, 34, 6)),
)
Z70_PERIODS = (5, 7)
Z70_SIGNALS = 6
# p = 1 problems x = L_3 c-sparse(N) with 10% of the pairs dropped by
# default_rng(draw).choice, as (N, draw).  They do not depend on the seed: the
# simplex's cost on them swings by 2x or more between draws, so a seeded draw
# would measure the draw, and some draws (105 with draws 1 and 6, 90 with 4
# and 7) fail, see CHANGES.md.  The three N = 105 draws cost about the same,
# so the large-class median pools all three.
DROP_INSTANCES = ((60, 0), (90, 0), (105, 0), (105, 3), (105, 5))


def recover(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    configs = set(EXACT_MENU) | {(70, 2)} | {(N, 1) for N, _ in DROP_INSTANCES}
    banks, problems = _banks(configs)
    ops = []
    for N, p in EXACT_MENU:
        scale = float(rng.choice([-1.0, 1.0]) * (0.5 + abs(rng.standard_normal())))
        x = scale * np.roll(orc.sparse_top_channel(N), int(rng.integers(N)))
        d = N // p
        bound = p * (d / orc.totient(N)) ** 2
        room = math.floor((bound - 1e-9) / (2 * len(orc.coefficient_support(x, p))))
        pairs = _all_pairs(N, p)
        missing = [pairs[int(j)] for j in rng.choice(len(pairs), size=room, replace=False)]
        ops.append(_recover_op(banks[N, p], x, missing, None, "exact", False))
    for _ in range(Z70_SIGNALS):
        x = _planted(70, Z70_PERIODS, rng)
        for runs in TABLE1:
            missing = [(k, i) for lo, hi, i in runs for k in range(lo, hi + 1)]
            ops.append(_recover_op(banks[70, 2], x, missing, None, "table1", False))
            ops.append(_recover_op(banks[70, 2], x, missing, Z70_PERIODS, "table1-periodic",
                                   False))
    largest = max(N for N, _ in DROP_INSTANCES)
    for N, draw in DROP_INSTANCES:
        pairs = _all_pairs(N, 1)
        drop = np.random.default_rng(draw).choice(len(pairs), size=len(pairs) // 10,
                                                  replace=False)
        x = np.roll(orc.sparse_top_channel(N), 3)
        ops.append(_recover_op(banks[N, 1], x, [pairs[int(j)] for j in drop], None, "drop10",
                               N == largest))
    return Workload("recover", ops, problems)


def _recover_op(bank, x, missing, periods, kind: str, large: bool) -> Op:
    N, p = bank.n, bank.ratio
    gone = set(missing)
    retained = [pr for pr in _all_pairs(N, p) if pr not in gone]
    bound = p * (N // p / orc.totient(N)) ** 2
    exact = 2 * len(gone) * len(orc.coefficient_support(x, p)) < bound
    kept = np.array([[(k, i) not in gone for k in range(N // p)]
                     for i in range(len(orc.divisors(N)))])
    want = cache(lambda: np.array(orc.analysis(x, p)))

    def run():
        observed = recovery.truncated_sum(x, retained, bank)
        if periods is None:
            return recovery.recover_missing(observed, retained, bank)
        return recovery.recover_missing_periodic(observed, retained, bank, periods)

    def check(xhat):
        ref = want()
        err = float(np.abs(np.array(orc.analysis(xhat, p)) - ref)[kept].max())
        require(err <= 1e-8 * float(np.abs(ref).max()),
                f"retained coefficients moved by {err:.3g}")
        l1, l1x = float(np.abs(xhat).sum()), float(np.abs(x).sum())
        require(l1 <= l1x * (1 + 1e-9), f"‖x̂‖₁ = {l1:.12g} exceeds ‖x‖₁ = {l1x:.12g}")
        if exact:
            err = _sup(xhat - x)
            require(err <= 1e-8 * _sup(x), f"error {err:.3g} under the exactness bound")
        if periods is not None:
            off = float(np.linalg.norm(xhat - orc.project(xhat, periods)))
            require(off <= 1e-8 * float(np.linalg.norm(x)),
                    f"energy {off:.3g} outside channels {periods}")
        return l1

    def lp_reference():
        R = orc.shift_rows(N, p, retained)
        b = R @ x
        if periods is not None:
            K = orc.kill_rows(N, [q for q in orc.divisors(N) if q not in periods])
            R, b = np.vstack([R, K]), np.concatenate([b, np.zeros(len(K))])
        return orc.highs_min_l1(R, b)

    label = f"{kind} N={N} p={p} missing={len(gone)}"
    return Op(label, kind, N, run, check, large=large, lp_reference=lp_reference,
              corrupt=lambda xhat: _moved(xhat, _sup(x)))


# ---------------------------------------------------------------------------
# denoise: detect_support_set at THRESHOLD, then denoise

# (N, operations per round) for the p = 1 Gaussian-noise instances.
DENOISE_MIX = ((30, 3), (70, 16), (105, 5), (126, 3))
# Planted channel sets, cycled through in order for each N.
COMPONENTS = {
    30: ((1, 3), (3, 5), (2, 15)),
    70: ((5, 7), (2, 35), (7, 10), (1, 14), (5, 14), (10, 35), (2, 5, 7), (7, 70)),
    105: ((3, 7), (5, 21), (15, 35), (1, 7, 15), (3, 35)),
    126: ((7, 9), (2, 21), (6, 14)),
}
SNR_DB = (0.0, 5.0, 10.0)
# Sparse-corruption sizes: 2·#membership·#spikes < p(d/φ(N))² with one spike.
SPARSE_MENU = ((6, 1), (12, 1), (24, 1), (36, 1), (6, 2), (18, 2))


def denoise(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    configs = set(SPARSE_MENU) | {(N, 1) for N, _ in DENOISE_MIX}
    banks, problems = _banks(configs)
    ops = []
    for N, p in SPARSE_MENU:
        scale = float(rng.choice([-1.0, 1.0]) * (0.5 + abs(rng.standard_normal())))
        x = scale * np.roll(orc.sparse_top_channel(N), int(rng.integers(N)))
        membership = orc.coefficient_support(x, p)
        if 2 * len(membership) >= p * (N // p / orc.totient(N)) ** 2:
            raise ValueError(f"SPARSE_MENU entry (N={N}, p={p}) violates the bound")
        y = x.copy()
        spike = float(rng.choice([-1.0, 1.0]) * (0.5 + abs(rng.standard_normal())))
        y[int(rng.integers(N))] += spike * _sup(x)
        ops.append(_sparse_op(banks[N, p], x, y, membership))
    largest = max(N for N, _ in DENOISE_MIX)
    j = 0
    for N, count in DENOISE_MIX:
        for t in range(count):
            qs = COMPONENTS[N][t % len(COMPONENTS[N])]
            x = _planted(N, qs, rng)
            eta = rng.standard_normal(N)
            snr = SNR_DB[j % len(SNR_DB)]
            eta *= np.linalg.norm(x) / np.linalg.norm(eta) * 10.0 ** (-snr / 20.0)
            ops.append(_gauss_op(banks[N, 1], x + eta, f"qs={qs} snr={snr:g}dB",
                                 N == largest))
            j += 1
    return Workload("denoise", ops, problems)


def _sparse_op(bank, x, y, membership) -> Op:
    N, p = bank.n, bank.ratio
    qs = sorted({orc.divisors(N)[i] for _, i in membership})

    def run():
        return recovery.denoise(y, membership, bank)

    def check(xhat):
        err = _sup(xhat - x)
        require(err <= 1e-8 * _sup(x), f"sparse corruption not removed: error {err:.3g}")
        off = float(np.linalg.norm(xhat - orc.project(xhat, qs)))
        require(off <= 1e-8 * float(np.linalg.norm(y)), f"energy {off:.3g} outside {qs}")
        return float(np.abs(y - xhat).sum())

    def lp_reference():
        keep = set(membership)
        return orc.highs_l1_fit(y, orc.shift_rows(
            N, p, [pr for pr in _all_pairs(N, p) if pr not in keep]))

    return Op(f"sparse N={N} p={p} membership={len(membership)}", "sparse", N, run, check,
              lp_reference=lp_reference)


def _gauss_op(bank, y, what: str, large: bool) -> Op:
    N = bank.n
    detected = cache(lambda: orc.detect(y, THRESHOLD))

    def run():
        det = recovery.detect_support_set(y, bank, THRESHOLD)
        return det, recovery.denoise(y, det, bank)

    def check(out):
        det, xhat = out
        kept, ambiguous = detected()
        differ = set(det.channels) ^ set(kept)
        require(differ <= ambiguous,
                f"detected channels {det.channels}, FFT detector gives {kept}")
        off = float(np.linalg.norm(xhat - orc.project(xhat, det.channels)))
        require(off <= 1e-8 * float(np.linalg.norm(y)),
                f"energy {off:.3g} outside the detected channels")
        l1 = float(np.abs(y - xhat).sum())
        l1_proj = float(np.abs(y - orc.project(y, det.channels)).sum())
        require(l1 <= l1_proj * (1 + 1e-9),
                f"‖y − x̂‖₁ = {l1:.12g} exceeds ‖y − Py‖₁ = {l1_proj:.12g}")
        return l1

    def lp_reference():
        kept, _ = detected()
        return orc.highs_l1_fit(y, orc.kill_rows(N, [q for q in orc.divisors(N)
                                                     if q not in kept]))

    def corrupt(out):
        det, xhat = out
        return replace(det, channels=det.channels[:-1]), xhat

    return Op(f"detect+denoise N={N} {what}", "detect-denoise", N, run, check, large=large,
              lp_reference=lp_reference, corrupt=corrupt)


# ---------------------------------------------------------------------------
# certify: frame and erasure certificates

# Small class: one erasure set of 1 to 4 seeded pairs on each of these tight
# configurations, every shift of one seeded channel q ≥ 2 on each WHOLE_CHANNEL
# configuration, frame-check, fusion and local erasures on each SMALL
# configuration, the NONUNIFORM banks and the SMALL_MARGINS.
ROBUST_CONFIGS = ((30, 1), (30, 2), (42, 1), (42, 2), (66, 1), (70, 2), (90, 2), (105, 1))
WHOLE_CHANNEL = ((30, 1), (70, 2), (105, 1))
SMALL = ((30, 1), (70, 2))
NONUNIFORM = ((30, 3, 1), (30, 5, 2), (105, 7, 1))  # (N, p, r)
# (N, p, q): the margins' cost grows with q through ramanujan_sum, so the
# channels are fixed; q = 1 at N = 30 carries the zero-margin check.
SMALL_MARGINS = ((30, 1, 1), (70, 2, 7))
# Body class: local erasures at (126, 1), one seeded shift per channel.  The
# cost does not depend on which shifts are erased, and BODY_COUNT puts the
# round's median operation in the middle of this block.
BODY = (126, 1)
BODY_COUNT = 24
# Large class, N = 210: frame-check, fusion and LARGE_LOCAL local-erasure
# operations at p = 1, and the margins of channel 35 at p = 2.  Sorted by
# time, the local erasures sit in the middle, so the class median is theirs.
CERTIFY_LARGEST = 210
LARGE_LOCAL = 3
LARGE_MARGINS_Q = 35


def certify(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    big = (CERTIFY_LARGEST, 1)
    configs = (set(ROBUST_CONFIGS) | set(WHOLE_CHANNEL) | set(SMALL) | {BODY, big}
               | {(N, p) for N, p, _ in SMALL_MARGINS} | {(CERTIFY_LARGEST, 2)})
    banks, problems = _banks(configs)

    def local(N, p):
        d = N // p
        return _local_op(N, p, [[int(rng.integers(d))] for _ in orc.divisors(N)])

    ops = []
    for N, p in ROBUST_CONFIGS:
        pairs = _all_pairs(N, p)
        picks = rng.choice(len(pairs), size=int(rng.integers(1, 5)), replace=False)
        ops.append(_robust_op(N, p, [pairs[int(j)] for j in picks], "robust"))
    for N, p in WHOLE_CHANNEL:
        i = int(rng.integers(1, len(orc.divisors(N))))
        ops.append(_robust_op(N, p, [(k, i) for k in range(N // p)], "robust-channel"))
    for N, p in SMALL:
        ops.append(_frame_check_op(N, p, os.path.join(workdir, f"frame-check-{N}-{p}")))
        ops.append(_fusion_op(N, p, seed))
        ops.append(local(N, p))
    for N, p, r in NONUNIFORM:
        ops.append(_nonuniform_op(N, p, r))
    for N, p, q in SMALL_MARGINS:
        ops.append(_margins_op(banks[N, p], orc.divisors(N).index(q)))
    ops.extend(local(*BODY) for _ in range(BODY_COUNT))
    N, p = big
    ops.append(_frame_check_op(N, p, os.path.join(workdir, f"frame-check-{N}-{p}")))
    ops.append(_fusion_op(N, p, seed))
    ops.extend(local(N, p) for _ in range(LARGE_LOCAL))
    ops.append(_margins_op(banks[CERTIFY_LARGEST, 2],
                           orc.divisors(CERTIFY_LARGEST).index(LARGE_MARGINS_Q)))
    for op in ops:
        op.large = op.n == CERTIFY_LARGEST
    return Workload("certify", ops, problems)


def _frame_verdict(lo: float, hi: float) -> bool | None:
    """The survivors form a frame iff λ_min > 1e-8·λ_max; None when too close to call."""
    ratio = lo / hi
    if 1e-10 < ratio < 1e-6:
        return None
    return ratio > 1e-8


def _robust_op(N: int, p: int, erased, kind: str) -> Op:
    verdict = cache(lambda: _frame_verdict(*orc.survivor_bounds(N, p, erased)))

    def check(robust):
        want = verdict()
        require(want is None or robust == want,
                f"robust_to_erasures says {robust}, survivors' eigenvalues say {want}")
        return None

    return Op(f"{kind} N={N} p={p} erased={len(erased)}", kind, N,
              lambda: subspaces.robust_to_erasures(p, N, erased), check,
              corrupt=lambda robust: not robust)


def _frame_check_op(N: int, p: int, outdir: str) -> Op:
    argv = ["frame-check", "--n", str(N), "--p", str(p), "--out", outdir]

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(code):
        require(code == 0, f"exit code {code}")
        with open(os.path.join(outdir, "response.json")) as fh:
            body = json.load(fh)
        want = orc.tight_bound(N, p)
        for key in ("A", "B"):
            require(abs(body[key] - want) <= 1e-9 * want, f"{key} = {body[key]}, theorem {want}")
        require(body["tight"] and body["is_frame"], "not reported as a tight frame")
        require(body["ranks"] == [p] * (N // p), "a polyphase rank below p")
        return None

    return Op(f"frame-check N={N} p={p}", "frame-check", N, run, check)


def _fusion_op(N: int, p: int, seed: int) -> Op:
    def check(rep):
        for key in ("a_f", "b_f", "op_min", "op_max"):
            v = getattr(rep, key)
            require(abs(v - 1.0) <= 1e-9, f"{key} = {v!r}, expected 1")
        require(rep.parseval, "not reported as Parseval")
        return None

    return Op(f"fusion N={N} p={p}", "fusion", N,
              lambda: subspaces.fusion_frame_check(p, N, draws=20, seed=seed), check)


def _local_op(N: int, p: int, erased_sets) -> Op:
    pairs = [(k, i) for i, ks in enumerate(erased_sets) for k in ks]
    bounds = cache(lambda: orc.survivor_bounds(N, p, pairs))

    def check(rep):
        lo, hi = bounds()
        scale = orc.tight_bound(N, p)
        require(abs(rep.a_f - lo / scale) <= 1e-8, f"a_f = {rep.a_f!r}, oracle {lo / scale!r}")
        require(abs(rep.b_f - hi / scale) <= 1e-8, f"b_f = {rep.b_f!r}, oracle {hi / scale!r}")
        want = _frame_verdict(lo, hi)
        require(want is None or rep.frame_flag == want, f"frame flag {rep.frame_flag}")
        return None

    return Op(f"local-erasures N={N} p={p}", "local-erasures", N,
              lambda: subspaces.fusion_after_local_erasures(p, N, erased_sets), check)


def _nonuniform_op(N: int, p: int, r: int) -> Op:
    def rank_deficient(q):
        c = orc.ramanujan_sum(q, N)
        F = np.array([np.roll(c, p * k) for k in range(N // p)])
        sv = np.linalg.svd(F, compute_uv=False)
        return int(np.sum(sv > 1e-10 * sv[0])) < orc.totient(q)

    ratios = cache(lambda: tuple(r if rank_deficient(q) else p for q in orc.divisors(N)))
    eigs = cache(lambda: np.linalg.eigvalsh(
        orc.frame_operator(N, zip(orc.divisors(N), ratios()))))

    def check(spec):
        require(spec.ratios == ratios(), f"ratios {spec.ratios}, expected {ratios()}")
        lo, hi = eigs()[0], eigs()[-1]
        require(spec.A > 0 and spec.is_frame, f"A = {spec.A!r} is not positive")
        require(abs(spec.A - lo) <= 1e-8 * hi and abs(spec.B - hi) <= 1e-8 * hi,
                f"bounds ({spec.A!r}, {spec.B!r}), oracle ({lo!r}, {hi!r})")
        return None

    return Op(f"nonuniform N={N} p={p} r={r}", "nonuniform", N,
              lambda: subspaces.build_nonuniform(p, r, N), check)


def _margins_op(bank, j: int) -> Op:
    N, p = bank.n, bank.ratio
    q = orc.divisors(N)[j]
    want = cache(lambda: orc.erasure_margins(N, p, q))

    def check(margins):
        err = _sup(np.asarray(margins) - want())
        require(err <= 1e-9, f"margins differ from the FFT Zak margins by {err:.3g}")
        if q == 1:
            require(abs(margins[0]) <= 1e-9, f"q=1 margin at m=0 is {margins[0]!r}, not 0")
        return None

    return Op(f"margins N={N} p={p} q={q}", "margins", N,
              lambda: subspaces.channel_erasure_margins(bank, j), check)


WORKLOADS = {"spectral": spectral, "recover": recover, "denoise": denoise, "certify": certify}
