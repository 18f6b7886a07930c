"""Reproduction drivers: worked examples, erasure demos, fusion checks, and
the two recovery study tables, plus the constructed-instance generators the
exact-recovery guarantees are tested on.

Everything is deterministic under a single seed; drivers return plain dicts
ready for the JSON/CSV writers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalError
from .filterbank import RamanujanFilterBank, analyze, uniform_bank
from .frames import classify_theorem_case, frame_report, polyphase_matrix
from .numtheory import _factorize, _seeded_rng, divisors, totient
from .recovery import (
    GaussianNoiseModel,
    SparseNoiseModel,
    _checked_periods,
    _denoise_fit,
    add_noise,
    all_pairs,
    detect_support_set,
    recover_missing,
    recover_missing_periodic,
    snr_db,
    truncated_sum,
    uncertainty_report,
)
from .simplex import lad_fit_unique
from .subspaces import (
    channel_erasure_margins,
    fusion_after_local_erasures,
    fusion_frame_check,
    robust_to_erasures,
    subspace_basis,
)

__all__ = [
    "GOLDEN_U6",
    "GOLDEN_U8_COLUMNS",
    "periodic_signal",
    "sparse_top_channel",
    "RecoveryInstance",
    "recovery_instances",
    "DenoiseInstance",
    "denoise_instances",
    "table1_rows",
    "table2_rows",
    "run_examples",
    "run_erasures",
    "run_fusion",
    "run_tables",
]

_W = -1.5 + 2.598076211353316j  # 3·e^{2πi/3}/… the ±(3/2)(1 ∓ i√3) entries

# N=6, p=2 analysis polyphase matrices, channels (1, 2, 3, 6).
GOLDEN_U6 = {
    0: np.array([[3, 3], [3, -3], [0, 0], [0, 0]], dtype=complex),
    1: np.array([[0, 0], [0, 0], [3, _W], [3, -_W]], dtype=complex),
    2: np.array([[0, 0], [0, 0], [3, _W.conjugate()], [3, -_W.conjugate()]],
                dtype=complex),
}

# N=8, p=1: which channel row carries the single nonzero entry (value 8) per m.
GOLDEN_U8_COLUMNS = {0: 0, 4: 1, 2: 2, 6: 2, 1: 3, 3: 3, 5: 3, 7: 3}


def periodic_signal(N: int, periods, seed: int) -> np.ndarray:
    """Random real signal with exact components on the given divisor subspaces.

    Component coefficients are drawn standard normal, and each component is
    rescaled to ‖x_q‖² = φ(q), which equalizes the channels' gain-normalized
    output energies (the detection statistic).  Periods that are a string,
    not iterable or not integer divisors of N, and a seed that is not an
    integer ≥ 0, are a PreconditionError.
    """
    periods = _checked_periods(periods, divisors(N).divisors, N)
    rng = _seeded_rng(seed)
    x = np.zeros(N)
    for q in sorted(set(int(q) for q in periods)):
        basis = subspace_basis(1, q, N).basis
        comp = basis @ rng.standard_normal(basis.shape[1])
        nrm = float(np.linalg.norm(comp))
        if nrm < 1e-12:  # probability-zero draw; keep the instance valid
            comp = basis[:, 0]
            nrm = float(np.linalg.norm(comp))
        comp *= np.sqrt(totient(q)) / nrm
        x += comp
    return x


def sparse_top_channel(N: int) -> np.ndarray:
    """The canonical sparse vector of S_N: ⊛_{ℓ | N prime} (δ_0 − δ_{N/ℓ}).

    Its DFT is nonzero exactly on the totatives of N, so every analysis
    coefficient outside channel N vanishes; its time support has 2^ω(N)
    samples (ω = number of distinct prime factors).
    """
    x = np.zeros(N)
    x[0] = 1.0
    for ell in _factorize(N):
        x = x - np.roll(x, N // ell)  # x ∗ (δ_0 − δ_{N/ℓ})
    return x


def _coefficient_support(x, bank: RamanujanFilterBank) -> tuple[tuple[int, int], ...]:
    """The (k, i) pairs of x's coefficients above 1e−8 of the largest, channel-major."""
    coeffs = np.abs(analyze(x, bank))  # K × d, so nonzero's row-major order is channel-major
    i, k = np.nonzero(coeffs > 1e-8 * coeffs.max())
    return tuple(zip(k.tolist(), i.tolist()))


def _signed_scale(rng: np.random.Generator) -> float:
    """±(0.5 + |n|), n standard normal: a random sign, then one normal draw."""
    return float(rng.choice([-1.0, 1.0]) * (0.5 + abs(rng.standard_normal())))


def _sparse_draw(rng: np.random.Generator, menu, t: int):
    """Instance t's bank from menu, x a seeded shift and scale of its sparse
    top-channel vector, x's coefficient support and the bound A/β_o², β_o = φ(N)."""
    N, p = menu[t % len(menu)]
    bank = uniform_bank(N, p)
    shift = int(rng.integers(N))
    x = _signed_scale(rng) * np.roll(sparse_top_channel(N), shift)
    return bank, x, _coefficient_support(x, bank), bank.tight_bound() / totient(N) ** 2


@dataclass(frozen=True)
class RecoveryInstance:
    """A missing-coefficient problem whose size satisfies the exactness condition."""

    n: int
    p: int
    bank: RamanujanFilterBank
    x: np.ndarray
    retained: tuple[tuple[int, int], ...]
    missing: tuple[tuple[int, int], ...]
    n_coeffs: int
    condition: float  # 2·#missing·#coeffs
    bound: float  # p·(d/φ(N))²


# Lengths where the sparse top-channel vector leaves room under the bound:
# p(d/φ(N))² needs to exceed twice the coefficient-support size.
_RECOVERY_MENU = [(6, 1), (12, 1), (18, 1), (24, 1), (36, 1), (48, 1),
            (6, 2), (18, 2), (54, 2)]


def recovery_instances(count: int, seed: int) -> list[RecoveryInstance]:
    """Seeded missing-sample instances with 2·#missing·#coeffs < p(d/φ(N))²."""
    rng = _seeded_rng(seed)
    out = []
    for t in range(count):
        bank, x, support, bound = _sparse_draw(rng, _RECOVERY_MENU, t)
        N, p = bank.n, bank.ratio
        room = int(np.floor((bound - 1e-9) / (2 * len(support))))
        if room < 1:
            raise InternalError(f"menu entry (N={N}, p={p}) leaves no missing-budget")
        pairs = all_pairs(bank)
        picks = rng.choice(len(pairs), size=room, replace=False)
        missing = tuple(pairs[int(j)] for j in np.atleast_1d(picks))
        dropped = set(missing)
        retained = tuple(pr for pr in pairs if pr not in dropped)
        condition = 2.0 * len(missing) * len(support)
        if condition >= bound:
            raise InternalError("constructed instance violates its own hypothesis")
        out.append(RecoveryInstance(
            n=N, p=p, bank=bank, x=x, retained=retained, missing=missing,
            n_coeffs=len(support), condition=condition, bound=bound,
        ))
    return out


@dataclass(frozen=True)
class DenoiseInstance:
    """A sparse-corruption problem whose size satisfies the exactness condition."""

    n: int
    p: int
    bank: RamanujanFilterBank
    x: np.ndarray
    y: np.ndarray
    membership: tuple[tuple[int, int], ...]
    noise_support: tuple[int, ...]
    condition: float  # 2·#membership·#noise
    bound: float


_DENOISE_MENU = [(6, 1), (12, 1), (24, 1), (36, 1), (6, 2), (18, 2)]


def denoise_instances(count: int, seed: int) -> list[DenoiseInstance]:
    """Seeded single-spike denoise instances with 2·#membership·#noise < bound."""
    rng = _seeded_rng(seed)
    out = []
    for t in range(count):
        bank, x, membership, bound = _sparse_draw(rng, _DENOISE_MENU, t)
        N, p = bank.n, bank.ratio
        condition = 2.0 * len(membership) * 1
        if condition >= bound:
            raise InternalError(f"menu entry (N={N}, p={p}) violates the bound")
        pos = int(rng.integers(N))
        value = _signed_scale(rng) * float(np.abs(x).max())
        y = add_noise(x, SparseNoiseModel(support=(pos,), values=(value,)))
        out.append(DenoiseInstance(
            n=N, p=p, bank=bank, x=x, y=y, membership=membership,
            noise_support=(pos,), condition=condition, bound=bound,
        ))
    return out


# ---------------------------------------------------------------------------
# the two study tables


def _krange(lo: int, hi: int, i: int):
    return [(k, i) for k in range(lo, hi + 1)]


def table1_rows() -> list[dict]:
    """The six missing-coefficient patterns of the Z_70, p=2 recovery study.

    Channel indices are 0-based into the ascending divisors of 70:
    (1, 2, 5, 7, 10, 14, 35, 70).
    """
    return [
        {"row": 1, "missing": _krange(0, 2, 1) + _krange(17, 20, 2) + _krange(27, 29, 4)},
        {"row": 2, "missing": _krange(15, 34, 3)},
        {"row": 3, "missing": _krange(0, 24, 2) + _krange(0, 24, 7)},
        {"row": 4, "missing": _krange(0, 10, 2) + _krange(21, 34, 4) + _krange(10, 34, 6)},
        {"row": 5, "missing": _krange(6, 34, 3) + _krange(0, 34, 4) + [(12, 5)] + _krange(0, 34, 6)},
        {"row": 6, "missing": _krange(0, 9, 0) + _krange(5, 14, 1) + _krange(11, 30, 2)
                   + _krange(21, 34, 3) + _krange(17, 34, 4) + _krange(6, 34, 6)},
    ]


def table2_rows() -> list[dict]:
    """Component sets and per-row input SNRs of the Z_30 denoising study."""
    return [
        {"row": 1, "components": (1, 3), "snr_in": 0.0007},
        {"row": 2, "components": (3, 5), "snr_in": 0.0006},
        {"row": 3, "components": (2, 15), "snr_in": 0.0009},
        {"row": 4, "components": (3, 5, 10), "snr_in": 0.0004},
        {"row": 5, "components": (1, 2, 3, 6), "snr_in": 0.0008},
        {"row": 6, "components": (1, 3, 5, 6, 10), "snr_in": 0.0005},
        {"row": 7, "components": (2, 3, 5, 6, 10, 15), "snr_in": 0.0008},
    ]


def _complex_cells(M: np.ndarray):
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def run_examples() -> dict:
    """Worked polyphase examples: N=6 tight/18, N=8 tight/64, N=12 not a frame."""
    out: dict = {}

    bank6 = uniform_bank(6, 2)
    u = {m: polyphase_matrix(bank6, m) for m in range(3)}
    gram_err = max(
        float(np.abs(u[m].conj().T @ u[m] - 18 * np.eye(2)).max()) for m in u
    )
    out["n6_p2"] = {
        "matrices": {str(m): _complex_cells(u[m]) for m in u},
        "matches_printed": all(
            float(np.abs(u[m] - GOLDEN_U6[m]).max()) <= 1e-3 for m in u
        ),
        "gram_error": gram_err,
        "tight_bound": frame_report(bank6).A,
        "classification": classify_theorem_case(6, 2).case,
    }

    bank8 = uniform_bank(8, 1)
    cols = {m: polyphase_matrix(bank8, m)[:, 0] for m in range(8)}
    ok8 = all(
        abs(cols[m][row] - 8) <= 1e-9
        and float(np.abs(np.delete(cols[m], row)).max()) <= 1e-9
        for m, row in GOLDEN_U8_COLUMNS.items()
    )
    out["n8_p1"] = {
        "columns": {str(m): [[float(v.real), float(v.imag)] for v in cols[m]]
                    for m in cols},
        "matches_printed": ok8,
        "tight_bound": frame_report(bank8).A,
        "classification": classify_theorem_case(8, 1).case,
    }

    report12 = frame_report(uniform_bank(12, 2))
    out["n12_p2"] = {
        "ranks": list(report12.ranks),
        "rank_one_at": [m for m, r in enumerate(report12.ranks) if r == 1],
        "is_frame": report12.is_frame,
        "classification": classify_theorem_case(12, 2).case,
    }
    return out


def run_erasures() -> dict:
    """The Z_4 erasure story: every single deletion survives, one pair does not."""
    bank = uniform_bank(4, 1)
    prof = divisors(4)
    singles = {
        f"({k},{i})": robust_to_erasures(1, 4, [(k, i)])
        for i in range(prof.count)
        for k in range(4)
    }
    pair = robust_to_erasures(1, 4, [(0, 2), (2, 2)])  # both shifts of c_4 by 2
    margins = {
        str(prof.divisors[j]): [float(v) for v in channel_erasure_margins(bank, j)]
        for j in range(prof.count)
    }
    return {
        "n": 4,
        "p": 1,
        "single_erasures_robust": all(singles.values()),
        "singles": singles,
        "pair_L0c4_L2c4_robust": bool(pair),
        "channel_margins": margins,
    }


def run_fusion() -> dict:
    """Parseval fusion checks plus a local-erasure stress case on Z_30."""
    reports = {}
    for p, N in [(1, 30), (2, 6), (1, 1)]:
        r = fusion_frame_check(p, N, draws=20, seed=0)
        reports[f"p{p}_n{N}"] = {
            "a_f": r.a_f, "b_f": r.b_f, "parseval": r.parseval,
            "op_min": r.op_min, "op_max": r.op_max,
        }
    K = divisors(30).count
    one_each = fusion_after_local_erasures(1, 30, [[0]] * K)
    two_each = fusion_after_local_erasures(
        1, 30, [[0, 15]] * K
    )
    erased = {}
    for name, rep in [("one_per_channel", one_each), ("two_per_channel", two_each)]:
        erased[name] = {
            "a_f": rep.a_f, "b_f": rep.b_f, "frame": rep.frame_flag,
            "per_channel_lower": list(rep.per_channel_lower),
            "bound_ok": rep.bound_ok,
            "borderline": rep.hypothesis_borderline,
        }
    return {"parseval": reports, "after_local_erasures": erased}


def _gain(x: np.ndarray, before: np.ndarray, after: np.ndarray) -> float:
    return snr_db(x, x - after) - snr_db(x, x - before)


def run_tables(seed: int = 0) -> dict:
    """Both recovery studies on seeded stand-in signals.

    Study 1 (Z_70, p=2, components {5, 7}): each missing pattern solved twice,
    plain ℓ1 and period-constrained ℓ1.  Study 2 (Z_30, p=1): detection at
    threshold 0.45 followed by membership-constrained denoising; ``unique``
    says whether the denoised signal is the only ℓ1 optimum; where it is
    not, ``gain_db`` is that of the optimum nearest y in ℓ2, the point
    ``denoise`` returns on a face.
    """
    bank70 = uniform_bank(70, 2)
    x70 = periodic_signal(70, (5, 7), seed=seed)
    rep = uncertainty_report(x70, bank70)
    pairs70 = all_pairs(bank70)
    table1 = []
    for spec_row in table1_rows():
        missing = set((int(k), int(i)) for k, i in spec_row["missing"])
        retained = [pr for pr in pairs70 if pr not in missing]
        observed = truncated_sum(x70, retained, bank70)
        plain = recover_missing(observed, retained, bank70)
        periodic = recover_missing_periodic(observed, retained, bank70, (5, 7))
        table1.append({
            "row": spec_row["row"],
            "n_missing": len(missing),
            "n_coeffs": rep.s_x,
            "condition": 2.0 * len(missing) * rep.s_x,
            "bound": rep.prod_bound,
            "condition_met": 2.0 * len(missing) * rep.s_x < rep.prod_bound,
            "gain_plain_db": _gain(x70, observed, plain),
            "gain_periodic_db": _gain(x70, observed, periodic),
            "sup_err_plain": float(np.abs(x70 - plain).max()),
            "sup_err_periodic": float(np.abs(x70 - periodic).max()),
        })

    bank30 = uniform_bank(30, 1)
    bound30 = bank30.tight_bound() / totient(30) ** 2
    table2 = []
    for j, spec_row in enumerate(table2_rows()):
        x = periodic_signal(30, spec_row["components"], seed=seed + 1000 + j)
        y = add_noise(x, GaussianNoiseModel(spec_row["snr_in"]), seed=seed + 2000 + j)
        detected = detect_support_set(y, bank30, 0.45)
        xhat, B, y, fit = _denoise_fit(y, detected, bank30)
        table2.append({
            "row": spec_row["row"],
            "true_components": list(spec_row["components"]),
            "estimated_components": list(detected.channels),
            "n_membership": len(detected.pairs),
            "n_noise": 30,
            "condition": 2.0 * len(detected.pairs) * 30,
            "bound": bound30,
            "condition_met": 2.0 * len(detected.pairs) * 30 < bound30,
            "snr_in_db": spec_row["snr_in"],
            "gain_db": _gain(x, y, xhat),
            "unique": lad_fit_unique(B, y, fit),
        })
    return {"seed": seed, "table1": table1, "table2": table2}
