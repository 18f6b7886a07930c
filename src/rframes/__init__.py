"""Ramanujan-sum filter banks on ℓ²(Z_N).

Exact frame construction and verification from shifted Ramanujan sums,
period identification, erasure/fusion robustness analysis, and
ℓ1-minimization recovery of missing or noisy samples.
"""

from .errors import InternalError, PreconditionError, SolverError
from .filterbank import (
    Channel,
    RamanujanFilterBank,
    analyze,
    channel_energies,
    identify_period,
    synthesize,
    uniform_bank,
)
from .frames import (
    FrameReport,
    TheoremCase,
    classify_theorem_case,
    frame_operator,
    frame_report,
    polyphase_matrix,
    zak,
    zak_inverse,
    zak_value_oracle,
)
from .numtheory import (
    DivisorProfile,
    circular_convolution,
    circular_shift,
    divisors,
    inner_product,
    mobius,
    ramanujan_sum,
    totient,
)
from .recovery import (
    GaussianNoiseModel,
    MembershipConstraintSet,
    SparseNoiseModel,
    UncertaintyReport,
    add_noise,
    all_pairs,
    denoise,
    detect_support_set,
    membership_null_basis,
    recover_missing,
    recover_missing_periodic,
    snr_db,
    truncated_sum,
    uncertainty_report,
)
from .simplex import LpResult, l1_fit, lad_fit, simplex_solve, solve_l1_lp
from .subspaces import (
    DecompositionCheck,
    FusionErasureReport,
    FusionFrameReport,
    NonUniformBankSpec,
    RamanujanSubspace,
    aliasing_divisors,
    build_nonuniform,
    channel_erasure_margins,
    filterbank_erasure_margin,
    fusion_after_local_erasures,
    fusion_frame_check,
    orthogonal_decomposition_check,
    orthonormalize,
    rank_Q,
    robust_to_erasures,
    rpt_expand,
    subspace_basis,
)

__version__ = "0.1.0"

__all__ = [
    "InternalError", "PreconditionError", "SolverError",
    "Channel", "RamanujanFilterBank", "uniform_bank",
    "analyze", "synthesize", "channel_energies", "identify_period",
    "FrameReport", "TheoremCase", "classify_theorem_case",
    "frame_operator", "frame_report", "polyphase_matrix",
    "zak", "zak_inverse", "zak_value_oracle",
    "DivisorProfile", "divisors", "totient", "mobius", "ramanujan_sum",
    "circular_shift", "circular_convolution", "inner_product",
    "GaussianNoiseModel", "SparseNoiseModel", "MembershipConstraintSet",
    "UncertaintyReport", "uncertainty_report", "all_pairs", "truncated_sum",
    "recover_missing", "recover_missing_periodic", "membership_null_basis",
    "denoise", "detect_support_set", "snr_db", "add_noise",
    "LpResult", "simplex_solve", "solve_l1_lp", "l1_fit", "lad_fit",
    "RamanujanSubspace", "subspace_basis", "orthonormalize", "DecompositionCheck",
    "orthogonal_decomposition_check", "rpt_expand", "rank_Q",
    "NonUniformBankSpec", "aliasing_divisors", "build_nonuniform",
    "filterbank_erasure_margin", "channel_erasure_margins",
    "robust_to_erasures", "FusionFrameReport", "fusion_frame_check",
    "FusionErasureReport", "fusion_after_local_erasures",
]
