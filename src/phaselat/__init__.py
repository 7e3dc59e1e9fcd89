"""Numerical phase retrieval on finite-dimensional Banach lattices.

Coordinate lattices (real or complex vectors under a weighted p-norm)
carry a literal functional calculus, which makes the classical
phase-retrieval identities exact pointwise formulas.  The package
measures phase distances, estimates stability constants of subspaces,
fits equivalent Hilbert norms with controlled distortion, and converts
between the different witnesses of stability failure.
"""

from .lattice import (
    Ambient,
    InputError,
    NormSpec,
    PhaseLatError,
    abs_prod_sqrt,
    as_vector,
    join,
    meet,
    modulus,
    perp_measure,
    perp_profile,
    re_prod,
)
from .phase_metric import (
    PairWitness,
    PhaseAlignment,
    RatioReport,
    spr_ratio,
    unimodular_distance,
)
from .hilbert import (
    AlignedPair,
    CertificateError,
    DependentVectorsError,
    FitDistortionError,
    HilbertForm,
    PreconditionError,
    ReductionResult,
    SpanError,
    align_pair,
    fit_hilbert_norm,
    nonneg_rotation,
    orthogonal_reduce,
    reduce_pair,
)
from .search import (
    InfeasibleError,
    PRVerdict,
    SPREstimate,
    SearchBudget,
    Subspace,
    check_pr,
    estimate_spr_constant,
    search_almost_disjoint,
    search_perp_pair,
)
from .builders import (
    BuilderParams,
    DisjointLift,
    EquivalenceVerdict,
    PerpFailure,
    SPRViolation,
    adp_to_spr_violation,
    complex_pr_equivalences,
    disjoint_to_pr_failure,
    perp_pair_to_spr_failure,
    spr_failure_to_perp_pair,
)

__version__ = "0.1.0"

__all__ = [
    "Ambient", "InputError", "NormSpec", "PhaseLatError", "abs_prod_sqrt",
    "as_vector", "join", "meet", "modulus", "perp_measure", "perp_profile",
    "re_prod", "PairWitness", "PhaseAlignment", "RatioReport", "spr_ratio",
    "unimodular_distance",
    "AlignedPair", "CertificateError", "DependentVectorsError",
    "FitDistortionError", "HilbertForm", "PreconditionError",
    "ReductionResult", "SpanError", "align_pair", "fit_hilbert_norm",
    "nonneg_rotation", "orthogonal_reduce", "reduce_pair",
    "InfeasibleError", "PRVerdict", "SPREstimate", "SearchBudget",
    "Subspace", "check_pr", "estimate_spr_constant",
    "search_almost_disjoint", "search_perp_pair",
    "BuilderParams", "DisjointLift", "EquivalenceVerdict", "PerpFailure",
    "SPRViolation", "adp_to_spr_violation", "complex_pr_equivalences",
    "disjoint_to_pr_failure", "perp_pair_to_spr_failure",
    "spr_failure_to_perp_pair",
]
