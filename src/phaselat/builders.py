"""Constructive maps between the witnesses of phase-retrieval analysis.

Each builder turns one kind of certificate into another: a disjoint pair
into a phase-retrieval failure, an almost-disjoint pair into a quantified
stability violation, a stability violation into an almost-perpendicular
pair, and an almost-perpendicular pair back into a stability violation.
Every construction validates its hypothesis by measurement and asserts
the promised bounds on its output; a violated bound raises instead of
returning a silently weaker certificate.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lattice import (
    as_vector,
    check_same_dim,
    modulus,
    perp_profile,
    require_independent,
)
from .phase_metric import PairWitness, spr_ratio, unimodular_distance
from .hilbert import (
    SQRT2,
    CertificateError,
    PreconditionError,
    align_pair,
    fit_hilbert_norm,
    orthogonal_reduce,
    reduce_pair,
)

__all__ = [
    "M_RANGE_MAX",
    "BuilderParams",
    "DisjointLift",
    "SPRViolation",
    "PerpFailure",
    "EquivalenceVerdict",
    "disjoint_to_pr_failure",
    "adp_to_spr_violation",
    "spr_failure_to_perp_pair",
    "perp_pair_to_spr_failure",
    "complex_pr_equivalences",
]

# the separation parameter of an almost-perpendicular pair lives below this
M_RANGE_MAX = 1.0 / SQRT2 - 0.5


def delta_of_m(m):
    """Coefficient-sphere floor parameter: sqrt(1 - d^2) - d = d m / 2."""
    return 1.0 / math.sqrt(1.0 + (1.0 + 0.5 * m) ** 2)


@dataclass(frozen=True)
class BuilderParams:
    """Derived constants shared by the perpendicular-pair constructions.

    theta inverts m = w/sqrt(2) + sqrt(1 + w^2)/(2 sqrt(2)) - 1, w = 1 - theta,
    in closed form.  With a = 1 + m, squaring sqrt(1 + w^2) = 2 sqrt(2) a - 2w
    gives 3w^2 - 8 sqrt(2) a w + 8a^2 - 1 = 0, whose one root below sqrt(2) a
    is w = (4 sqrt(2) a - sqrt(8a^2 + 3)) / 3.  Rationalized, with
    M = M_RANGE_MAX (a = M and 1 + M are the roots of 4a^2 - 4 sqrt(2) a + 1),
    theta = 4 (M - m)(3 + 2m - sqrt(2)) / (sqrt(8a^2 + 3) + 4 sqrt(2) a - 3),
    a ratio of positive terms free of cancellation, falling from about 0.22
    at m = 0 to 0 at m = M.  C_required carries a 1.01 factor so the strict
    inequality survives floating arithmetic.
    """

    m: float
    epsilon: float
    theta: float
    delta: float
    C_required: float

    @classmethod
    def from_m_eps(cls, m, epsilon):
        if not 0.0 < m < M_RANGE_MAX:
            raise PreconditionError(
                f"m must lie in (0, {M_RANGE_MAX:.6f}), got {m}"
            )
        if epsilon <= 0.0:
            raise PreconditionError("epsilon must be positive")
        a = 1.0 + m
        theta = 4.0 * (M_RANGE_MAX - m) * (3.0 + 2.0 * m - SQRT2) / (
            math.sqrt(8.0 * a * a + 3.0) + 4.0 * SQRT2 * a - 3.0)
        w = 1.0 - theta
        c_req = 1.01 * max(
            8.0 * SQRT2 / ((1.0 + w * w) * epsilon * epsilon),
            2.0 * SQRT2 / theta,
        )
        return cls(
            m=float(m),
            epsilon=float(epsilon),
            theta=float(theta),
            delta=delta_of_m(m),
            C_required=float(c_req),
        )


class DisjointLift(NamedTuple):
    F: np.ndarray
    G: np.ndarray


class SPRViolation(NamedTuple):
    f_prime: np.ndarray
    g_prime: np.ndarray
    certified_ratio: float


class PerpFailure(NamedTuple):
    f: np.ndarray
    g: np.ndarray
    measured_ratio: float


class EquivalenceVerdict(NamedTuple):
    same_modulus_pair: bool
    sum_diff_modulus: bool
    perpendicular: bool
    pythagorean: bool


def _require_normalized(u, v, norm):
    nu, nv = norm(u), norm(v)
    if abs(nu - 1.0) > 1e-10 or abs(nv - 1.0) > 1e-10:
        raise PreconditionError(
            f"inputs must be normalized, got norms {nu:.12f}, {nv:.12f}"
        )


def disjoint_to_pr_failure(f, g, norm, field="complex"):
    """Lift a disjoint pair to two vectors with identical moduli.

    F = f + g and G = f - g; disjoint supports force |F| = |G| = |f| + |g|
    coordinatewise.  A largest modulus at most 1e-12 counts as zero, and
    an overlap above 1e-12 times the larger one as not disjoint.
    """
    f = as_vector(f, field)
    g = as_vector(g, field)
    check_same_dim(f, g)
    scale = max(float(np.max(modulus(f))), float(np.max(modulus(g))))
    if float(np.max(modulus(f))) <= 1e-12 or float(np.max(modulus(g))) <= 1e-12:
        raise PreconditionError("inputs must be nonzero")
    overlap = np.minimum(modulus(f), modulus(g))
    if np.any(overlap > 1e-12 * scale):
        raise PreconditionError(
            f"inputs are not disjoint, max overlap {float(np.max(overlap)):.3e}"
        )
    F = f + g
    G = f - g
    if np.any(np.abs(modulus(F) - modulus(G)) > 1e-12 * max(scale, 1.0)):
        raise CertificateError("moduli of f+g and f-g differ beyond rounding")
    require_independent(np.stack([F, G]), CertificateError("constructed pair is dependent"))
    return DisjointLift(F=F, G=G)


def adp_to_spr_violation(u, v, norm, field="complex"):
    """Turn an almost-disjoint normalized pair into a stability violation.

    Runs fit -> align -> reduce on span{u, v} and certifies the reduced
    pair: modulus gap at most 2 eps' and phase distance at least
    2/distortion_K, which is sqrt(2) for a fit at the John bound.  The
    certified ratio therefore lands at 1/(sqrt(2) eps') up to fit slack,
    where eps' = || |u| ^ |v| ||.
    """
    u = as_vector(u, field)
    v = as_vector(v, field)
    check_same_dim(u, v)
    _require_normalized(u, v, norm)
    eps_p = norm(np.minimum(modulus(u), modulus(v)))
    if eps_p >= 1.0:
        raise PreconditionError(f"pair is not almost disjoint, overlap {eps_p:.6f}")

    H = fit_hilbert_norm(u, v, norm, field=field)
    aligned = align_pair(u, v, H)
    red = orthogonal_reduce(aligned.f, aligned.g, H, aligned.mu)
    f1, g1 = red.f_prime, red.g_prime

    rep = spr_ratio(f1, g1, norm, field=field)
    den = rep.denominator
    num = rep.numerator
    if den > 2.0 * eps_p + 1e-8:
        raise CertificateError(
            f"modulus gap {den:.3e} exceeds 2 eps' = {2 * eps_p:.3e}"
        )
    # f1 - g1 equals 2 mu times the smaller-H-norm input, so orthogonality
    # forces num >= 2||small||_H / K; the floor is sqrt(2) exactly when the
    # fit reaches the John bound.  distortion_K is exact at p in {2, inf}
    # and at real p = 1, but a scanned maximum at real p = 3 and complex
    # p in {1, 3}, which can miss narrow ridge spikes by ~1e-5 relative, so
    # the consistency guard budgets 1e-4 for scan resolution
    small = u if aligned.swapped else v
    num_floor = 2.0 * H.norm_h(small) / H.distortion_K
    if num < num_floor * (1.0 - 1e-4):
        raise CertificateError(
            f"phase distance {num:.12f} fell below the certified {num_floor:.12f}"
        )
    if rep.flag == "infinite":
        certified = math.inf
    elif rep.flag is None:
        certified = rep.ratio
        floor = num_floor / (2.0 * eps_p + 1e-8) if eps_p > 1e-13 else math.inf
        if certified < floor * (1.0 - 1e-4):
            raise CertificateError(
                f"certified ratio {certified:.6e} below the {floor:.6e} elbow"
            )
    else:
        raise CertificateError("reduced pair degenerated; inputs were dependent")
    return SPRViolation(f_prime=f1, g_prime=g1, certified_ratio=certified)


def spr_failure_to_perp_pair(f, g, norm, m, epsilon, field="complex"):
    """Extract a separated almost-perpendicular pair from an SPR failure.

    The hypothesis is measured, never trusted: the pair's ratio must
    exceed C_required(m, epsilon).  The reduced, renormalized half-sum
    and half-difference form the witness; separation >= m and
    perp < epsilon are asserted on the output.  The witness is marked
    marginal when the smaller reduced vector sits below 1 - theta, the
    proof's intermediate bound, by more than rounding.
    """
    params = BuilderParams.from_m_eps(m, epsilon)
    f = as_vector(f, field)
    g = as_vector(g, field)
    check_same_dim(f, g)
    rep = spr_ratio(f, g, norm, field=field)
    if rep.flag == "degenerate":
        raise PreconditionError("pair is a unimodular multiple, no SPR failure")
    if rep.flag is None and rep.ratio <= params.C_required:
        raise PreconditionError(
            f"measured ratio {rep.ratio:.6g} does not exceed required "
            f"C = {params.C_required:.6g}"
        )

    _, red = reduce_pair(f, g, norm, field=field)
    f1, g1 = red.f_prime, red.g_prime
    if norm(f1) < norm(g1):
        f1, g1 = g1, f1
    s = norm(f1)
    if s <= 1e-30:
        raise CertificateError("reduction collapsed the pair")
    f1 = f1 / s
    g1 = g1 / s
    marginal = norm(g1) < 1.0 - params.theta - 1e-9

    u1 = 0.5 * (f1 + g1)
    v1 = 0.5 * (f1 - g1)
    nu1, nv1 = norm(u1), norm(v1)
    if nu1 <= 1e-30 or nv1 <= 1e-30:
        raise CertificateError("half-sum or half-difference vanished")
    wit = PairWitness.from_vectors(
        u1 / nu1, v1 / nv1, norm, field, marginal=marginal
    )
    if wit.separation < m - 1e-8:
        raise CertificateError(
            f"separation {wit.separation:.9f} fell below m = {m}"
        )
    if not wit.perp < epsilon:
        raise CertificateError(
            f"perpendicularity defect {wit.perp:.9f} not below {epsilon}"
        )
    return wit


def perp_pair_to_spr_failure(u, v, norm, m, C, field="complex"):
    """Turn a separated almost-perpendicular pair into an SPR failure.

    Requires perp(u, v) strictly below delta m / (2C); then f = u + v and
    g = u - v satisfy || |f| - |g| || <= 2 perp while the phase distance
    stays above delta m, so the measured ratio exceeds C.

    The distance rests on the coefficient-sphere floor, which is proven,
    not sampled: for normalized u, v with separation sep and unit
    (alpha, beta), ||alpha u + beta v|| >= sep / (2 sqrt(2)).  The
    separation is symmetric in u and v, so let |alpha| >= |beta|; then
    t = |beta| / |alpha| <= 1, |alpha| >= 1/sqrt(2), and for a unimodular
    lambda, ||alpha u + beta v|| = |alpha| ||u - lambda t v||, which the
    triangle inequality bounds below by |alpha| max(sep - (1 - t), 1 - t)
    >= |alpha| sep / 2.  Since delta(m) = 1/sqrt(1 + (1 + m/2)^2) is below
    1/sqrt(2), the asserted sep >= m - 1e-12 gives a floor above
    delta m / 2 - 1e-12, and ||f - lambda g|| = ||(1 - lambda) u +
    (1 + lambda) v|| >= 2 floor, as |1 - lambda|^2 + |1 + lambda|^2 = 4.
    """
    if m <= 0.0:
        raise PreconditionError("m must be positive")
    if C <= 0.0:
        raise PreconditionError("C must be positive")
    u = as_vector(u, field)
    v = as_vector(v, field)
    check_same_dim(u, v)
    _require_normalized(u, v, norm)
    delta = delta_of_m(m)

    sep = unimodular_distance(u, v, norm, field=field).distance
    if sep < m - 1e-12:
        raise PreconditionError(
            f"separation {sep:.9f} below m = {m} by {m - sep:.3e}"
        )
    perp = norm(perp_profile(u, v))
    bound = delta * m / (2.0 * C)
    if not perp < bound:
        raise PreconditionError(
            f"perp {perp:.9e} not strictly below delta m/(2C) = {bound:.9e}, "
            f"excess {perp - bound:.3e}"
        )

    f = u + v
    g = u - v
    require_independent(np.stack([f, g]), CertificateError("constructed pair is dependent"))

    # pointwise chain: | |f|-|g| | <= 2 |Re(u conj v)|^(1/2)
    scale = max(1.0, float(np.max(modulus(f))), float(np.max(modulus(g))))
    lhs = np.abs(modulus(f) - modulus(g))
    rhs = 2.0 * perp_profile(u, v)
    if np.any(lhs > rhs + 1e-12 * scale):
        raise CertificateError("pointwise modulus-gap chain failed")
    den = norm(np.abs(modulus(f) - modulus(g)))
    if den > 2.0 * perp + 1e-12:
        raise CertificateError(
            f"modulus gap {den:.3e} exceeds 2 perp = {2 * perp:.3e}"
        )

    rep = spr_ratio(f, g, norm, field=field)
    num = rep.numerator
    if not num > C * den:
        raise CertificateError(
            f"phase distance {num:.9f} not strictly above C * gap = {C * den:.9f}"
        )
    measured = math.inf if rep.flag == "infinite" else rep.ratio
    if rep.flag == "degenerate":
        raise CertificateError("constructed pair degenerated")
    return PerpFailure(f=f, g=g, measured_ratio=float(measured))


def complex_pr_equivalences(f, g, atol=1e-9):
    """Evaluate the four pointwise phase-retrieval conditions on a pair.

    Conditions: (u, v) = (f+g, f-g) share a modulus; |f-g| = |f+g|;
    Re(f conj g) = 0; |f+g| = (|f|^2 + |g|^2)^(1/2).  The first two are
    the same statement, and as computed the same comparison, since
    fl(a - b) = -fl(b - a); both fields report it.  The conditions are
    equivalent, so the booleans must agree; disagreement raises.  Modulus
    comparisons use atol at linear scale and the real-part comparison at
    quadratic scale, matching how rounding propagates through each.
    """
    f = as_vector(f, "complex")
    g = as_vector(g, "complex")
    check_same_dim(f, g)
    require_independent(
        np.stack([f, g]), PreconditionError("conditions require an independent pair")
    )
    s = max(1.0, float(np.max(modulus(f))), float(np.max(modulus(g))))
    usum = f + g
    vdiff = f - g
    b1 = bool(np.all(np.abs(modulus(usum) - modulus(vdiff)) <= atol * s))
    b3 = bool(np.all(np.abs((f * np.conj(g)).real) <= atol * s * s))
    b4 = bool(
        np.all(
            np.abs(modulus(usum) - np.sqrt(modulus(f) ** 2 + modulus(g) ** 2))
            <= atol * s
        )
    )
    verdict = EquivalenceVerdict(
        same_modulus_pair=b1, sum_diff_modulus=b1, perpendicular=b3, pythagorean=b4
    )
    if len({b1, b3, b4}) != 1:
        raise CertificateError(f"equivalent conditions disagree: {verdict}")
    return verdict
