"""Derivative-free witness searches over finite-dimensional subspaces.

Estimates the stable-phase-retrieval constant of a subspace, hunts for
almost-disjoint and almost-perpendicular pairs, and decides phase
retrieval numerically.  Pairs are parameterized by coefficient vectors on
the unit sphere of the (realified) coefficient space and renormalized in
the lattice norm, so the search space stays compact.  Local moves are
coordinate pattern steps, which tolerate the kinks of the p = 1 and
p = infinity norms; every returned witness is re-measured from scratch by
the lattice and phase-distance primitives before being reported.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Ambient, PhaseLatError, as_vector, require_independent
from .phase_metric import RATIO_ATOL_SCALE, PairWitness, spr_ratio
from . import builders

__all__ = [
    "InfeasibleError",
    "Subspace",
    "SearchBudget",
    "PairWitness",
    "SPREstimate",
    "PRVerdict",
    "estimate_spr_constant",
    "search_almost_disjoint",
    "search_perp_pair",
    "check_pr",
]

UNBOUNDED_RATIO = 1e9

# coarse unimodular grid used inside search loops; final measurements
# always go through unimodular_distance at full precision
_SEP_ANGLES = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
_SEP_GRID = np.exp(1j * _SEP_ANGLES)
_SEP_SPACING = float(_SEP_ANGLES[1])
# refined coarse separation overestimates the true one by at most
# ~2 sin(spacing / 32) * ||g||, about 8e-3 on normalized pairs
_SEP_MARGIN = 0.01


class InfeasibleError(PhaseLatError):
    """No pair satisfying the separation constraint was found."""


@dataclass(frozen=True, eq=False)
class Subspace:
    """span of the rows of ``basis`` inside ``ambient``."""

    ambient: Ambient
    basis: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.basis))
        rows = np.stack([as_vector(r, self.ambient.field) for r in rows])
        if rows.shape[1] != self.ambient.dim:
            raise ValueError("basis vectors do not match the ambient dimension")
        if rows.shape[0] > 1:
            require_independent(rows, ValueError("basis is numerically dependent"))
        object.__setattr__(self, "basis", rows)

    @property
    def k(self):
        return self.basis.shape[0]

    def element(self, coeffs):
        coeffs = np.asarray(coeffs)
        return coeffs @ self.basis

    def _param_dim(self):
        return self.k * (2 if self.ambient.field == "complex" else 1)

    def _coeff_rows(self, X):
        # realified parameter rows -> coefficient rows
        if self.ambient.field == "complex":
            return X[:, : self.k] + 1j * X[:, self.k :]
        return X


@dataclass(frozen=True)
class SearchBudget:
    restarts: int = 12
    iterations_per_restart: int = 250
    penalty_rounds: int = 3

    def __post_init__(self):
        if self.restarts < 1 or self.iterations_per_restart < 1 or self.penalty_rounds < 1:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True, eq=False)
class SPREstimate:
    c_lower: float
    unbounded: bool
    witness_f: np.ndarray
    witness_g: np.ndarray
    report: object
    budget_used: dict
    seed: int


@dataclass(frozen=True, eq=False)
class PRVerdict:
    verdict: str
    min_perp_per_m: dict
    witness: object
    eps_fail: float


def _normalize_halves(X, da):
    X = np.array(X, dtype=float)
    na = np.linalg.norm(X[:, :da], axis=1)
    nb = np.linalg.norm(X[:, da:], axis=1)
    keep = (na > 1e-30) & (nb > 1e-30)
    X = X[keep]
    X[:, :da] /= na[keep, None]
    X[:, da:] /= nb[keep, None]
    return X


def _normalize_joint(X, da):
    # rescale whole rows only: the relative scale of the two halves is a
    # genuine degree of freedom for the ratio objective
    X = np.array(X, dtype=float)
    n = np.linalg.norm(X, axis=1)
    keep = n > 1e-30
    X = X[keep]
    X /= n[keep, None] / math.sqrt(2.0)
    return X


def _pattern_search(objective, x0, da, max_sweeps, delta0=0.35,
                    delta_min=1e-12, plateau=None, project=None):
    """Best-improvement pattern search on a projected parameter space.

    ``objective`` maps projected parameter rows to values (lower is
    better).  ``project`` cleans candidate rows; the default restricts to
    the product of two unit coefficient spheres.  Returns
    (x, value, sweeps).  ``plateau`` maps the current best value to a
    delta below which further refinement is pointless.
    """
    if project is None:
        project = _normalize_halves
    x = project(x0[None, :], da)[0]
    fx = float(objective(x[None, :])[0])
    if math.isnan(fx):
        fx = math.inf
    dim = x.shape[0]
    delta = delta0
    sweeps = 0
    eye = np.eye(dim)
    while sweeps < max_sweeps and delta > delta_min:
        sweeps += 1
        cands = np.vstack([x + delta * eye, x - delta * eye])
        cands = project(cands, da)
        if cands.shape[0] == 0:
            delta *= 0.5
            continue
        vals = objective(cands)
        best = int(np.nanargmin(vals)) if not np.all(np.isnan(vals)) else -1
        if best >= 0 and vals[best] < fx - 1e-15:
            x = cands[best]
            fx = float(vals[best])
            if not math.isfinite(fx):
                break
        else:
            delta *= 0.5
        if plateau is not None and delta < plateau(fx):
            break
    return x, fx, sweeps


def _pairs_from_params(E, X):
    da = E._param_dim()
    A = E._coeff_rows(X[:, :da])
    B = E._coeff_rows(X[:, da:])
    U = A @ E.basis
    V = B @ E.basis
    return U, V


def _normalized_pairs(E, X):
    U, V = _pairs_from_params(E, X)
    norm = E.ambient.norm
    nu = norm.of_rows(U)
    nv = norm.of_rows(V)
    ok = (nu > 1e-30) & (nv > 1e-30)
    return U[ok] / nu[ok, None], V[ok] / nv[ok, None], ok


def _sep_rows_coarse(U, V, norm, field, refine=False):
    if field != "complex":
        lams = np.array([1.0, -1.0])
        diffs = U[:, None, :] - lams[None, :, None] * V[:, None, :]
        flat = diffs.reshape(-1, U.shape[1])
        return norm.of_rows(flat).reshape(U.shape[0], 2).min(axis=1)
    diffs = U[:, None, :] - _SEP_GRID[None, :, None] * V[:, None, :]
    flat = diffs.reshape(-1, U.shape[1])
    vals = norm.of_rows(flat).reshape(U.shape[0], _SEP_GRID.shape[0])
    coarse = vals.min(axis=1)
    if not refine:
        return coarse
    th0 = _SEP_ANGLES[vals.argmin(axis=1)]
    offs = np.linspace(-_SEP_SPACING, _SEP_SPACING, 17)
    lam2 = np.exp(1j * (th0[:, None] + offs[None, :]))
    diffs2 = U[:, None, :] - lam2[:, :, None] * V[:, None, :]
    flat2 = diffs2.reshape(-1, U.shape[1])
    vals2 = norm.of_rows(flat2).reshape(U.shape[0], offs.shape[0])
    return np.minimum(coarse, vals2.min(axis=1))


def _ratio_objective(E):
    norm = E.ambient.norm
    field = E.ambient.field

    def fn(X):
        U, V = _pairs_from_params(E, X)
        num = _sep_rows_coarse(U, V, norm, field)
        den = norm.of_rows(np.abs(np.abs(U) - np.abs(V)))
        scale = RATIO_ATOL_SCALE * np.maximum(
            np.maximum(norm.of_rows(U), norm.of_rows(V)), 1.0
        )
        out = np.full(U.shape[0], np.nan)
        live = den > scale
        out[live] = -num[live] / den[live]
        out[(~live) & (num > scale)] = -np.inf
        return out

    return fn


def _disjoint_objective(E):
    norm = E.ambient.norm

    def fn(X):
        U, V, ok = _normalized_pairs(E, X)
        out = np.full(X.shape[0], np.nan)
        out[ok] = norm.of_rows(np.minimum(np.abs(U), np.abs(V)))
        return out

    return fn


def _perp_objective(E, m, rho):
    norm = E.ambient.norm
    field = E.ambient.field

    def fn(X):
        U, V, ok = _normalized_pairs(E, X)
        perp = norm.of_rows(np.sqrt(np.abs((U * np.conj(V)).real)))
        out = np.full(X.shape[0], np.nan)
        if m > 0.0:
            sep = _sep_rows_coarse(U, V, norm, field, refine=True)
            viol = np.maximum(m - sep, 0.0)
            out[ok] = perp + rho * viol * viol
        else:
            out[ok] = perp
        return out

    return fn


def _feasibility_objective(E, target):
    # drives a pair into the separation-feasible region; zero once there
    norm = E.ambient.norm
    field = E.ambient.field

    def fn(X):
        U, V, ok = _normalized_pairs(E, X)
        out = np.full(X.shape[0], np.nan)
        sep = _sep_rows_coarse(U, V, norm, field, refine=True)
        out[ok] = np.maximum(target - sep, 0.0)
        return out

    return fn


def _random_params(rng, E, count):
    return rng.standard_normal((count, 2 * E._param_dim()))


def _params_from_pair(E, u, v):
    # least-squares coefficients, realified; scale is kept as given
    cu, *_ = np.linalg.lstsq(E.basis.T, u, rcond=None)
    cv, *_ = np.linalg.lstsq(E.basis.T, v, rcond=None)
    if E.ambient.field == "complex":
        x = np.concatenate([cu.real, cu.imag, cv.real, cv.imag])
    else:
        x = np.concatenate([cu.real, cv.real])
    return x


def _warm_start_pairs(E, budget, seed):
    """High-ratio pairs built from an almost-disjoint pair.

    Returns (params, pairs): pattern-search starting rows and the raw
    vector pairs themselves.  The sum/difference pair of a normalized
    eps-almost disjoint pair realizes the ratio 1/eps in the real case
    (and 1/(sqrt(2) eps) after orthogonal reduction in the complex
    case), so the relative scale of the halves must be preserved.
    """
    starts, pairs = [], []
    try:
        adp = search_almost_disjoint(E, budget, seed + 101)
    except (PhaseLatError, ValueError):
        return starts, pairs
    if adp.disjointness >= 0.9:
        return starts, pairs
    norm = E.ambient.norm
    if E.ambient.field == "real":
        f = adp.u + adp.v
        g = adp.u - adp.v
        starts.append(_params_from_pair(E, f, g))
        pairs.append((f, g))
    else:
        try:
            cert = builders.adp_to_spr_violation(adp.u, adp.v, norm)
            f, g = cert.f_prime, cert.g_prime
            starts.append(_params_from_pair(E, f, g))
            pairs.append((f, g))
        except PhaseLatError:
            pass
    return starts, pairs


def estimate_spr_constant(E, budget=None, seed=0):
    """Lower-bound the SPR constant by maximizing the ratio over pairs.

    Seeded random restarts plus pattern ascent; the best pair found is
    re-measured at full precision and its ratio reported as c_lower.
    The estimate is flagged unbounded when the ratio exceeds 1e9 or the
    denominator degenerates on a separated pair.
    """
    budget = budget or SearchBudget()
    rng = np.random.default_rng(seed)
    objective = _ratio_objective(E)
    norm = E.ambient.norm
    field = E.ambient.field

    # colinear pairs realize ratio 1 whenever it is defined
    best_c = 1.0
    best_pair = (E.basis[0] / norm(E.basis[0]), 0.5 * E.basis[0] / norm(E.basis[0]))
    best_report = None
    unbounded = False
    sweeps_total = 0

    def consider(f, g):
        nonlocal best_c, best_pair, best_report, unbounded
        report = spr_ratio(f, g, norm, field=field)
        if report.flag == "infinite":
            best_c, best_pair, best_report = math.inf, (f, g), report
            unbounded = True
        elif report.flag is None and report.ratio > best_c:
            best_c, best_pair, best_report = report.ratio, (f, g), report
            if report.ratio > UNBOUNDED_RATIO:
                unbounded = True
        return unbounded

    warm_starts, warm_pairs = _warm_start_pairs(E, budget, seed)
    starts = warm_starts + list(_random_params(rng, E, budget.restarts))
    stop = any(consider(f, g) for f, g in warm_pairs)
    if not stop:
        for x0 in starts:
            x, fx, sweeps = _pattern_search(
                objective, x0, E._param_dim(), budget.iterations_per_restart,
                project=_normalize_joint,
            )
            sweeps_total += sweeps
            U, V = _pairs_from_params(E, x[None, :])
            if consider(U[0], V[0]):
                break
    if best_report is None:
        best_report = spr_ratio(best_pair[0], best_pair[1], norm, field=field)
        if best_report.flag is None:
            best_c = max(best_c, best_report.ratio)
    return SPREstimate(
        c_lower=float(best_c),
        unbounded=unbounded,
        witness_f=best_pair[0],
        witness_g=best_pair[1],
        report=best_report,
        budget_used={"restarts": len(starts), "sweeps": sweeps_total},
        seed=seed,
    )


def search_almost_disjoint(E, budget=None, seed=0):
    """Minimize ||min(|u|, |v|)|| over normalized pairs in E."""
    budget = budget or SearchBudget()
    rng = np.random.default_rng(seed)
    objective = _disjoint_objective(E)
    best_x = None
    best_v = math.inf
    for x0 in _random_params(rng, E, budget.restarts):
        x, fx, _ = _pattern_search(
            objective, x0, E._param_dim(), budget.iterations_per_restart,
            plateau=lambda f: 1e-14,
        )
        if fx < best_v:
            best_v, best_x = fx, x
    U, V, _ = _normalized_pairs(E, best_x[None, :])
    return PairWitness.from_vectors(U[0], V[0], E.ambient.norm, E.ambient.field)


def search_perp_pair(E, m, budget=None, seed=0, feas_tol=1e-6):
    """Minimize the perpendicularity defect subject to separation >= m.

    Exterior penalty with escalating weight; the returned witness is
    re-measured at full precision and must satisfy
    separation >= m - feas_tol, otherwise InfeasibleError.  m = 0 runs
    the unconstrained search.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    budget = budget or SearchBudget()
    rng = np.random.default_rng(seed)
    norm = E.ambient.norm
    field = E.ambient.field
    best = None
    # constrain the search a hair above m so that the coarse-grid
    # separation overestimate cannot push the true value below m
    m_pen = m + _SEP_MARGIN if m > 0 else 0.0
    feasibility = _feasibility_objective(E, m_pen + _SEP_MARGIN)
    for x0 in _random_params(rng, E, budget.restarts):
        x = x0
        fx = math.inf
        if m > 0:
            x, _, _ = _pattern_search(
                feasibility, x, E._param_dim(), budget.iterations_per_restart,
                plateau=lambda f: math.inf if f <= 0.0 else 0.0,
            )
        rounds = budget.penalty_rounds if m > 0 else 1
        for r in range(rounds):
            rho = 10.0 ** (r + 2)
            objective = _perp_objective(E, m_pen, rho)
            # the last round runs to machine step so exact-zero basins
            # are not cut off by the plateau heuristic
            last = r == rounds - 1
            x, fx, _ = _pattern_search(
                objective, x, E._param_dim(), budget.iterations_per_restart,
                delta_min=1e-15 if last else 1e-12,
                plateau=None if last else
                (lambda f: 1e-4 * min(max(f, 1e-10), 1.0)),
            )
        U, V, ok = _normalized_pairs(E, x[None, :])
        if not np.any(ok):
            continue
        wit = PairWitness.from_vectors(U[0], V[0], norm, field)
        if wit.separation < m - feas_tol:
            continue
        if best is None or wit.perp < best.perp:
            best = wit
            if wit.perp < 1e-14:
                break
    if best is None:
        raise InfeasibleError(f"no pair with separation >= {m} found under budget")
    return best


def check_pr(E, m_grid=(0.05, 0.1, 0.2), budget=None, seed=0, eps_fail=1e-6):
    """Decide phase retrieval up to search effort.

    Runs search_perp_pair for each m; a witness with perp < eps_fail and
    separation >= m - 1e-6 decides failure.  A pass is only "no witness
    found under this budget", never a proof.
    """
    if len(m_grid) == 0:
        raise ValueError("m_grid must be nonempty")
    budget = budget or SearchBudget()
    per_m = {}
    for i, m in enumerate(m_grid):
        try:
            wit = search_perp_pair(E, m, budget, seed + 7 * i)
        except InfeasibleError:
            per_m[float(m)] = math.inf
            continue
        per_m[float(m)] = wit.perp
        if wit.perp < eps_fail:
            return PRVerdict(
                verdict="fails_with_witness",
                min_perp_per_m=per_m,
                witness=wit,
                eps_fail=eps_fail,
            )
    return PRVerdict(
        verdict="passes_up_to_budget",
        min_perp_per_m=per_m,
        witness=None,
        eps_fail=eps_fail,
    )
