"""Derivative-free witness searches over finite-dimensional subspaces.

Estimates the stable-phase-retrieval constant of a subspace, hunts for
almost-disjoint and almost-perpendicular pairs, and decides phase
retrieval numerically.  Pairs are parameterized by coefficient vectors on
the unit sphere of the (realified) coefficient space and renormalized in
the lattice norm, so the search space stays compact.  Local moves are
coordinate pattern steps, which tolerate the kinks of the p = 1 and
p = infinity norms; every returned witness is re-measured from scratch by
the lattice and phase-distance primitives before being reported.
Inside the loops separations come from phase_metric.row_separations.  A
row whose modulus gap already clears a separation target is scored
without any phase scalar, since no separation lies below the gap.
All seeded restarts of a search step in lockstep as one (R, d) state,
one objective call per sweep; each restart takes exactly the steps it
would take alone, and winners are taken in restart order.
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import Ambient, InputError, PhaseLatError, as_vector, require_independent
from .phase_metric import RATIO_ATOL_SCALE, PairWitness, row_separations, spr_ratio

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

# in its argmin's basin row_separations(refine=True) overestimates by at
# most ~2 sin(spacing / 32) ||g||, 8e-3 on normalized pairs; a minimum in
# another basin has passed the margin by up to 0.0204 (complex, p = inf),
# and search_perp_pair re-measures every witness and drops such a pair.
# The margin covers only rows scored on the grid: real and complex p = 2
# separations are exact, and there it only raises the target
_SEP_MARGIN = 0.01
_DELTA0 = 0.35  # every restart's first pattern step


class InfeasibleError(PhaseLatError):
    """No pair satisfying the search's constraints was found."""


@dataclass(frozen=True, eq=False)
class Subspace:
    """span of the rows of ``basis`` inside ``ambient``."""

    ambient: Ambient
    basis: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.basis))
        rows = np.stack([as_vector(r, self.ambient.field) for r in rows])
        if rows.shape[1] != self.ambient.dim:
            raise InputError("basis vectors do not match the ambient dimension")
        if rows.shape[0] > 1:
            require_independent(rows, InputError("basis is numerically dependent"))
        object.__setattr__(self, "basis", rows)
        # a candidate whose u or v has norm at most this is dropped
        object.__setattr__(self, "_floor", 1e-30 * np.max(np.abs(rows)))

    @property
    def k(self):
        return self.basis.shape[0]

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
            raise InputError("budget fields must be positive")


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
    # both halves over one (R, 2, da) view, with np.linalg.norm's sums
    X = np.array(X, dtype=float)
    H = X.reshape(X.shape[0], 2, da)
    H /= np.sqrt(np.add.reduce(H * H, axis=2))[:, :, None]
    return X


def _normalize_joint(X, da):
    # rescale whole rows only: the relative scale of the two halves is a
    # genuine degree of freedom for the ratio objective
    X = np.array(X, dtype=float)
    X /= np.linalg.norm(X, axis=1)[:, None] / math.sqrt(2.0)
    return X


def _pattern_search(objective, X0, da, max_sweeps, delta_min=1e-12, plateau=None,
                    project=None):
    """Best-improvement pattern search; each row of ``X0`` is a restart.

    Every restart keeps its own point, value, step, sweep count and stop
    flag, and a sweep scores the 2d candidates of all live restarts in one
    ``objective`` call (lower is better, NaN is +inf; a row's value must
    not depend on its batch).  ``project`` maps rows onto the search
    space, by default two unit coefficient spheres; each start needs
    nonzero halves (a nonzero row for a joint projection).  A restart
    starts at step _DELTA0, takes its first least candidate if it beats
    its value by 1e-15 and halves its step otherwise, and stops after
    ``max_sweeps``, at ``delta_min``, on a non-finite value, or when a
    sweep leaves its step below ``plateau(values)``.  A step moves one
    coordinate by at most _DELTA0 = 0.35, so a moved unit half keeps norm
    >= 0.65 and a moved row of norm sqrt(2) at least sqrt(2) - 0.35: no
    candidate is projected from zero.  Returns (X, values, sweeps).
    That contract, which ``project`` keeps too, binds every array stacked
    inside an objective (u over v, gaps over norms): each of its rows must
    get the same bits in every batch of two or more rows.
    """
    project = project or _normalize_halves
    # start points and values one row at a time, as a serial run takes
    # them: a one-row batch takes another matmul path
    X = np.vstack([project(x0[None, :], da) for x0 in X0])
    fx = np.array([objective(x[None, :])[0] for x in X])
    fx[np.isnan(fx)] = math.inf
    R, dim = X.shape
    sweeps = np.zeros(R, dtype=int)
    steps = np.vstack([np.eye(dim), -np.eye(dim)])
    # the live restarts' indices, points, values and steps, all at one sweep
    idx, x, f, delta = np.arange(R), X.copy(), fx.copy(), np.full(R, _DELTA0)
    for sweep in range(1, max_sweeps + 1):
        cands = project((x[:, None, :] + delta[:, None, None] * steps).reshape(-1, dim), da)
        vals = objective(cands).reshape(idx.size, 2 * dim)
        vals[np.isnan(vals)] = math.inf
        j = vals.argmin(axis=1)
        bv = vals[np.arange(idx.size), j]
        up = bv < f - 1e-15
        x[up] = cands.reshape(idx.size, 2 * dim, dim)[up, j[up]]
        f[up] = bv[up]
        delta[~up] *= 0.5
        done = (up & ~np.isfinite(bv)) | ~(delta > delta_min) | (sweep == max_sweeps)
        if plateau is not None:
            done |= delta < plateau(f)
        if done.any():
            out, live = idx[done], ~done
            X[out], fx[out], sweeps[out] = x[done], f[done], sweep
            idx, x, f, delta = idx[live], x[live], f[live], delta[live]
            if not idx.size:
                break
    return X, fx, sweeps


def _pairs_from_params(E, X):
    # rows u over rows v in one (2R, n) array, one product per half as alone
    R, da = X.shape[0], E._param_dim()
    W = np.empty((2 * R, E.ambient.dim), dtype=E.basis.dtype)
    np.matmul(E._coeff_rows(X[:, :da]), E.basis, out=W[:R])
    np.matmul(E._coeff_rows(X[:, da:]), E.basis, out=W[R:])
    return W


def _normalized_pairs(E, X):
    # unit u and v of the pairs whose halves clear E's floor, one of_rows call
    W, R = _pairs_from_params(E, X), X.shape[0]
    nw = E.ambient.norm.of_rows(W)
    ok = (nw[:R] > E._floor) & (nw[R:] > E._floor)
    if ok.all():
        W /= nw[:, None]
        return W[:R], W[R:], ok
    return W[:R][ok] / nw[:R, None][ok], W[R:][ok] / nw[R:, None][ok], ok


def _ratio_objective(E):
    norm = E.ambient.norm
    field = E.ambient.field

    def fn(X):
        W, R = _pairs_from_params(E, X), X.shape[0]
        num = row_separations(W[:R], W[R:], norm, field=field)
        # | |u| - |v| |, |u| and |v| in one of_rows call; the pairs are freed
        # first, so at large n the norm's temporaries take their place
        M = np.empty((3 * R, W.shape[1]))
        np.abs(W, out=M[R:])
        del W
        np.abs(np.subtract(M[R:2 * R], M[2 * R:], out=M[:R]), out=M[:R])
        den, nu, nv = norm.of_rows(M).reshape(3, R)
        scale = RATIO_ATOL_SCALE * np.maximum(nu, nv)
        out = np.full(R, np.nan)
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


def _shortfall(U, V, gap, norm, field, target):
    """max(target - sep, 0) per normalized row pair, with sep from
    phase_metric.row_separations(refine=True); gap holds each row's
    modulus gap.

    |u_i - lambda v_i| >= | |u_i| - |v_i| | and the norm is monotone, so no
    separation lies below the modulus gap N(| |u| - |v| |).  A row whose gap
    clears the target by 1e-12, far above the rounding of either norm on
    normalized pairs, falls short by exactly 0 whatever sep is, so sep is
    computed for the other rows only.
    """
    near = np.flatnonzero(~(gap >= target + 1e-12))
    out = np.zeros(U.shape[0])
    if near.size:
        sep = row_separations(U[near], V[near], norm, field=field, refine=True)
        out[near] = np.maximum(target - sep, 0.0)
    return out


def _perp_objective(E, m, rho):
    norm = E.ambient.norm
    field = E.ambient.field

    def fn(X):
        U, V, ok = _normalized_pairs(E, X)
        R = U.shape[0]
        # the perp profiles and, under a target, the modulus gaps: one of_rows call
        rows = np.empty((2 * R if m > 0.0 else R, U.shape[1]))
        np.sqrt(np.abs((U * np.conj(V)).real), out=rows[:R])
        if m > 0.0:
            np.abs(np.subtract(np.abs(U), np.abs(V), out=rows[R:]), out=rows[R:])
        nr = norm.of_rows(rows)
        out = np.full(X.shape[0], np.nan)
        out[ok] = nr[:R]
        if m > 0.0:
            viol = _shortfall(U, V, nr[R:], norm, field, m)
            out[ok] += rho * viol * viol
        return out

    return fn


def _feasibility_objective(E, target):
    # drives a pair into the separation-feasible region; zero once there
    norm = E.ambient.norm
    field = E.ambient.field

    def fn(X):
        U, V, ok = _normalized_pairs(E, X)
        out = np.full(X.shape[0], np.nan)
        gap = norm.of_rows(np.abs(np.abs(U) - np.abs(V)))
        out[ok] = _shortfall(U, V, gap, norm, field, target)
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
    """The sum/difference pair of an almost-disjoint pair in E, or None.

    For a normalized eps-almost disjoint pair (u, v), f = u + v and
    g = u - v have || |f| - |g| || <= 2 eps, since the two moduli differ
    pointwise by at most 2 min(|u|, |v|).  Over the real field the two
    signs give ||2u|| = ||2v|| = 2, so the ratio of (f, g) is at least
    1/eps; over the complex field max(|1 - lambda|, |1 + lambda|) >= sqrt(2)
    and lattice monotonicity bound it below by
    1/(sqrt(2) eps) - (1 + 1/sqrt(2)).  The relative scale of f and g
    carries the ratio, so the search starting from it must keep it.
    """
    try:
        adp = search_almost_disjoint(E, budget, seed + 101)
    except (PhaseLatError, ValueError):
        return None
    if adp.disjointness >= 0.9:
        return None
    return adp.u + adp.v, adp.u - adp.v


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

    warm = _warm_start_pairs(E, budget, seed)
    starts = _random_params(rng, E, budget.restarts)
    if warm is not None:
        starts = np.vstack([_params_from_pair(E, *warm), starts])
    if warm is None or not consider(*warm):
        X, _, sweeps_per = _pattern_search(objective, starts, E._param_dim(),
                                           budget.iterations_per_restart,
                                           project=_normalize_joint)
        for x, sweeps in zip(X, sweeps_per):
            sweeps_total += int(sweeps)
            # one row at a time: a batched rebuild changes the last bits
            W = _pairs_from_params(E, x[None, :])
            if consider(W[0], W[1]):
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
    X, F, _ = _pattern_search(objective, _random_params(rng, E, budget.restarts),
                              E._param_dim(), budget.iterations_per_restart)
    for x, fx in zip(X, F):
        if fx < best_v:
            best_v, best_x = fx, x
    if best_x is None:
        raise InfeasibleError("no restart reached a finite disjointness")
    U, V, _ = _normalized_pairs(E, best_x[None, :])
    return PairWitness.from_vectors(U[0], V[0], E.ambient.norm, E.ambient.field)


def search_perp_pair(E, m, budget=None, seed=0):
    """Minimize the perpendicularity defect subject to separation >= m.

    Exterior penalty with escalating weight; the returned witness is
    re-measured at full precision and must satisfy
    separation >= m - 1e-6, otherwise InfeasibleError.  m = 0 runs
    the unconstrained search; a negative or NaN m raises InputError.
    """
    if not m >= 0:
        raise InputError(f"m must be nonnegative, got {m}")
    budget = budget or SearchBudget()
    rng = np.random.default_rng(seed)
    norm = E.ambient.norm
    field = E.ambient.field
    best = None
    # constrain the search a hair above m so that the coarse-grid
    # separation overestimate cannot push the true value below m
    m_pen = m + _SEP_MARGIN if m > 0 else 0.0
    feasibility = _feasibility_objective(E, m_pen + _SEP_MARGIN)
    rounds = budget.penalty_rounds if m > 0 else 1
    X = _random_params(rng, E, budget.restarts)
    if m > 0:
        X = _pattern_search(
            feasibility, X, E._param_dim(), budget.iterations_per_restart,
            plateau=lambda f: np.where(f <= 0.0, math.inf, 0.0),
        )[0]
    for r in range(rounds):
        objective = _perp_objective(E, m_pen, 10.0 ** (r + 2))
        # the last round runs to machine step so exact-zero basins
        # are not cut off by the plateau heuristic
        last = r == rounds - 1
        X = _pattern_search(
            objective, X, E._param_dim(), budget.iterations_per_restart,
            delta_min=1e-15 if last else 1e-12,
            plateau=None if last else
            (lambda f: 1e-4 * np.minimum(np.maximum(f, 1e-10), 1.0)),
        )[0]
    for x in X:
        U, V, ok = _normalized_pairs(E, x[None, :])
        if not np.any(ok):
            continue
        wit = PairWitness.from_vectors(U[0], V[0], norm, field)
        if wit.separation < m - 1e-6:
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
    found under this budget", never a proof.  A negative or NaN m in the
    grid raises InputError before any search runs.
    """
    if len(m_grid) == 0:
        raise InputError("m_grid must be nonempty")
    if not all(m >= 0 for m in m_grid):
        raise InputError(f"every m must be nonnegative, got {tuple(m_grid)}")
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
