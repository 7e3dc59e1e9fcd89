"""Distance between phase classes and the stability ratio of a pair.

The phase class of f is {lambda * f : |lambda| = 1}; the distance between two
classes is min over unimodular lambda of norm(f - lambda * g). Over the real
field the minimum is exact (lambda is +1 or -1). Over the complex field a
Euclidean norm admits a closed form through the inner product. Every other
norm is sampled on a grid of the circle; all bracketed grid minima are then
zoomed together, one batched norm evaluation per round, and only the best of
them gets a final bounded Brent polish.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .lattice import as_vector, check_same_dim, modulus, perp_profile

__all__ = ["PhaseAlignment", "RatioReport", "PairWitness",
           "unimodular_distance", "spr_ratio"]

RATIO_ATOL_SCALE = 1e-9

# the generic branch's circle grid, read-only
_GRID_THETA = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
_GRID_LAMBDA = np.exp(1j * _GRID_THETA)
_GRID_THETA.flags.writeable = _GRID_LAMBDA.flags.writeable = False
# batched zoom of the grid minima: 8 samples per bracket and round, the
# bracket shrinking by 4 each round, from one grid step to about 7e-10
# after 12 rounds, inside the winner's +-1e-8 polish
_ZOOM_OFFSETS = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0]) / 4.0
_ZOOM_ROUNDS = 12
# entries (rows times dimension) one zoom of_rows call may hold: the size
# of the grid's batch at n = 2048
_ZOOM_CELLS = 1 << 20


@dataclass(frozen=True)
class PhaseAlignment:
    """Minimizing unimodular scalar and the achieved distance."""

    distance: float
    lambda_star: complex


@dataclass(frozen=True)
class RatioReport:
    """Stability ratio of a pair: phase distance over modulus-gap norm.

    flag is None for a plain finite ratio, "infinite" when the moduli agree
    but the phase classes differ, and "degenerate" when both the numerator
    and the denominator vanish (the pair is a unimodular multiple).
    """

    numerator: float
    denominator: float
    ratio: float
    flag: str | None
    lambda_star: complex


def _euclidean_inner(f, g, norm):
    w = norm.weights if norm.weights is not None else 1.0
    return complex(np.sum(w * f * np.conj(g)))


def unimodular_distance(f, g, norm, *, field="complex"):
    """Minimize norm(f - lambda * g) over unimodular scalars lambda.

    Over the real field the two candidate signs are compared exactly, and
    a weighted 2-norm has a closed form. Every other complex case samples
    512 equally spaced angles on the circle, refines every local minimum
    of the grid (ties included) by a batched bracket zoom, which drops a
    bracket once it provably cannot hold the least value, and polishes
    the best one. The returned distance is always an achieved value
    norm(f - lambda_star * g), so it bounds the true minimum from above; a
    minimum narrower than one grid step can be missed.
    """
    f, g = np.asarray(f), np.asarray(g)
    check_same_dim(f, g)
    if field == "real":
        d_minus = norm(f - g)
        d_plus = norm(f + g)
        if d_minus <= d_plus:
            return PhaseAlignment(distance=d_minus, lambda_star=1.0 + 0.0j)
        return PhaseAlignment(distance=d_plus, lambda_star=-1.0 + 0.0j)

    if norm.p == 2.0:
        # lambda* = phase of <f, g>; evaluating norm(f - lambda* g) by
        # subtraction avoids the cancellation in the norm identity
        # ||f||^2 + ||g||^2 - 2|<f, g>| near colinear pairs
        ip = _euclidean_inner(f, g, norm)
        mag = abs(ip)
        lam = ip / mag if mag > 0 else 1.0 + 0.0j
        return PhaseAlignment(distance=float(norm(f - lam * g)),
                              lambda_star=complex(lam))
    return _grid_distance(f, g, norm)


def _grid_distance(f, g, norm):
    # the generic complex branch of unimodular_distance, for any norm; a
    # test cross-checks it against the weighted 2-norm closed form
    vals = norm.of_rows(f[None, :] - _GRID_LAMBDA[:, None] * g[None, :])

    # every grid minimum, ties included, is zoomed in one batch per round;
    # only the winner, the first least value in grid order, is polished
    local = np.flatnonzero((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))
    if local.size == 0:
        # only a NaN on the grid leaves no minimum to bracket
        raise ValueError("phase distance is undefined for non-finite vectors")
    t, d = _zoom(f, g, norm, _GRID_THETA[local], vals[local], 2.0 * np.pi / len(_GRID_THETA))
    k = int(np.argmin(d))
    best_t, best_d = float(t[k]), float(d[k])
    # bounded Brent cannot resolve below sqrt(eps) * |t|; polish in a
    # recentered frame where the minimizer sits near zero
    res = minimize_scalar(
        lambda s: norm(f - np.exp(1j * (best_t + s)) * g),
        bounds=(-1e-8, 1e-8),
        method="bounded",
        options={"xatol": 1e-12, "maxiter": 200},
    )
    if float(res.fun) < best_d:
        best_t, best_d = best_t + float(res.x), float(res.fun)
    return PhaseAlignment(distance=best_d, lambda_star=complex(np.exp(1j * best_t)))


def _zoom(f, g, norm, t, d, h):
    """Shrink the brackets t +- h around grid minima of norm(f - e^{it} g).

    Each round samples the bracket of every best angle at the offsets
    +-h/4, ..., +-h (the best angle's own value d is already known), moves
    to a strictly better sample, and divides h by 4, so a minimum inside a
    bracket stays inside the next one.  All brackets of a round go through
    one of_rows call, split only when the batch would hold more than
    _ZOOM_CELLS entries.  Returns the zoomed angles and their achieved
    distances; t and d are updated in place.

    The distance is Lipschitz in the angle with constant norm(g), and a
    bracket moves at most 4h/3 over this and the later rounds, so one
    whose value exceeds the least value by more than norm(g) * 2h can
    neither win nor tie; it is dropped from the zoom.
    """
    reach = 2.0 * norm(g)
    live = np.arange(len(t))
    per_call = max(_ZOOM_CELLS // (f.shape[0] * len(_ZOOM_OFFSETS)), 1)
    for _ in range(_ZOOM_ROUNDS):
        live = live[d[live] - reach * h <= d.min()]
        for lo in range(0, len(live), per_call):
            idx = live[lo:lo + per_call]
            tt = t[idx, None] + h * _ZOOM_OFFSETS
            rows = f[None, :] - np.exp(1j * tt).reshape(-1, 1) * g[None, :]
            vals = norm.of_rows(rows).reshape(tt.shape)
            j = np.argmin(vals, axis=1)
            best = vals[np.arange(len(j)), j]
            move = best < d[idx]
            t[idx[move]] = tt[move, j[move]]
            d[idx[move]] = best[move]
        h /= 4.0
    return t, d


def spr_ratio(f, g, norm, *, field="complex"):
    """Stability ratio min_lambda norm(f - lambda g) / norm(|f| - |g|).

    Near-zero numerator and denominator are resolved against an absolute
    tolerance scaled by the pair, so exactly equal moduli report "infinite"
    and unimodular multiples report "degenerate" instead of noise ratios.
    """
    f, g = np.asarray(f), np.asarray(g)
    align = unimodular_distance(f, g, norm, field=field)
    num = align.distance
    den = norm(modulus(f) - modulus(g))
    atol = RATIO_ATOL_SCALE * max(norm(f), norm(g), 1.0)
    if den <= atol:
        if num <= atol:
            return RatioReport(num, den, np.nan, "degenerate", align.lambda_star)
        return RatioReport(num, den, np.inf, "infinite", align.lambda_star)
    return RatioReport(num, den, num / den, None, align.lambda_star)


@dataclass(frozen=True, eq=False)
class PairWitness:
    """A normalized pair with its three measures, recomputed at build time.

    marginal is set by constructions whose guaranteed bounds held only up
    to floating slack; the measures themselves are always re-derived from
    u and v.
    """

    u: np.ndarray
    v: np.ndarray
    separation: float
    disjointness: float
    perp: float
    marginal: bool = False

    @classmethod
    def from_vectors(cls, u, v, norm, field, marginal=False):
        u = as_vector(u, field)
        v = as_vector(v, field)
        nu, nv = norm(u), norm(v)
        if abs(nu - 1.0) > 1e-10 or abs(nv - 1.0) > 1e-10:
            raise ValueError("witness vectors must be normalized")
        sep = unimodular_distance(u, v, norm, field=field).distance
        dis = norm(np.minimum(modulus(u), modulus(v)))
        perp = norm(perp_profile(u, v))
        return cls(u=u, v=v, separation=sep, disjointness=dis,
                   perp=perp, marginal=marginal)
