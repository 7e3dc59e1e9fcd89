"""Distance between phase classes and the stability ratio of a pair.

The phase class of f is {lambda * f : |lambda| = 1}; the distance between two
classes is min over unimodular lambda of norm(f - lambda * g). Over the real
field the minimum is exact (lambda is +1 or -1). Over the complex field a
Euclidean norm admits a closed form through the inner product. Every other
norm is screened on a grid of the circle, computed from squared moduli by
one real matrix product; all bracketed grid minima are then re-evaluated and
zoomed together in direct form, one tiled batch per round, and only the
best of them gets a final bounded Brent polish.

The searches score batches of row pairs with row_separations: exact over
the real field (two signs) and at complex p = 2 (the phase of each row's
weighted inner product), every other complex norm on a coarse grid of
phase angles.  That batch and the zoom share one tiled kernel, phase_norms.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .lattice import (InputError, as_vector, check_same_dim, ldexp, modulus,
                      perp_profile, row_tiles, unit_exponent)

__all__ = ["PhaseAlignment", "RatioReport", "PairWitness",
           "unimodular_distance", "row_separations", "spr_ratio"]

RATIO_ATOL_SCALE = 1e-9

# the generic branch's circle grid, read-only
_GRID_THETA = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)
_GRID_LAMBDA = np.exp(1j * _GRID_THETA)
# -2 (cos t, sin t) per grid angle t: the factor of the squared screen
_GRID_COS_SIN = -2.0 * np.stack([_GRID_LAMBDA.real, _GRID_LAMBDA.imag], axis=1)
_GRID_THETA.flags.writeable = _GRID_LAMBDA.flags.writeable = False
_GRID_COS_SIN.flags.writeable = False
# batched zoom of the grid minima: 8 samples per bracket and round, the
# bracket shrinking by 4 each round, from one grid step to about 7e-10
# after 12 rounds, inside the winner's +-1e-8 polish
_ZOOM_OFFSETS = np.array([-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0]) / 4.0
_ZOOM_ROUNDS = 12
# row_separations' coarse grid at complex p != 2, and the 17 zoom angles
# around each coarse angle, one row per grid index
_SEP_ANGLES = np.linspace(0.0, 2 * np.pi, 48, endpoint=False)
_SEP_GRID = np.exp(1j * _SEP_ANGLES)
_SEP_REFINE = np.exp(1j * (_SEP_ANGLES[:, None]
                           + np.linspace(-_SEP_ANGLES[1], _SEP_ANGLES[1], 17)[None, :]))
_SEP_GRID.flags.writeable = _SEP_REFINE.flags.writeable = False


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


def euclidean_phases(F, G, norm):
    """Row-wise phase of <f, g> = sum_i w_i f_i conj(g_i), 1 where it vanishes.

    The minimizing scalar of the weighted 2-norm distance for each row pair
    of the 2-d arrays F and G; the searches call it on their candidate
    rows.  A sum that overflowed, or is small enough to have lost products
    to underflow, is recomputed on its rows scaled by powers of two, which
    keeps the phase.  Each row's phase is that of the row alone: the
    modulus is hypot(Re, Im) and the quotient is Python's complex division
    by a real, so a one-row call reproduces the scalar computation bit for
    bit.
    """
    w = norm.weights if norm.weights is not None else 1.0
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ip = (w * F * np.conj(G)).sum(axis=1)
        mag = np.hypot(ip.real, ip.imag)
    lam, live = np.ones(ip.shape, dtype=np.complex128), slice(None)
    # every row in range (a NaN fails both tests) needs no mask
    if not (1e-250 < mag.min(initial=np.inf) and mag.max(initial=0.0) < np.inf):
        redo = ~((1e-250 < mag) & (mag < np.inf))
        F, G = (np.array([ldexp(x, -unit_exponent(x)) for x in X[redo]]) for X in (F, G))
        ip[redo] = np.sum(w * F * np.conj(G), axis=1)
        mag[redo] = np.hypot(ip.real[redo], ip.imag[redo])
        live = mag > 0
        ip, mag = ip[live], mag[live]
    # (a + ib) / (r + 0i) as Python divides it: the ratio of the divisor's
    # parts is 0, so a + b * 0 over r, and b - a * 0 over r
    lam.real[live] = (ip.real + ip.imag * 0.0) / mag
    lam.imag[live] = (ip.imag - ip.real * 0.0) / mag
    return lam


def unimodular_distance(f, g, norm, *, field="complex"):
    """Minimize norm(f - lambda * g) over unimodular scalars lambda.

    Over the real field the two candidate signs are compared exactly, and
    a weighted 2-norm has a closed form. Every other complex case screens
    512 equally spaced angles on the circle, with the squared moduli
    |f_i - lambda g_i|^2 = |f_i|^2 + |g_i|^2 - 2 Re(conj(lambda) f_i conj(g_i))
    of all angles from one real matrix product. The screen only picks the
    brackets: every local minimum of the grid (a run of tied adjacent
    minima as one) is re-evaluated directly and refined by a batched
    bracket zoom, which drops a bracket once it provably cannot hold the
    least value, and the best one is polished. The returned distance is
    always an achieved value norm(f - lambda_star * g), so it bounds the
    true minimum from above; a minimum narrower than one grid step can be
    missed.
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
        lam = euclidean_phases(f[None, :], g[None, :], norm)[0]
        return PhaseAlignment(distance=float(norm(f - lam * g)),
                              lambda_star=complex(lam))
    return _grid_distance(f, g, norm)


def row_separations(U, V, norm, *, field="complex", refine=False):
    """Phase distance of each row pair of U and V, the searches' batch form:
    exact over the real field and at complex p = 2, otherwise the least of
    48 angles and, with ``refine``, of the 17 angles spanning two steps
    around each row's grid argmin, an upper bound.  Rows are independent.
    """
    if field != "complex":
        return phase_norms(U, V, np.array([[1.0], [-1.0]]), norm).min(axis=0)
    if norm.p == 2.0:
        return phase_norms(U, V, euclidean_phases(U, V, norm)[None, :], norm)[0]
    vals = phase_norms(U, V, _SEP_GRID[:, None], norm)
    coarse = vals.min(axis=0)
    if not refine:
        return coarse
    lam2 = _SEP_REFINE[vals.argmin(axis=0)].T
    return np.minimum(coarse, phase_norms(U, V, lam2, norm).min(axis=0))


def phase_norms(U, V, lams, norm):
    """norm(u - lam v), (A, R), for each row of lams, (A, 1) or (A, R), and
    each of the R row pairs of U and V.  Scalars outermost, so a pass spans
    a run of rows whose A differences fit one tile (lattice.row_tiles); a
    row longer than a tile runs in tiles of scalars, and a batch within one
    tile is one pass."""
    A, (R, n) = lams.shape[0], U.shape
    if len(row_tiles(A * R, U.itemsize * n)) == 1:
        D = lams[:, :, None] * V
        return norm.of_rows(np.subtract(U, D, out=D).reshape(-1, n)).reshape(A, R)
    out = np.empty((A, R))
    for r in row_tiles(R, A * U.itemsize * n):
        for s in row_tiles(A, (r.stop - r.start) * U.itemsize * n):
            D = (lams[s, r] if lams.shape[1] > 1 else lams[s])[:, :, None] * V[r]
            np.subtract(U[r], D, out=D)
            out[s, r] = norm.of_rows(D.reshape(-1, n)).reshape(D.shape[:2])
    return out


def _grid_distance(f, g, norm):
    # the generic complex branch of unimodular_distance, for any norm; a
    # test cross-checks it against the weighted 2-norm closed form
    vals = _grid_values(f, g, norm)

    # every grid minimum is zoomed in one batch per round, a cyclic run of
    # adjacent minima with equal values as one bracket at the run's lowest
    # grid index; only the winner, the first least value in grid order, is
    # polished; a run of overflowed (inf) values holds no minimum
    is_min = ((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1))
              & (vals < np.inf))
    tied = is_min & np.roll(is_min, 1) & (vals == np.roll(vals, 1))
    local = np.flatnonzero(is_min & ~tied)
    if tied[0]:
        # the run through index 0 began at the last run start (none if it
        # is the whole circle)
        local = np.r_[0, local[:-1]]
    # the screened values only choose the brackets; the zoom starts from
    # the direct values at their centres
    d = phase_norms(f[None, :], g[None, :], _GRID_LAMBDA[local, None], norm)[:, 0]
    t, d = _zoom(f, g, norm, _GRID_THETA[local], d, 2.0 * np.pi / len(_GRID_THETA))
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


def _grid_values(f, g, norm):
    """norm(f - lambda * g) at every grid scalar lambda, from squared moduli.

    With a_i = |f_i|^2 + |g_i|^2 and c_i = f_i conj(g_i),
    |f_i - e^{it} g_i|^2 = a_i - 2 (cos t Re c_i + sin t Im c_i), so the
    whole grid is one real (512 x 2) @ (2 x n) product.  The product is
    taken in tiles of consecutive angles (lattice.row_tiles, at least two
    angles each), and each tile is reduced to its values at once, so no
    temporary holds more than 256 KiB.  A tile's rows are reduced as one
    block's would be, but its product can differ from one block's by an ulp
    at some n (see row_tiles); the screen only picks brackets.  f and g are
    first scaled by the power of two that puts their largest real or imaginary
    part in [1/2, 1), so huge and tiny vectors neither overflow nor
    underflow.  The squares cancel to about sqrt(eps) * (norm(f) + norm(g))
    near a zero of the distance, so these values can rank grid points but
    not resolve a minimum.  Values past the float range are inf, and
    InputError is raised when every one of them is.
    """
    parts = np.array([f.real, f.imag, g.real, g.imag], dtype=np.float64)
    top = np.max(np.abs(parts))
    if not np.isfinite(top):
        raise InputError("phase distance is undefined for non-finite vectors")
    e = int(np.frexp(top)[1])
    fr, fi, gr, gi = np.ldexp(parts, -e)
    c = np.array([fr * gr + fi * gi, fi * gr - fr * gi])
    a = fr * fr + fi * fi + gr * gr + gi * gi
    vals = []
    with np.errstate(over="ignore"):
        for s in row_tiles(len(_GRID_COS_SIN), 8 * len(a), least=2):
            sq = _GRID_COS_SIN[s] @ c
            sq += a
            np.maximum(sq, 0.0, out=sq)
            vals.append(norm.of_squared_rows(sq))
        vals = np.ldexp(vals[0] if len(vals) == 1 else np.concatenate(vals), e)
    if np.isinf(vals.min()):
        raise InputError("phase distance exceeds the float range")
    return vals


def _zoom(f, g, norm, t, d, h):
    """Shrink the brackets t +- h around grid minima of norm(f - e^{it} g).

    Each round samples the bracket of every best angle at the offsets
    +-h/4, ..., +-h (the best angle's own value d is already known), moves
    to a strictly better sample, and divides h by 4, so a minimum inside a
    bracket stays inside the next one.  All brackets of a round go through
    one phase_norms call, in tiles.  Returns the zoomed angles and their
    achieved distances; t and d are updated in place.

    The distance is Lipschitz in the angle with constant norm(g), and a
    bracket moves at most 4h/3 over this and the later rounds, so one
    whose value exceeds the least value by more than norm(g) * 2h can
    neither win nor tie; it is dropped from the zoom.
    """
    reach = 2.0 * norm(g)
    live = np.arange(len(t))
    for _ in range(_ZOOM_ROUNDS):
        live = live[d[live] - reach * h <= d.min()]
        tt = t[live, None] + h * _ZOOM_OFFSETS
        vals = phase_norms(f[None, :], g[None, :], np.exp(1j * tt).reshape(-1, 1),
                           norm).reshape(tt.shape)
        j = np.argmin(vals, axis=1)
        best = vals[np.arange(len(j)), j]
        move = best < d[live]
        t[live[move]] = tt[move, j[move]]
        d[live[move]] = best[move]
        h /= 4.0
    return t, d


def spr_ratio(f, g, norm, *, field="complex"):
    """Stability ratio min_lambda norm(f - lambda g) / norm(|f| - |g|).

    Near-zero numerator and denominator are resolved against a tolerance
    relative to the pair's larger norm, so exactly equal moduli report
    "infinite" and unimodular multiples report "degenerate" instead of
    noise ratios, at any scale.
    """
    f, g = np.asarray(f), np.asarray(g)
    align = unimodular_distance(f, g, norm, field=field)
    num = align.distance
    den = norm(modulus(f) - modulus(g))
    atol = RATIO_ATOL_SCALE * max(norm(f), norm(g))
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
            raise InputError("witness vectors must be normalized")
        sep = unimodular_distance(u, v, norm, field=field).distance
        dis = norm(np.minimum(modulus(u), modulus(v)))
        perp = norm(perp_profile(u, v))
        return cls(u=u, v=v, separation=sep, disjointness=dis,
                   perp=perp, marginal=marginal)
