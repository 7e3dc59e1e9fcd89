"""Hilbert norms on two-dimensional spans, pair alignment, orthogonal reduction.

Fits a Hermitian positive-definite form on the coefficient space of
span{f, g} whose induced norm sandwiches the lattice norm,

    ||x|| <= ||x||_H <= K ||x||,   K <= sqrt(2) + tolerance,

and implements the reduction (f, g) -> (f - R(f+g), g - R(f+g)) that makes
the pair orthogonal in the fitted inner product without increasing the
pointwise modulus gap.  A weighted 2-norm is already Hilbert and gets its
exact form, Gram = B^H W B with K = 1.  Otherwise the fit computes the
minimum-volume centered ellipsoid enclosing the span's unit ball and
rescales it so the lower sandwich bound is met with equality.  Every pair
is fitted at unit scale, scaled by the power of two that puts its larger
norm in [1/2, 1), so K does not depend on the pair's scale.

One exchange grows every ellipsoid: each round solves it exactly on a few
rows (the KKT conditions over every support of at most 3 real or 4
complex rows, in one batch), keeps its support, and appends the body's
farthest point, until that point is enclosed to 3e-10.  It has three
bodies.  At p = inf the unit ball {c : w_k |b_k . c| <= 1}, whose
farthest point is an extreme point where two rows are active, found by
constraint generation.  At real p = 1 the unit ball's polygon, whose
farthest point is a vertex.  These two are exact: the maximum ratio is the
exchange's last value and the minimum is 1 / max_a sqrt(a Q^-1 a^H) over
the dual ball's vertices a, so distortion_K is exact at p in {2, inf} and
at real p = 1, and no row beyond the exchange's starts is measured.
Otherwise the body is a fixed grid of the coefficient sphere, normalized
in the lattice norm once per fit; the support is then slid onto the true
contact points, and both extrema of the ratio are scanned on the grid and
polished: on the real circle by a bounded Brent search per candidate, on
the complex sphere by one batch of _polish_complex (Newton steps in a
pole-free chart, with a poll that finishes at the cone tips of p = 1
norms).  A fixed random sample of the sphere is measured on top of the
scans.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
# bench/tracer.py wraps both names in this module as the hilbert polish
# layer and cannot install if either is missing; only the real-field Brent
# polish (minimize_scalar) is called here
from scipy.optimize import minimize, minimize_scalar  # noqa: F401

from .lattice import (
    InputError,
    NormSpec,
    PhaseLatError,
    as_vector,
    check_same_dim,
    ldexp,
    require_independent,
    row_tiles,
    unit_exponent,
)

__all__ = [
    "DependentVectorsError",
    "SpanError",
    "FitDistortionError",
    "PreconditionError",
    "CertificateError",
    "HilbertForm",
    "AlignedPair",
    "ReductionResult",
    "fit_hilbert_norm",
    "align_pair",
    "nonneg_rotation",
    "orthogonal_reduce",
    "reduce_pair",
]

SQRT2 = float(np.sqrt(2.0))

# Fit is declared failed above this measured distortion.
DISTORTION_LIMIT = SQRT2 + 0.05


class DependentVectorsError(PhaseLatError):
    """The two vectors do not span a 2-dimensional subspace."""


class SpanError(PhaseLatError):
    """A vector lies outside the span the form was fitted on."""


class FitDistortionError(PhaseLatError):
    """The fitted form's distortion exceeds the acceptance threshold."""


class PreconditionError(PhaseLatError):
    """An input violates a documented precondition."""


class CertificateError(PhaseLatError):
    """A postcondition that should hold by construction failed numerically."""


def _quad(gram, c):
    # c^H G c, real by Hermitian symmetry
    return float(np.real(np.conj(c) @ gram @ c))


def _quad_rows(gram, rows):
    return np.einsum("ij,jk,ik->i", np.conj(rows), gram, rows).real


@dataclass(frozen=True, eq=False)
class HilbertForm:
    """A Hilbert norm on span{f, g}, expressed on coefficient coordinates.

    ``gram`` is Hermitian positive definite; ``inner(x, y)`` evaluates
    coeffs(y)^H . gram . coeffs(x), so it is linear in x and conjugate
    linear in y.  ``distortion_K`` is the equivalence constant against the
    lattice norm the form was fitted to: exact at p in {2, inf} and at real
    p = 1, measured by the fit's scans otherwise.
    """

    f: np.ndarray
    g: np.ndarray
    gram: np.ndarray
    distortion_K: float
    field: str
    norm: NormSpec
    _basis: np.ndarray
    _pinv: np.ndarray

    @property
    def basis(self):
        return self.f, self.g

    def coeffs(self, x):
        """Coefficients of x in the (f, g) basis; SpanError if x is outside."""
        x = as_vector(x, self.field)
        if x.shape[0] != self._basis.shape[0]:
            raise SpanError("vector dimension does not match the span")
        c = self._pinv @ x
        resid = np.linalg.norm(self._basis @ c - x)
        if resid > 1e-8 * np.linalg.norm(x) + 1e-12:
            raise SpanError(f"vector outside span, residual {resid:.3e}")
        return c

    def inner(self, x, y):
        """Fitted scalar product <x, y>_H."""
        cx = self.coeffs(x)
        cy = self.coeffs(y)
        val = complex(np.vdot(cy, self.gram @ cx))
        return val.real if self.field == "real" else val

    def norm_h(self, x):
        """Fitted norm ||x||_H."""
        c = self.coeffs(x)
        return float(np.sqrt(max(_quad(self.gram, c), 0.0)))


# c^H Q c = phi(c) . q is linear in the realified parameters
# q = (Q00, Q11, Re Q01, Im Q01) of Q, with the row features
# phi(c) = (|c0|^2, |c1|^2, 2 Re c0 conj(c1), 2 Im c0 conj(c1)), and
# det Q = q^T J q / 2; real rows and forms keep the first three entries
_J_INV = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                   [0.0, 0.0, -0.5, 0.0], [0.0, 0.0, 0.0, -0.5]])
_J_INV.flags.writeable = False


@functools.cache
def _supports(m, D):
    # every support of 2 to D of m rows, padded to D slots, read-only
    subsets = [s for k in range(2, min(m, D) + 1)
               for s in itertools.combinations(range(m), k)]
    idx = np.zeros((len(subsets), D), dtype=np.intp)
    used = np.zeros((len(subsets), D), dtype=bool)
    for i, s in enumerate(subsets):
        idx[i, :len(s)] = s
        used[i, :len(s)] = True
    idx.flags.writeable = used.flags.writeable = False
    return idx, used


def _mvee_centered(C):
    """Minimum-volume centered ellipsoid enclosing the rows of C, exactly.

    Maximizing log det Q subject to phi_i . q <= 1 has its optimum on a
    support S of at most D rows (D = 4 complex, 3 real), where the KKT
    conditions read (Phi_S J^-1 Phi_S^T) lam = 1, q = J^-1 Phi_S^T lam,
    lam >= 0 and every phi_i . q <= 1.  All supports of 2 to D rows are
    solved in one batch; among the positive definite candidates the one
    with the least KKT residual wins, which also ranks the near-singular
    supports of projective near-duplicates without a threshold.  Q is then
    divided by its largest row value, so every row is enclosed to
    rounding.  Returns Q, with ||c||_E^2 = c^H Q c, and the design weights
    u_S = lam / sum(lam), for which Q = M(u)^-1 / 2.  m rows cost
    C(m, 2) + ... + C(m, D) small solves, so callers keep m small.
    Raises FitDistortionError for fewer than 2 rows, or when no support
    gives a positive definite Q, as for rows parallel to rounding.
    """
    if C.shape[0] < 2:
        raise FitDistortionError("one row bounds no ellipsoid")
    D = 4 if np.iscomplexobj(C) else 3
    z = C[:, 0] * np.conj(C[:, 1])
    phi = np.column_stack([np.abs(C[:, 0]) ** 2, np.abs(C[:, 1]) ** 2,
                           2.0 * z.real, 2.0 * z.imag])[:, :D]
    j_inv = _J_INV[:D, :D]
    idx, used = _supports(C.shape[0], D)
    # an unused slot gets an identity row and a zero right-hand side, so
    # its multiplier is exactly 0 and every support size shares one solve
    G = np.where(used[:, :, None] & used[:, None, :],
                 (phi @ j_inv @ phi.T)[idx[:, :, None], idx[:, None, :]], np.eye(D))
    rhs = used[:, :, None].astype(float)
    try:
        lam = np.linalg.solve(G, rhs)[..., 0]
    except np.linalg.LinAlgError:
        # four complex rows on one circle of the sphere, or two projective
        # duplicates (whose multipliers come back 0), have singular systems;
        # only those go through the pseudo-inverse
        sing = np.linalg.det(G) == 0.0
        lam = np.empty(rhs.shape[:2])
        lam[~sing] = np.linalg.solve(G[~sing], rhs[~sing])[..., 0]
        lam[sing] = (np.linalg.pinv(G[sing]) @ rhs[sing])[..., 0]
    q = np.einsum("sk,skd->sd", lam, phi[idx]) @ j_inv
    vals = q @ phi.T
    resid = np.maximum(vals.max(axis=1) - 1.0, -lam.min(axis=1) / np.maximum(
        np.abs(lam).sum(axis=1), np.finfo(float).tiny))
    # NaN parameters fail both comparisons and drop out with the rest
    pd = (q[:, 0] > 0.0) & (q[:, 0] * q[:, 1] > np.sum(q[:, 2:] ** 2, axis=1))
    resid = np.where(pd, resid, np.inf)
    s = int(np.argmin(resid))
    top = np.max(vals[s])
    u = np.zeros(C.shape[0])
    u[idx[s, used[s]]] = np.maximum(lam[s, used[s]], 0.0)
    if not (resid[s] < np.inf and top > 0.0 and u.sum() > 0.0):
        # rows parallel to rounding bound no ellipsoid of finite distortion
        raise FitDistortionError("no positive definite ellipsoid encloses the rows")
    q = q[s] / top
    off = complex(q[2], q[3]) if D == 4 else q[2]
    Q = np.array([[q[0], off], [np.conj(off), q[1]]])
    return Q, u / u.sum()


def _ratio(Q, rows, lat):
    # ||c||_Q / ||B c|| on coefficient rows whose lattice norms are lat
    return np.sqrt(np.maximum(_quad_rows(Q, rows), 0.0)) / lat


def _lattice_norms(rows, basis, norm):
    # norm.of_rows(rows @ basis.T), evaluated in tiles of rows
    # (lattice.row_tiles, at least two rows each, as the product is BLAS's;
    # at some large n a tile's norms differ from one block's by an ulp)
    tiles = row_tiles(len(rows), basis.shape[0] * np.result_type(rows, basis).itemsize,
                      least=2)
    if len(tiles) == 1:
        return norm.of_rows(rows @ basis.T)
    return np.concatenate([norm.of_rows(rows[s] @ basis.T) for s in tiles])


def _ratio_fn(basis, norm, Q):
    return lambda rows: _ratio(Q, rows, _lattice_norms(rows, basis, norm))


def _spread_starts(order, rows, count, min_cos):
    # greedily the first count rows in order whose overlap |<c, c'>| with
    # every row picked before is below min_cos: the grid repeats each pole
    # n_phi times, and those copies count once; order is read in chunks of 128
    picked, at = [], 0
    while len(picked) < count and at < len(order):
        rest, k, at = np.asarray(order[at:at + 128]), 0, at + 128
        while rest.size and len(picked) < count:
            if k == len(picked):
                picked.append(int(rest[0]))
            rest = rest[np.abs(rows[rest] @ np.conj(rows[picked[k]])) < min_cos]
            k += 1
    return picked


def _sphere_grid(field, n, n_phi=None):
    # read-only parameters and rows of a fixed grid: n angles t in [0, pi)
    # to rows (cos t, sin t), or n latitudes s in [0, pi/2] by n_phi phases
    # phi in [0, 2 pi) to rows (cos s, sin s e^{i phi})
    if field == "real":
        X = np.linspace(0.0, np.pi, n, endpoint=False)[:, None]
        rows = np.stack([np.cos(X[:, 0]), np.sin(X[:, 0])], axis=1)
    else:
        s = np.linspace(0.0, np.pi / 2, n)
        phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
        X = np.stack([np.repeat(s, n_phi), np.tile(phi, n)], axis=1)
        rows = np.stack([np.cos(X[:, 0]).astype(complex),
                         np.sin(X[:, 0]) * np.exp(1j * X[:, 1])], axis=1)
    X.flags.writeable = rows.flags.writeable = False
    return X, rows


def _sphere_rows(field, count, seed):
    """Fixed-seed sample of the realified coefficient sphere, read-only."""
    rng = np.random.default_rng(seed)
    if field == "complex":
        z = rng.standard_normal((count, 4))
        z /= np.linalg.norm(z, axis=1)[:, None]
        rows = z[:, :2] + 1j * z[:, 2:]
    else:
        z = rng.standard_normal((count, 2))
        rows = z / np.linalg.norm(z, axis=1)[:, None]
    rows.flags.writeable = False
    return rows


# one fixed grid per field, built once: the enclosure's candidate rows and
# the starting points of every scan
_COMPLEX_SHAPE = (65, 128)
_FIT_GRID = {"real": _sphere_grid("real", 4096),
             "complex": _sphere_grid("complex", *_COMPLEX_SHAPE)}
# the safety net of the scanned fits' distortion measurement
_SAMPLE = {field: _sphere_rows(field, 2048, 182818284) for field in ("real", "complex")}


# the complex polish's stencil +-1, +-i, +-(1 + i) in its principal frame,
# the fractions of the model step it scores, and their offsets across
_STENCIL = np.array([1.0, -1.0, 1j, -1j, 1.0 + 1j, -1.0 - 1j])
_STEP = np.array([1.0, 0.5, 0.25])
_ACROSS = np.array([0.0, 1.0, -1.0])
_STENCIL.flags.writeable = _STEP.flags.writeable = _ACROSS.flags.writeable = False


def _chart_points(C, Z):
    # rows c + z t of the chart around each unit row c of C, where
    # t = (-conj c1, conj c0) is orthogonal to c: the chart has no pole
    T = np.stack([-np.conj(C[:, 1]), np.conj(C[:, 0])], axis=1)
    return C[:, None, :] + Z[..., None] * T[:, None, :]


def _polish_complex(fn, sign, C, d):
    """Minimize sign * fn on the complex sphere from every unit row of C at once.

    Each start moves in the chart around its point, turned onto its last
    principal axes, at scale d.  One batched fn call scores the
    central-difference stencil at clip(d, 1e-5, 1e-4) and polls of its
    directions at min(d, 1e-4) and a tenth of that.  On each principal
    axis the model step is Newton's where the curvature is positive, else
    4d downhill, capped at 4 max(d, 1e-3).  A second call scores 1, 1/2
    and 1/4 of it with their neighbours across, along the steeper axis,
    and a third, if it promises a gain, the bottoms of those parabolas,
    which keep a step inside a flat curved valley (the contact circle of
    a span with a circle of symmetry).  The best point is taken if lower.
    d follows a move that gains over 1e-13 relative, else drops to a
    tenth of min(d, step), so a converged start stops at once and the
    polls close in on cone tips of p = 1 norms.  A start stops at
    d < 1e-10 or 100 iterations.  Returns rows, values, iterations.
    """
    C = C / np.linalg.norm(C, axis=1)[:, None]
    F = sign * fn(C)
    d = np.array(np.broadcast_to(d, F.shape), dtype=float)
    axis, iters = np.ones(F.shape, dtype=complex), np.zeros(F.shape, dtype=int)
    live = np.arange(F.size)

    def score(c, Z):
        rows = _chart_points(c, Z.reshape(len(c), -1)).reshape(-1, 2)
        return sign * fn(rows).reshape(Z.shape)

    for _ in range(100):
        c, f0, dl, e = C[live], F[live], d[live], axis[live]
        hs, hp = np.clip(dl, 1e-5, 1e-4), np.minimum(dl, 1e-4)
        Z = (np.stack([hs, hp, 0.1 * hp], axis=1)[:, :, None] * _STENCIL).reshape(live.size, -1)
        Z = Z * e[:, None]
        V = score(c, Z)
        h2 = hs * hs
        h11 = (V[:, 0] + V[:, 1] - 2.0 * f0) / h2
        h22 = (V[:, 2] + V[:, 3] - 2.0 * f0) / h2
        h12 = 0.5 * ((V[:, 4] + V[:, 5] - 2.0 * f0) / h2 - h11 - h22)
        # the principal frame: the real axis has the larger curvature k1
        turn = np.exp(0.5j * np.arctan2(2.0 * h12, h11 - h22))
        e = axis[live] = e * turn
        g = (V[:, 0] - V[:, 1] + 1j * (V[:, 2] - V[:, 3])) / (2.0 * hs) * np.conj(turn)
        mid, rad = 0.5 * (h11 + h22), np.hypot(0.5 * (h11 - h22), h12)
        k1, k2 = mid + rad, mid - rad
        with np.errstate(divide="ignore", invalid="ignore"):
            s = (np.where(k1 > 0.0, -g.real / k1, -4.0 * dl * np.sign(g.real))
                 + 1j * np.where(k2 > 0.0, -g.imag / k2, -4.0 * dl * np.sign(g.imag)))
        s = np.where(np.isfinite(s), s, 0.0)
        cap = 4.0 * np.maximum(dl, 1e-3)
        s *= cap / np.maximum(np.abs(s), cap)
        P = s[:, None] * _STEP
        ZB = (P[:, :, None] + hs[:, None, None] * _ACROSS) * e[:, None, None]
        VB = score(c, ZB)
        Z = np.concatenate([Z, ZB.reshape(live.size, -1)], axis=1)
        V = np.concatenate([V, VB.reshape(live.size, -1)], axis=1)
        ka = (VB[..., 1] + VB[..., 2] - 2.0 * VB[..., 0]) / h2[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            tau = np.where(ka > 0.0, (VB[..., 2] - VB[..., 1]) / (2.0 * hs[:, None] * ka), 0.0)
        lim = np.maximum(np.abs(P), hs[:, None])
        tau = np.clip(tau, -lim, lim)
        if np.any(ka * tau * tau > 1e-13 * np.abs(f0)[:, None]):
            ZC = (P + tau) * e[:, None]
            Z = np.concatenate([Z, ZC], axis=1)
            V = np.concatenate([V, score(c, ZC)], axis=1)
        at, j = np.arange(live.size), np.argmin(V, axis=1)
        lower = V[at, j] < f0
        gained = lower & (f0 - V[at, j] > 1e-13 * np.abs(f0))
        moved = _chart_points(c[lower], Z[at, j][lower, None])[:, 0]
        C[live[lower]] = moved / np.linalg.norm(moved, axis=1)[:, None]
        F[live[lower]] = V[at, j][lower]
        d[live] = np.where(gained, np.abs(Z[at, j]), 0.1 * np.minimum(dl, np.abs(s)))
        iters[live] += 1
        live = live[d[live] >= 1e-10]
        if live.size == 0:
            break
    return C, F, iters


def _scan_complex(fn, sign, vals, support=()):
    """Extremum of sign * fn over the complex coefficient sphere, grid plus polish.

    vals holds fn on the field's grid.  Six grid minima of sign * fn, at
    least four latitude steps apart on the sphere and started at scale an
    eighth of a step (a longer first step can leave its peak for a lower
    one on the rugged ratio of a p = 1 norm at large n), and the rows of
    ``support``, at 5e-3, seed one batch of _polish_complex.  Returns the
    (value of fn, coefficient row) extremum and the polished support rows.
    """
    grid, rows = _FIT_GRID["complex"]
    n_phi = _COMPLEX_SHAPE[1]
    order = np.argsort(sign * vals)
    step = grid[n_phi, 0] - grid[0, 0]
    starts = _spread_starts(order, rows, 6, math.cos(4.0 * step))
    C0 = np.vstack([rows[starts], *support])
    d0 = np.r_[np.full(len(starts), 0.125 * step), np.full(len(C0) - len(starts), 5e-3)]
    C, F, _ = _polish_complex(fn, sign, C0, d0)
    k0, n_grid = int(order[0]), len(starts)
    # earliest strict improvement wins, the grid point first
    k = int(np.argmin(np.concatenate([[sign * vals[k0]], F[:n_grid]])))
    best = (float(vals[k0]), rows[k0]) if k == 0 else (sign * float(F[k - 1]), C[k - 1])
    return best, C[n_grid:]


def _circle_polish(fn, sign, t0, half, xatol, maxiter):
    """Bounded Brent search of sign * fn on the real circle over t0 +- half.

    Returns the best value of sign * fn and its coefficient row.
    """
    res = minimize_scalar(
        lambda t: sign * float(fn(np.array([[math.cos(t), math.sin(t)]]))[0]),
        bounds=(t0 - half, t0 + half),
        method="bounded",
        options={"xatol": xatol, "maxiter": maxiter},
    )
    t = float(res.x)
    return float(res.fun), np.array([math.cos(t), math.sin(t)])


def _scan_real(fn, sign, vals, support=()):
    """Extremum of sign * fn over the real coefficient circle, grid plus polish.

    vals holds fn on the field's grid.  Its eight best minima of sign * fn
    seed polishes of sign * fn over one grid step, and the angle of each
    row of ``support`` a finer one.  Returns what _scan_complex returns.
    """
    grid, rows = _FIT_GRID["real"]
    t = grid[:, 0]
    step = t[1] - t[0]
    sv = sign * vals
    local = np.flatnonzero((sv <= np.roll(sv, 1)) & (sv <= np.roll(sv, -1)))
    k0 = int(np.argmin(sv))
    best_v, best_c = float(sv[k0]), rows[k0]
    for k in local[np.argsort(sv[local])][:8]:
        v, c = _circle_polish(fn, sign, t[k], step, 1e-12, 300)
        if v < best_v:
            best_v, best_c = v, c
    polished = [_circle_polish(fn, sign, math.atan2(float(c[1]), float(c[0])), 0.02,
                               1e-13, 200)[1] for c in support]
    return (sign * best_v, best_c), polished


def _exchange(P, farthest):
    """Grow a small support set until its ellipsoid encloses the whole body.

    Classic exchange: solve the minimum-volume problem on the rows P only,
    keep its support, and append the body's farthest point, which
    farthest(Q) returns as (c^H Q c, c), until that value is within 3e-10
    of 1.  The solve stays on a few rows however the body is given.
    Returns the last Q, its support rows, the last value, and whether the
    loop ended by its tolerance rather than its 60-round cap.
    """
    for rounds in range(60):
        Q, u = _mvee_centered(P)
        P = P[u > 1e-12]
        val, c = farthest(Q)
        converged = val - 1.0 <= 3e-10
        if converged or rounds == 59:
            return Q, P, val, converged
        P = np.vstack([P, c])


def _fixed_rows(rows):
    # the exchange's farthest point of a body given by finitely many rows
    def farthest(Q):
        r = _quad_rows(Q, rows)
        j = int(np.argmax(r))
        return r[j], rows[j]
    return farthest


def _refine_support(Q, P, basis, norm, field, lat):
    """Slide the support set P of Q onto the body's true contact points.

    Each round local-maximizes the current ratio from every support point
    and appends the moved points; the next solve's support drops whichever
    copies went stale.  Bodies with near-degenerate contact arcs never
    settle on a finite support, so the best enclosure seen wins and two
    non-improving rounds end the chase.  lat holds the grid's lattice norms.
    """
    best_hi, best_Q = np.inf, Q
    stall = 0
    scan = _scan_real if field == "real" else _scan_complex
    for _ in range(8):
        fn = _ratio_fn(basis, norm, Q)
        (hi, hi_c), polished = scan(fn, -1.0, _ratio(Q, _FIT_GRID[field][1], lat), P)
        moved = [hi_c, *polished]
        new = np.stack([c / norm(basis @ c) for c in moved])
        # the support-seeded maxima see spikes the grid scan smooths over,
        # so they join the measurement of the current enclosure
        hi = max(hi, float(np.max(fn(new))))
        if hi < best_hi:
            best_hi, best_Q = hi, Q
            stall = 0
        else:
            stall += 1
        if best_hi <= 1.0 + 1e-8 or stall >= 2:
            break

        # at most D support rows plus D + 1 moved ones: m <= 9
        P = np.vstack([P, new])
        Q, w = _mvee_centered(P)
        P = P[w > 1e-12]
    return best_Q, best_hi


def _vertex_max(AR, Q):
    """Largest c^H Q c over the ball {c : |a . c| <= 1 for every row a of AR}.

    The maximum of a convex form lies at an extreme point, where two
    independent rows j, k are active: c = M^-1 (1, z) for their 2 x 2
    matrix M.  On the real field z = +-1.  On the complex field
    z = e^{i delta}, where delta is either -arg A01 of A = M^-H Q M^-1
    (the form's maximum over the pair's circle) or one of the at most two
    angles where a third row l reaches |x_l + y_l e^{i delta}| = 1, with
    (x_l, y_l) = a_l M^-1 (an end of a feasible arc).  Every candidate is
    scaled onto the ball's boundary by its largest |a . c|, so each one is
    a point of the ball and the best is the ball's maximum, with no
    feasibility tolerance.  Returns (c, c^H Q c), or None when no two rows
    are independent.
    """
    j, k = np.triu_indices(AR.shape[0], 1)
    det = AR[j, 0] * AR[k, 1] - AR[j, 1] * AR[k, 0]
    ok = det != 0.0
    if not ok.any():
        return None
    j, k, det = j[ok], k[ok], det[ok, None]
    # c = u + z v: the columns of M^-1
    u = np.stack([AR[k, 1], -AR[k, 0]], axis=1) / det
    v = np.stack([-AR[j, 1], AR[j, 0]], axis=1) / det
    if np.iscomplexobj(AR):
        z0 = np.exp(-1j * np.angle(np.einsum("pi,ij,pj->p", np.conj(u), Q, v)))
        x, y = u @ AR.T, v @ AR.T
        s = np.conj(x) * y
        r = np.abs(s)
        # Re(s z) = h on |z| = 1: z = e^{-i arg s} (t +- i sqrt(1 - t^2))
        h = 0.5 * (1.0 - np.abs(x) ** 2 - np.abs(y) ** 2)
        t = np.divide(np.clip(h, -r, r), r, out=np.zeros_like(r), where=r > 0.0)
        e = np.exp(-1j * np.angle(s))
        w = np.sqrt(1.0 - t * t)
        z = np.concatenate([z0[:, None], e * (t + 1j * w), e * (t - 1j * w)], axis=1)
    else:
        z = np.broadcast_to(np.array([1.0, -1.0]), (len(det), 2))
    C = (u[:, None, :] + z[:, :, None] * v[:, None, :]).reshape(-1, 2)
    C /= np.max(np.abs(C @ AR.T), axis=1)[:, None]
    vals = _quad_rows(Q, C)
    best = int(np.argmax(vals))
    return C[best], float(vals[best])


def _sup_ball_max(A, Q, R):
    """Farthest point of the sup-norm ball {c : |A c| <= 1} in the form Q.

    Constraint generation: _vertex_max solves the ball of the rows R only,
    a superset of the true ball, and the row its best point violates most
    joins R, until that point's full |A c| is at most 1 + 1e-12 plus the
    rounding bound 8 eps max(|A| |c|) of the products, or the worst row is
    already in R.  R is a list of row indices, grown in place and kept by
    the caller.  Returns the maximum of c^H Q c over R's ball, which bounds
    the maximum over the ball from above, and the point scaled into the
    ball by its ||A c||_inf.
    """
    for _ in range(A.shape[0] + 1):
        best = _vertex_max(A[R], Q)
        if best is None:
            # the rows of R are parallel: add the row most independent of them
            a = A[R[0]]
            R.append(int(np.argmax(np.abs(A[:, 0] * a[1] - A[:, 1] * a[0]))))
            continue
        c, val = best
        dev = np.abs(A @ c)
        worst = int(np.argmax(dev))
        top = float(dev[worst])
        slack = 8.0 * np.finfo(float).eps * float(np.max(np.abs(A) @ np.abs(c)))
        if top <= 1.0 + 1e-12 + slack or worst in R:
            return val / min(top, 1.0) ** 2, c / top
        R.append(worst)
    raise CertificateError("sup-norm ball maximum did not settle on a row set")


def _polygon(A):
    """Vertices and edge rows of the real unit ball {c : sum_i |a_i . c| <= 1}.

    Each nonzero row, turned to a_i . (cos t, sin t) = |a_i| sin(t - theta_i)
    with theta_i in [0, pi), changes sign once on [0, pi); so with the rows
    sorted by theta_i, the edge row of the arc after theta_k is the sum of
    the first k rows minus the rest, one cumulative sum for all of them.
    The vertex at theta_k is (cos theta_k, sin theta_k), scaled by its edge
    row.  Every sign pattern is bounded by the norm, so misordered ties
    never overstate the dual ball.  Returns (vertices, edge rows).
    """
    A = A[np.any(A != 0.0, axis=1)]
    A = np.where(((A[:, 0] > 0.0) | ((A[:, 0] == 0.0) & (A[:, 1] < 0.0)))[:, None], -A, A)
    A = A[np.argsort(np.mod(np.arctan2(A[:, 1], A[:, 0]) - 0.5 * np.pi, np.pi))]
    E = 2.0 * np.cumsum(A, axis=0) - A.sum(axis=0)
    V = np.stack([A[:, 1], -A[:, 0]], axis=1)
    return V / np.einsum("ij,ij->i", E, V)[:, None], E


def _dual_min(Q, A):
    # least ratio ||c||_Q / ||B c|| when the norm's dual ball is the hull
    # of the rows +-A: 1 / max_a sqrt(a Q^-1 a^H)
    try:
        Q_inv = np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        raise FitDistortionError("fitted ellipsoid is singular") from None
    top = float(np.max(_quad_rows(Q_inv, np.conj(A))))
    return 1.0 / math.sqrt(top) if top > 0.0 else 0.0


def _fit_ellipsoid(basis, norm, field):
    """Gram matrix and measured distortion of the rescaled enclosing ellipsoid.

    One exchange grows the enclosure from nine spread rows of the field's
    grid, on one of the three bodies of the module docstring.  On the two
    exact bodies the extrema come in closed form from the exchange and the
    dual ball, and no other row is measured.  On the grid body the support
    is then refined, both extrema scanned, and the fixed random sample
    measured on top.  A form whose distortion exceeds the limit, or whose
    minimum ratio is not positive, raises FitDistortionError.
    """
    grid = _FIT_GRID[field][1]
    S = list(dict.fromkeys(np.linspace(0, grid.shape[0] - 1, 9).astype(int).tolist()))
    if norm.p == math.inf or (norm.p == 1.0 and field == "real"):
        A = norm._weighted(basis.T).T
        P = grid[S] / norm.of_rows(grid[S] @ basis.T)[:, None]
        if norm.p == math.inf:
            # the ball's row set starts from the rows active at the starts
            R = np.flatnonzero(np.any(np.abs(P @ A.T) >= 1.0 - 1e-9, axis=0)).tolist()
            farthest = functools.partial(_sup_ball_max, A, R=R)
        else:
            V, A = _polygon(A)
            farthest = _fixed_rows(V)
        Q, _, val, _ = _exchange(P, farthest)
        # both extrema are exact, so a sample could only add rounding
        hi, lo = math.sqrt(val), _dual_min(Q, A)
    else:
        lat = _lattice_norms(grid, basis, norm)
        rows = grid / lat[:, None]
        Q, support, _, _ = _exchange(rows[S], _fixed_rows(rows))
        # downstream certificates pay any off-grid excess one for one, so
        # the contact set is refined continuously; the measured K stays
        # honest even if the refinement exits on its round cap
        Q, hi = _refine_support(Q, support, basis, norm, field, lat)
        # _refine_support measured the maximum of Q's ratio; scan the minimum
        fn = _ratio_fn(basis, norm, Q)
        scan = _scan_real if field == "real" else _scan_complex
        lo = scan(fn, 1.0, _ratio(Q, grid, lat))[0][0]
        # the fixed random sample is the scans' safety net
        sample_ratios = fn(_SAMPLE[field])
        lo = min(lo, float(sample_ratios.min()))
        hi = max(hi, float(sample_ratios.max()))
    distortion = hi / lo if lo > 0.0 else math.inf
    if not distortion <= DISTORTION_LIMIT:
        raise FitDistortionError(
            f"fitted distortion {distortion:.6f} exceeds {DISTORTION_LIMIT:.6f}"
        )
    return Q / lo**2, distortion


def fit_hilbert_norm(f, g, norm, field="complex"):
    """Fit a Hilbert norm on span{f, g} equivalent to the lattice norm.

    Returns a HilbertForm whose norm satisfies
    ||x|| <= ||x||_H <= distortion_K * ||x|| on the span, with
    distortion_K <= sqrt(2) up to solver tolerance; a weighted 2-norm gets
    its own Gram matrix B^H W B and distortion_K = 1.  distortion_K is
    exact up to rounding at p in {2, inf} and at real p = 1, and measured
    otherwise.  The pair is fitted scaled by a power of two to unit scale,
    and its Gram matrix scaled back.
    Raises DependentVectorsError for (numerically) dependent inputs,
    FitDistortionError if the measured distortion lands above the
    sqrt(2) + 0.05 threshold, and InputError if the Gram matrix is out of
    the float range.
    """
    f = as_vector(f, field)
    g = as_vector(g, field)
    check_same_dim(f, g)
    basis = np.stack([f, g], axis=1)
    # fit at unit scale: the largest entry first, so the norms are finite,
    # then the larger norm in [1/2, 1)
    e = unit_exponent(basis)
    scaled = ldexp(basis, -e)
    e += int(np.frexp(max(norm(scaled[:, 0]), norm(scaled[:, 1])))[1])
    scaled = ldexp(basis, -e)
    require_independent(
        scaled, DependentVectorsError("basis vectors are numerically dependent")
    )

    if norm.p == 2.0:
        # the norm is Hilbert already: ||B c||^2 = c^H (B^H W B) c
        gram, distortion = np.conj(scaled.T) @ norm._weighted(scaled.T).T, 1.0
    else:
        gram, distortion = _fit_ellipsoid(scaled, norm, field)
    gram = 0.5 * (gram + np.conj(gram.T))
    with np.errstate(over="ignore", under="ignore"):
        gram = ldexp(gram, 2 * e)
    if not (np.all(np.isfinite(gram)) and np.diag(gram).real.min() >= np.finfo(float).tiny):
        raise InputError("the fitted Gram matrix is outside the float range")
    if field == "real":
        gram = gram.real
    return HilbertForm(
        f=f,
        g=g,
        gram=gram,
        distortion_K=float(distortion),
        field=field,
        norm=norm,
        _basis=basis,
        _pinv=np.linalg.pinv(basis),
    )


@dataclass(frozen=True, eq=False)
class AlignedPair:
    """f = u + mu v and g = u - mu v with <f, g>_H real and nonnegative."""

    f: np.ndarray
    g: np.ndarray
    mu: complex
    swapped: bool


def nonneg_rotation(f, g, H):
    """Unimodular mu making <f, mu g>_H = |<f, g>_H|; returns (mu g, mu).

    The reduction step requires a nonnegative inner product; rotating g
    changes neither its modulus nor any phase-invariant measure of the
    pair.
    """
    f = as_vector(f, H.field)
    g = as_vector(g, H.field)
    ip = complex(H.inner(f, g))
    if abs(ip) <= 1e-14 * H.norm_h(f) * H.norm_h(g):
        mu = 1.0 if H.field == "real" else 1.0 + 0.0j
    elif H.field == "real":
        mu = 1.0 if ip.real >= 0.0 else -1.0
    else:
        mu = ip / abs(ip)
    return mu * g, mu


def align_pair(u, v, H):
    """Phase-align (u, v) so the combined pair has real inner product.

    mu is nonneg_rotation's phase of <u, v>_H (mu = 1 when the inner
    product vanishes).  Inputs are swapped first if ||u||_H < ||v||_H, so that
    <f, g>_H = ||u||_H^2 - ||v||_H^2 >= 0; the swap is recorded.
    """
    u = as_vector(u, H.field)
    v = as_vector(v, H.field)
    nu = H.norm_h(u)
    nv = H.norm_h(v)
    swapped = nu < nv
    if swapped:
        u, v = v, u
        nu, nv = nv, nu
    v_rot, mu = nonneg_rotation(u, v, H)
    f = u + v_rot
    g = u - v_rot
    check = H.inner(f, g)
    if abs(complex(check).imag) > 1e-10 * (nu * nu + nv * nv):
        raise CertificateError("alignment left a non-real inner product")
    return AlignedPair(f=f, g=g, mu=mu, swapped=swapped)


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """Orthogonally reduced pair; f_prime - g_prime preserves f - g."""

    f_prime: np.ndarray
    g_prime: np.ndarray
    mu: complex
    R: float


def orthogonal_reduce(f, g, H, mu=1.0):
    """Subtract R(f+g) from both vectors to make them H-orthogonal.

    Requires <f, g>_H real and nonnegative, as align_pair produces.  R
    is the smaller root of S R^2 - S R + <f,g>_H with S = ||f+g||_H^2, so
    R lies in [0, 1/2].  It is taken as 2<f,g>_H / (S (1 + sqrt(disc)))
    with disc = (S - 4<f,g>_H) / S, which loses no digits to cancellation:
    the sum in the denominator has no cancellation for any <f,g>_H, and
    S - 4<f,g>_H is exact near the double root, where 4<f,g>_H is within a
    factor 2 of S.  Postconditions are asserted, not trusted:
    orthogonality within 1e-10 relative, coordinatewise modulus-gap
    domination within 1e-12 of the coordinate's largest modulus, and
    difference preservation to the last few representable bits.  Near the
    double root the orthogonality check can fail on rounding alone: the
    rounding of <f,g>_H and S (about 1e-16 S) stays while the reduced pair
    shrinks, so aligned pairs with disc below about 1e-6 on fitted forms
    may raise CertificateError.  That is a raised error, never a wrong
    result.
    """
    f = as_vector(f, H.field)
    g = as_vector(g, H.field)
    cf = H.coeffs(f)
    cg = H.coeffs(g)
    det = abs(cf[0] * cg[1] - cf[1] * cg[0])
    if det <= 1e-12 * max(np.linalg.norm(cf) * np.linalg.norm(cg), 1e-30):
        raise DependentVectorsError("pair is numerically dependent")
    q = complex(np.vdot(cg, H.gram @ cf))
    qf, qg = max(_quad(H.gram, cf), 0.0), max(_quad(H.gram, cg), 0.0)
    scale = np.sqrt(qf) * np.sqrt(qg)
    if abs(q.imag) > 1e-8 * scale:
        raise PreconditionError(f"inner product not real: Im = {q.imag:.3e}")
    if q.real < -1e-8 * scale:
        raise PreconditionError(f"inner product negative: {q.real:.3e}")
    qr = q.real if q.real > 0.0 else 0.0
    S = max(_quad(H.gram, cf + cg), 0.0)
    if S <= 1e-30 * (qf + qg):
        raise DependentVectorsError("f + g vanishes in the fitted norm")
    disc = (S - 4.0 * qr) / S
    if disc < -1e-9:
        raise PreconditionError(f"discriminant {disc:.3e} < 0; 4<f,g> > S")
    # (1 - sqrt(disc)) / 2 rationalized; qr >= 0 makes R >= 0, and the cap
    # holds R at 1/2 for a disc in [-1e-9, 0)
    R = min(2.0 * qr / (S * (1.0 + math.sqrt(max(disc, 0.0)))), 0.5)

    t = R * (f + g)
    f1 = f - t
    g1 = g - t

    c1 = H.coeffs(f1)
    c2 = H.coeffs(g1)
    resid = abs(complex(np.vdot(c2, H.gram @ c1)))
    bound = np.sqrt(max(_quad(H.gram, c1), 0.0)) * np.sqrt(max(_quad(H.gram, c2), 0.0))
    if resid > 1e-10 * bound:
        raise CertificateError(f"orthogonality residual {resid:.3e} over {bound:.3e}")
    gap_after = np.abs(np.abs(f1) - np.abs(g1))
    gap_before = np.abs(np.abs(f) - np.abs(g))
    top = np.maximum.reduce([np.abs(f1), np.abs(g1), np.abs(f), np.abs(g)]).real
    if np.any(gap_after > gap_before + 1e-12 * top):
        raise CertificateError("modulus gap grew under reduction")
    drift = np.abs((f1 - g1) - (f - g))
    caps = 4.0 * np.spacing(top + 1e-300)
    if np.any(drift > caps):
        raise CertificateError("difference not preserved to rounding accuracy")
    return ReductionResult(f_prime=f1, g_prime=g1, mu=mu, R=R)


def reduce_pair(f, g, norm, field="complex"):
    """Fit the span's Hilbert form, rotate g, and reduce the pair.

    The chain fit_hilbert_norm -> nonneg_rotation -> orthogonal_reduce:
    g is turned by the unimodular mu that makes <f, mu g>_H nonnegative,
    then (f, mu g) is orthogonally reduced.  Returns (H, ReductionResult).
    """
    H = fit_hilbert_norm(f, g, norm, field=field)
    g_rot, mu = nonneg_rotation(f, g, H)
    return H, orthogonal_reduce(f, g_rot, H, mu=mu)
