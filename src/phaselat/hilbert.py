"""Hilbert norms on two-dimensional spans, pair alignment, orthogonal reduction.

Fits a Hermitian positive-definite form on the coefficient space of
span{f, g} whose induced norm sandwiches the lattice norm,

    ||x|| <= ||x||_H <= K ||x||,   K <= sqrt(2) + tolerance,

and implements the reduction (f, g) -> (f - R(f+g), g - R(f+g)) that makes
the pair orthogonal in the fitted inner product without increasing the
pointwise modulus gap.  A weighted 2-norm is already Hilbert and gets its
exact form, Gram = B^H W B with K = 1.  Otherwise the fit computes the
minimum-volume centered ellipsoid enclosing a dense sample of the span's
unit sphere, tightens it with cutting planes until the whole sphere is
certified inside, and rescales so the lower sandwich bound is met with
equality at the worst point found.

Extrema of the ratio ||x||_H / ||x|| are located on a grid and polished.
Every grid and the random sphere sample are fixed module constants, built
once by mapping sphere parameters to coefficient rows in _sphere_points.
On the real circle each candidate gets a bounded Brent search.  On the
complex sphere every polish of one stage (the grid starts of the scan and,
while the support is refined, one start per support point) runs as a
single lockstep Nelder-Mead batch that follows scipy's method step for
step, so each simplex step costs one batched norm evaluation for all
starts instead of one call per trial point.
"""

import math
from dataclasses import dataclass

import numpy as np
# bench/tracer.py wraps both names in this module as the hilbert polish
# layer and cannot install if either is missing; only the real-field Brent
# polish (minimize_scalar) is called here
from scipy.optimize import minimize, minimize_scalar  # noqa: F401

from .lattice import (
    NormSpec,
    PhaseLatError,
    as_vector,
    check_same_dim,
    require_independent,
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
    linear in y.  ``distortion_K`` is the measured equivalence constant
    against the lattice norm the form was fitted to.
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


def _mvee_centered(C, tol=1e-10, max_iter=600, warm=None):
    """Minimum-volume centered ellipsoid enclosing the rows of C.

    A coarse Frank-Wolfe ascent on the log-det dual locates the support,
    then Newton iterations on the active set polish the weights; the
    optimality condition is kappa_i = 2 wherever u_i > 0.  Returns the
    Hermitian Q with ||c||_E^2 = c^H Q c and max over rows <= 1 + O(tol),
    plus the design weights.  Meant for small row sets; the caller keeps
    the support small by exchanging points against a dense grid.
    """
    n = C.shape[0]
    d = 2.0
    a = np.abs(C[:, 0]) ** 2
    b = np.abs(C[:, 1]) ** 2
    z = C[:, 0] * np.conj(C[:, 1])
    if warm is not None and warm.shape[0] == n:
        u = warm.copy()
    else:
        u = np.zeros(n)
        lead = int(np.argmax(a + b))
        dets = np.abs(C[lead, 0] * C[:, 1] - C[lead, 1] * C[:, 0])
        u[lead] = 0.5
        u[int(np.argmax(dets))] += 0.5

    def kappa_all(w):
        m00 = float(w @ a)
        m11 = float(w @ b)
        m01 = complex(w @ z)
        det = m00 * m11 - (m01.real**2 + m01.imag**2)
        # inverse of the 2x2 moment matrix applied as a quadratic form,
        # pairing against conj(z) since m01 collects c0 conj(c1)
        q00, q11, q01 = m11 / det, m00 / det, -m01 / det
        return q00 * a + q11 * b + 2.0 * (q01.real * z.real + q01.imag * z.imag)

    ftol = max(tol, 1e-6)
    for _ in range(max_iter):
        kappa = kappa_all(u)
        j = int(np.argmax(kappa))
        up = kappa[j] / d - 1.0
        ka = np.where(u > 1e-15, kappa, np.inf)
        i2 = int(np.argmin(ka))
        down = 1.0 - ka[i2] / d
        if up <= ftol and down <= ftol:
            break
        if up >= down:
            beta = (kappa[j] - d) / (d * (kappa[j] - 1.0))
            pick = j
        else:
            beta_min = -u[i2] / (1.0 - u[i2])
            # below kappa = 1 the objective is monotone, drop the point
            beta = max((ka[i2] - d) / (d * (ka[i2] - 1.0)), beta_min) \
                if ka[i2] > 1.0 else beta_min
            pick = i2
        u *= 1.0 - beta
        u[pick] = max(u[pick] + beta, 0.0)

    def resid_active(A, uA):
        m00 = float(uA @ a[A])
        m11 = float(uA @ b[A])
        m01 = complex(uA @ z[A])
        det = m00 * m11 - (m01.real**2 + m01.imag**2)
        if not np.isfinite(det) or det <= 0.0:
            return np.inf
        q00, q11, q01 = m11 / det, m00 / det, -m01 / det
        k = q00 * a[A] + q11 * b[A] + 2.0 * (
            q01.real * z[A].real + q01.imag * z[A].imag
        )
        return float(np.max(np.abs(k - d)))

    for _ in range(30):
        A = np.flatnonzero(u > 1e-12)
        CA = C[A]
        uA = u[A].copy()
        ok = False
        for _ in range(30):
            m00 = float(uA @ a[A])
            m11 = float(uA @ b[A])
            m01 = complex(uA @ z[A])
            det = m00 * m11 - (m01.real**2 + m01.imag**2)
            if not np.isfinite(det) or det <= 0.0:
                break
            minv = np.array([[m11, -m01], [-np.conj(m01), m00]]) / det
            K = np.conj(CA) @ minv @ CA.T
            resid = K.diagonal().real - d
            r0 = float(np.max(np.abs(resid)))
            if r0 <= d * tol * 0.5:
                ok = True
                break
            jac = -(K.real**2 + K.imag**2)
            step = np.linalg.lstsq(jac, resid, rcond=None)[0]
            # cap the step at the nonnegativity boundary, then backtrack
            # until the residual actually drops; near-duplicate support
            # rows make the full Newton step wildly unreliable
            pos = step > 0.0
            t = min(1.0, float(np.min(uA[pos] / step[pos]))) if np.any(pos) else 1.0
            accepted = False
            for _ in range(10):
                new = np.maximum(uA - t * step, 0.0)
                if resid_active(A, new) < r0:
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
            uA = new
            gone = uA <= 0.0
            if np.any(gone):
                keep = ~gone
                if int(keep.sum()) < 2:
                    break
                A = A[keep]
                CA = C[A]
                uA = uA[keep]
        if not ok:
            break
        v = np.zeros(n)
        v[A] = uA
        u = v
        kappa = kappa_all(u)
        j = int(np.argmax(kappa))
        if kappa[j] <= d * (1.0 + tol) or u[j] > 0.0:
            break
        # an off-support point violates, seed it and polish again
        u *= 1.0 - 1e-3
        u[j] += 1e-3

    M = (C.T * u) @ np.conj(C)
    M = 0.5 * (M + np.conj(M.T))
    det = (M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]).real
    minv = np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]]) / det
    return minv / d, u


def _ratio_fn(basis, norm, Q):
    def fn(rows):
        q = np.sqrt(np.maximum(_quad_rows(Q, rows), 0.0))
        lat = norm.of_rows(rows @ basis.T)
        return q / lat

    return fn


def _spread_starts(order, shape, count, min_gap):
    picked = []
    for flat in order:
        ij = np.unravel_index(int(flat), shape)
        ok = True
        for pj in picked:
            gap = max(abs(ij[0] - pj[0]),
                      min(abs(ij[1] - pj[1]), shape[1] - abs(ij[1] - pj[1])))
            if gap < min_gap:
                ok = False
                break
        if ok:
            picked.append(ij)
            if len(picked) == count:
                break
    return picked


def _sphere_points(X, field):
    # sphere parameters to coefficient rows: t -> (cos t, sin t) on the
    # real circle, (s, phi) -> (cos s, sin s e^{i phi}) on the complex sphere
    if field == "real":
        return np.stack([np.cos(X[:, 0]), np.sin(X[:, 0])], axis=1)
    return np.stack(
        [np.cos(X[:, 0]).astype(complex), np.sin(X[:, 0]) * np.exp(1j * X[:, 1])],
        axis=1,
    )


def _sphere_param(c, field):
    # inverse of _sphere_points, up to a global phase on the complex sphere
    if field == "real":
        return np.array([math.atan2(float(c[1]), float(c[0]))])
    a = abs(c[0])
    s = math.atan2(abs(c[1]), a)
    if a <= 1e-300:
        return np.array([s, float(np.angle(c[1]))])
    return np.array([s, float(np.angle(c[1] * np.conj(c[0])))])


def _sphere_grid(field, n, n_phi=None):
    # read-only parameters and rows of a fixed grid: n angles t in [0, pi),
    # or n latitudes s in [0, pi/2] by n_phi phases phi in [0, 2 pi)
    if field == "real":
        X = np.linspace(0.0, np.pi, n, endpoint=False)[:, None]
    else:
        s = np.linspace(0.0, np.pi / 2, n)
        phi = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
        X = np.stack([np.repeat(s, n_phi), np.tile(phi, n)], axis=1)
    rows = _sphere_points(X, field)
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


# fixed grids, built once: the enclosure's candidate rows per field (the
# complex grid also serves the complex scans) and the real scan's circle
_COMPLEX_SHAPE = (65, 128)
_FIT_GRID = {"real": _sphere_grid("real", 4096),
             "complex": _sphere_grid("complex", *_COMPLEX_SHAPE)}
_SCAN_REAL = _sphere_grid("real", 4097)
# the distortion measurement required of every fitted form
_SAMPLE = {field: _sphere_rows(field, 2048, 182818284) for field in ("real", "complex")}


def _nelder_mead_rows(fn, field, X0, sign, h, xatol, fatol, maxiter):
    """Minimize sign * fn over sphere parameters from every row of X0 at once.

    Each start follows scipy's Nelder-Mead step for step: reflection 1,
    expansion 2, contractions 1/2, shrink 1/2, the initial simplex x0 and
    x0 + h e_k, scipy's xatol / fatol stopping test and its iteration cap.
    sign, h, xatol, fatol and maxiter are scalars or one value per start.
    All live starts advance together: one fn call per step scores the
    reflection, the expansion and both contractions of every live start,
    and a second call runs only for the starts that shrink.  Returns the
    best parameters per start and their values of sign * fn.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    # trial points as a xbar + b worst: reflection, expansion, outside and
    # inside contraction, with scipy's coefficients (negating b is exact)
    ta = np.array([1 + rho, 1 + rho * chi, 1 + psi * rho, 1 - psi])[:, None]
    tb = np.array([-rho, -rho * chi, -psi * rho, psi])[:, None]
    X0 = np.asarray(X0, dtype=float)
    B, N = X0.shape
    sign, xatol, fatol, maxiter = (
        np.broadcast_to(np.asarray(a, dtype=float), (B,))
        for a in (sign, xatol, fatol, maxiter)
    )
    h = np.broadcast_to(np.asarray(h, dtype=float), (B,))

    def score(S, sg):
        # (m, k, N) parameter points -> (m, k) values of sign * fn
        m, k = S.shape[:2]
        vals = fn(_sphere_points(S.reshape(m * k, N), field)).reshape(m, k)
        return sg[:, None] * vals

    def sort(S, F):
        order = np.argsort(F, axis=1)
        at = np.arange(S.shape[0])[:, None]
        return S[at, order], F[at, order]

    S = X0[:, None, :] + h[:, None, None] * np.vstack([np.zeros(N), np.eye(N)])
    S, F = sort(S, score(S, sign))
    best_x = np.empty((B, N))
    best_f = np.empty(B)
    live = np.arange(B)
    # every live start has taken the same number of steps
    iters = 1
    while True:
        done = (iters >= maxiter) | (
            (np.max(np.abs(S[:, 1:] - S[:, :1]), axis=(1, 2)) <= xatol)
            & (np.max(np.abs(F[:, :1] - F[:, 1:]), axis=1) <= fatol)
        )
        if done.any():
            best_x[live[done]] = S[done, 0]
            best_f[live[done]] = F[done, 0]
            keep = ~done
            live, S, F = live[keep], S[keep], F[keep]
            sign, xatol, fatol, maxiter = sign[keep], xatol[keep], fatol[keep], maxiter[keep]
            if live.size == 0:
                return best_x, best_f
        xbar = np.add.reduce(S[:, :-1], 1) / N
        worst = S[:, -1]
        trial = ta * xbar[:, None, :] + tb * worst[:, None, :]
        ft = score(trial, sign)
        fr, fe, fc, fcc = ft.T
        # scipy's branch tree; each else is "comparison false", so NaN
        # values route exactly as they do there
        pick = np.where(
            fr < F[:, 0],
            np.where(fe < fr, 1, 0),
            np.where(
                fr < F[:, -2],
                0,
                np.where(
                    fr < F[:, -1],
                    np.where(fc <= fr, 2, -1),
                    np.where(fcc < F[:, -1], 3, -1),
                ),
            ),
        )
        at = np.flatnonzero(pick >= 0)
        S[at, -1] = trial[at, pick[at]]
        F[at, -1] = ft[at, pick[at]]
        at = np.flatnonzero(pick < 0)
        if at.size:
            S[at, 1:] = S[at, :1] + sigma * (S[at, 1:] - S[at, :1])
            F[at, 1:] = score(S[at, 1:], sign[at])
        S, F = sort(S, F)
        iters += 1


def _scan_complex(fn, signs, support=()):
    """Extrema of fn over the complex coefficient sphere, grid plus polish.

    For each sign, six spread grid minima of sign * fn seed polishes of
    sign * fn; each row of ``support`` (sphere parameters) seeds a finer
    polish towards the maximum of fn.  Every start runs in one lockstep
    Nelder-Mead batch.  Returns one (value, coefficient row) extremum per
    sign and the polished support rows.
    """
    grid, rows = _FIT_GRID["complex"]
    n_phi = _COMPLEX_SHAPE[1]
    vals = fn(rows)
    h = 0.5 * (grid[n_phi, 0] - grid[0, 0])
    X0, opts, groups = [], [], []
    for sign in signs:
        order = np.argsort(sign * vals)
        starts = _spread_starts(order, _COMPLEX_SHAPE, 6, 4)
        groups.append((sign, int(order[0]), len(X0), len(X0) + len(starts)))
        X0 += [grid[i * n_phi + j] for i, j in starts]
        opts += [(sign, h, 1e-11, 1e-13, 150)] * len(starts)
    n_grid = len(X0)
    X0 += list(support)
    opts += [(-1.0, 5e-3, 1e-13, 1e-15, 200)] * (len(X0) - n_grid)
    X, F = _nelder_mead_rows(fn, "complex", np.array(X0), *np.array(opts).T)
    C = _sphere_points(X, "complex")
    extrema = []
    for sign, k0, a, b in groups:
        # earliest strict improvement wins, the grid point first
        k = int(np.argmin(np.concatenate([[sign * vals[k0]], F[a:b]])))
        if k == 0:
            extrema.append((float(vals[k0]), rows[k0]))
        else:
            extrema.append((sign * float(F[a + k - 1]), C[a + k - 1]))
    return extrema, C[n_grid:]


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


def _scan_real(fn, signs, support=()):
    """Extrema of fn over the real coefficient circle, grid plus polish.

    For each sign, the eight best grid minima of sign * fn seed polishes
    of sign * fn over one grid step; each angle of ``support`` seeds a
    finer polish towards the maximum of fn.  Returns what _scan_complex
    returns.
    """
    grid, rows = _SCAN_REAL
    t = grid[:, 0]
    step = t[1] - t[0]
    vals = fn(rows)
    extrema = []
    for sign in signs:
        sv = sign * vals
        local = np.flatnonzero((sv <= np.roll(sv, 1)) & (sv <= np.roll(sv, -1)))
        k0 = int(np.argmin(sv))
        best_v = float(sv[k0])
        best_c = np.array([math.cos(t[k0]), math.sin(t[k0])])
        for k in local[np.argsort(sv[local])][:8]:
            v, c = _circle_polish(fn, sign, t[k], step, 1e-12, 300)
            if v < best_v:
                best_v, best_c = v, c
        extrema.append((sign * best_v, best_c))
    polished = [_circle_polish(fn, -1.0, x[0], 0.02, 1e-13, 200)[1] for x in support]
    return extrema, polished


def _support_exchange(rows, S, u_s):
    """Grow a small support set until its ellipsoid encloses all rows.

    Classic exchange: solve the minimum-volume problem on rows[S] only,
    pull in the worst violator over the full grid, drop support points
    whose weight has collapsed.  Keeps the expensive iteration on a few
    dozen rows no matter how dense the grid is.
    """
    best_gap = np.inf
    stall = 0
    Q = None
    for _ in range(60):
        Q, u_s = _mvee_centered(rows[S], warm=u_s)
        r = _quad_rows(Q, rows)
        j = int(np.argmax(r))
        gap = float(r[j]) - 1.0
        if gap <= 3e-10 or j in S:
            break
        if gap < best_gap - 1e-15:
            best_gap = gap
            stall = 0
        else:
            stall += 1
            if stall >= 12:
                break
        keep = u_s > 1e-12
        S = [s for s, k in zip(S, keep) if k]
        u_s = u_s[keep]
        S.append(j)
        u_s = np.concatenate([u_s * (1.0 - 1e-2), [1e-2]])
        u_s /= u_s.sum()
    return Q, S, u_s


def _merge_close(P, w, gap=1e-5):
    # projective duplicates add nothing to the moment matrix; fold their
    # weight into the first representative
    keep = []
    for i in range(P.shape[0]):
        for k in keep:
            d2 = (
                _norm_sq(P[i]) + _norm_sq(P[k])
                - 2.0 * abs(complex(np.vdot(P[k], P[i])))
            )
            if d2 <= gap * gap:
                w[k] += w[i]
                break
        else:
            keep.append(i)
    return P[keep], w[keep] / w[keep].sum()


def _norm_sq(c):
    return float(np.real(np.vdot(c, c)))


def _refine_support(P, w, basis, norm, field):
    """Slide the support set onto the body's true contact points.

    Appending grid violators alone piles near-duplicates next to each
    off-grid contact point and closes the gap at a crawl.  Instead each
    round local-maximizes the current ratio from every active point and
    adds the moved points alongside the originals; the weight solve then
    prunes whichever copies went stale.  Bodies with near-degenerate
    contact arcs never settle on a finite support, so the best enclosure
    seen wins and two non-improving rounds end the chase.
    """
    Q, w = _mvee_centered(P, warm=w)
    best_hi, best_Q = np.inf, Q
    stall = 0
    scan = _scan_real if field == "real" else _scan_complex
    for _ in range(8):
        fn = _ratio_fn(basis, norm, Q)
        X0 = [_sphere_param(c, field) for c in P]
        [(hi, hi_c)], polished = scan(fn, (-1.0,), X0)
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

        P = np.vstack([P, new])
        w = np.concatenate([w * (1.0 - 1e-2), np.full(new.shape[0], 1e-2 / new.shape[0])])
        w /= w.sum()
        P, w = _merge_close(P, w)
        if P.shape[0] > 12:
            order = np.argsort(w)[::-1][:12]
            P, w = P[order], w[order] / w[order].sum()
        Q, w = _mvee_centered(P, warm=w)
        act = w > 1e-12
        if int(act.sum()) >= 2:
            P, w = P[act], w[act] / w[act].sum()
    return best_Q, best_hi


def _fit_ellipsoid(basis, norm, field):
    """Gram matrix and measured distortion of the rescaled enclosing ellipsoid."""
    rows = _FIT_GRID[field][1]
    rows = rows / norm.of_rows(rows @ basis.T)[:, None]

    S = list(dict.fromkeys(np.linspace(0, rows.shape[0] - 1, 9).astype(int).tolist()))
    Q, S, u_s = _support_exchange(rows, S, None)
    # downstream certificates pay any off-grid excess one for one, so the
    # contact set is refined continuously; the measured K stays honest
    # even if the refinement exits on its round cap
    act = u_s > 1e-12
    P = rows[np.asarray(S)[act]]
    w = u_s[act] / u_s[act].sum()
    Q, hi_seeded = _refine_support(P, w, basis, norm, field)

    fn = _ratio_fn(basis, norm, Q)
    scan = _scan_real if field == "real" else _scan_complex
    (hi, _), (lo, _) = scan(fn, (-1.0, 1.0))[0]
    hi = max(hi, hi_seeded)
    sample_ratios = fn(_SAMPLE[field])
    lo = min(lo, float(sample_ratios.min()))
    hi = max(hi, float(sample_ratios.max()))
    return Q / lo**2, hi / lo


def fit_hilbert_norm(f, g, norm, field="complex"):
    """Fit a Hilbert norm on span{f, g} equivalent to the lattice norm.

    Returns a HilbertForm whose norm satisfies
    ||x|| <= ||x||_H <= distortion_K * ||x|| on the span, with
    distortion_K <= sqrt(2) up to solver tolerance; a weighted 2-norm gets
    its own Gram matrix B^H W B and distortion_K = 1.  Raises
    DependentVectorsError for (numerically) dependent inputs and
    FitDistortionError if the measured distortion lands above the
    sqrt(2) + 0.05 threshold.
    """
    f = as_vector(f, field)
    g = as_vector(g, field)
    check_same_dim(f, g)
    basis = np.stack([f, g], axis=1)
    require_independent(
        basis, DependentVectorsError("basis vectors are numerically dependent")
    )

    if norm.p == 2.0:
        # the norm is Hilbert already: ||B c||^2 = c^H (B^H W B) c
        gram, distortion = np.conj(basis.T) @ norm._weighted(basis.T).T, 1.0
    else:
        gram, distortion = _fit_ellipsoid(basis, norm, field)
    gram = 0.5 * (gram + np.conj(gram.T))
    if distortion > DISTORTION_LIMIT:
        raise FitDistortionError(
            f"fitted distortion {distortion:.6f} exceeds {DISTORTION_LIMIT:.6f}"
        )
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
    if abs(ip) <= 1e-14 * max(H.norm_h(f) * H.norm_h(g), 1e-30):
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
    if abs(complex(check).imag) > 1e-10 * max(nu * nu + nv * nv, 1e-30):
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
    R lies in [0, 1/2].  Postconditions are asserted, not trusted:
    orthogonality within 1e-10 relative, coordinatewise modulus-gap
    domination within 1e-12, and difference preservation to the last
    few representable bits.
    """
    f = as_vector(f, H.field)
    g = as_vector(g, H.field)
    cf = H.coeffs(f)
    cg = H.coeffs(g)
    det = abs(cf[0] * cg[1] - cf[1] * cg[0])
    if det <= 1e-12 * max(np.linalg.norm(cf) * np.linalg.norm(cg), 1e-30):
        raise DependentVectorsError("pair is numerically dependent")
    q = complex(np.vdot(cg, H.gram @ cf))
    scale = max(
        np.sqrt(max(_quad(H.gram, cf), 0.0)) * np.sqrt(max(_quad(H.gram, cg), 0.0)),
        1e-30,
    )
    if abs(q.imag) > 1e-8 * scale:
        raise PreconditionError(f"inner product not real: Im = {q.imag:.3e}")
    if q.real < -1e-8 * scale:
        raise PreconditionError(f"inner product negative: {q.real:.3e}")
    qr = max(q.real, 0.0)
    S = max(_quad(H.gram, cf + cg), 0.0)
    if S <= 1e-30:
        raise DependentVectorsError("f + g vanishes in the fitted norm")
    disc = 1.0 - 4.0 * qr / S
    if disc < -1e-9:
        raise PreconditionError(f"discriminant {disc:.3e} < 0; 4<f,g> > S")
    R = 0.5 * (1.0 - np.sqrt(max(disc, 0.0)))
    # one Newton step on S R^2 - S R + qr sharpens R near the midpoint
    dphi = S * (2.0 * R - 1.0)
    if abs(dphi) > 1e-30:
        R = R - (qr - R * S + R * R * S) / dphi
    R = float(min(max(R, 0.0), 0.5))

    t = R * (f + g)
    f1 = f - t
    g1 = g - t

    c1 = H.coeffs(f1)
    c2 = H.coeffs(g1)
    resid = abs(complex(np.vdot(c2, H.gram @ c1)))
    bound = np.sqrt(max(_quad(H.gram, c1), 0.0)) * np.sqrt(max(_quad(H.gram, c2), 0.0))
    if resid > 1e-10 * bound + 1e-30:
        raise CertificateError(f"orthogonality residual {resid:.3e} over {bound:.3e}")
    gap_after = np.abs(np.abs(f1) - np.abs(g1))
    gap_before = np.abs(np.abs(f) - np.abs(g))
    if np.any(gap_after > gap_before + 1e-12):
        raise CertificateError("modulus gap grew under reduction")
    drift = np.abs((f1 - g1) - (f - g))
    caps = 4.0 * np.spacing(
        np.maximum.reduce([np.abs(f1), np.abs(g1), np.abs(f), np.abs(g)]).real + 1e-300
    )
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
