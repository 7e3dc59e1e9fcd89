"""Independent numpy reference computations for the benchmark's output checks.

Nothing here calls phaselat: every quantity a check compares against is
derived again from the raw vectors, so a check compares two separate
computations of the same number.
"""

import math

import numpy as np

# the distortion above which the library declares a fit failed
FIT_DISTORTION_LIMIT = math.sqrt(2.0) + 0.05
GRID = 4096
# rows per chunk of a grid evaluation, so an n = 2048 pair stays near 8 MiB
_CHUNK_ELEMS = 1 << 19


def row_norms(X, p, weights=None):
    """Weighted p-norms of the rows of X, the lattice norm's definition."""
    a = np.abs(np.asarray(X))
    if np.isinf(p):
        return np.max(a if weights is None else a * weights, axis=-1)
    ap = a * a if p == 2.0 else a ** p
    if weights is not None:
        ap = ap * weights
    return np.sum(ap, axis=-1) ** (1.0 / p)


def norm(x, p, weights=None):
    return float(row_norms(np.asarray(x)[None, :], p, weights)[0])


def perp(u, v, p, weights=None):
    return norm(np.sqrt(np.abs((u * np.conj(v)).real)), p, weights)


def grid_distances(f, g, p, weights=None, count=GRID):
    """norm(f - lambda g) on `count` equally spaced unimodular lambda."""
    theta = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    step = max(1, _CHUNK_ELEMS // max(f.shape[0], 1))
    vals = np.empty(count)
    for lo in range(0, count, step):
        lam = np.exp(1j * theta[lo:lo + step])
        vals[lo:lo + step] = row_norms(f[None, :] - lam[:, None] * g[None, :], p, weights)
    return theta, vals


def grid_min(f, g, p, field="complex", weights=None):
    """Minimum of the 4096-point unimodular grid; both signs for real pairs."""
    if field == "real":
        return min(norm(f - g, p, weights), norm(f + g, p, weights))
    return float(grid_distances(f, g, p, weights)[1].min())


def _golden(fn, a, b, iters=60):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - phi * (b - a), a + phi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = fn(d)
    return min(fc, fd)


def phase_distance(f, g, p, weights=None, field="complex"):
    """min over unimodular lambda of norm(f - lambda g), from above.

    Real pairs compare the two signs exactly; complex pairs refine the
    best grid brackets by golden section, so the result is an achieved
    value and never below the true minimum.
    """
    if field == "real":
        return min(norm(f - g, p, weights), norm(f + g, p, weights))
    theta, vals = grid_distances(f, g, p, weights, 1024)
    best = float(vals.min())
    step = theta[1]
    local = np.flatnonzero((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))

    def fn(t):
        return norm(f - np.exp(1j * t) * g, p, weights)

    for k in local[np.argsort(vals[local])][:4]:
        best = min(best, _golden(fn, theta[k] - step, theta[k] + step))
    return best


def closed_form_l2(f, g, weights=None):
    w = 1.0 if weights is None else weights
    nf2 = float(np.sum(w * np.abs(f) ** 2))
    ng2 = float(np.sum(w * np.abs(g) ** 2))
    ip = complex(np.sum(w * f * np.conj(g)))
    return math.sqrt(max(nf2 + ng2 - 2.0 * abs(ip), 0.0))


def _sphere_sample(field, count=4096, seed=20251017):
    # fixed coefficient-sphere sample plus a regular grid, independent of
    # the samplers inside the library
    rng = np.random.default_rng(seed)
    if field == "complex":
        z = rng.standard_normal((count, 4))
        z /= np.linalg.norm(z, axis=1)[:, None]
        rows = z[:, :2] + 1j * z[:, 2:]
        s, phi = np.meshgrid(np.linspace(0.0, np.pi / 2, 41),
                             np.linspace(0.0, 2 * np.pi, 80, endpoint=False),
                             indexing="ij")
        grid = np.stack([np.cos(s).ravel().astype(complex),
                         np.sin(s).ravel() * np.exp(1j * phi.ravel())], axis=1)
        return np.vstack([rows, grid])
    t = np.linspace(0.0, np.pi, count, endpoint=False)
    return np.stack([np.cos(t), np.sin(t)], axis=1)


_SPHERES = {}


def hilbert_distortion(f, g, gram, p, field, weights=None):
    """max / min of ||c||_H / ||c0 f + c1 g|| over the fixed sphere sample."""
    if field not in _SPHERES:
        _SPHERES[field] = _sphere_sample(field)
    C = _SPHERES[field]
    h = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", np.conj(C), gram, C).real, 0.0))
    lat = row_norms(C @ np.stack([f, g]), p, weights)
    r = h / lat
    return float(r.max() / r.min())


def coeffs(f, g, x):
    """Least-squares coefficients of x in the basis (f, g)."""
    c, *_ = np.linalg.lstsq(np.stack([f, g], axis=1), x, rcond=None)
    return c
