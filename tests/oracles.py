"""Independent reference computations used to freeze expected values.

Everything here is deliberately written against raw numpy, not against
the library's own primitives, so tests compare two separate derivations
of the same quantity.
"""

import numpy as np


def weighted_norm(x, p, weights=None):
    a = np.abs(np.asarray(x))
    if weights is not None:
        w = np.asarray(weights, dtype=float)
    else:
        w = np.ones(a.shape[-1])
    if np.isinf(p):
        return float(np.max(w * a))
    return float(np.sum(w * a ** p) ** (1.0 / p))


def row_norms(X, p, weights=None):
    a = np.abs(np.asarray(X))
    w = np.ones(a.shape[1]) if weights is None else np.asarray(weights, dtype=float)
    if np.isinf(p):
        return np.max(w[None, :] * a, axis=1)
    return np.sum(w[None, :] * a ** p, axis=1) ** (1.0 / p)


def _golden_refine(fn, a, b, iters=80):
    # golden-section descent on a bracket; every evaluation is an upper
    # bound for the true minimum, so a failed refinement only loosens
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - phi * (b - a)
    d = a + phi * (b - a)
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


def grid_distance(f, g, p, weights=None, n=100000):
    """Dense unimodular grid minimum of ||f - lambda g||.

    The bare grid is only Lipschitz-accurate at kink minima of the sup
    norm, so the few best brackets are refined by golden section.
    """
    f = np.asarray(f)
    g = np.asarray(g)
    theta = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    lam = np.exp(1j * theta)
    vals = row_norms(f[None, :] - lam[:, None] * g[None, :], p, weights)
    best = float(np.min(vals))

    def fn(t):
        return float(row_norms((f - np.exp(1j * t) * g)[None, :], p, weights)[0])

    step = 2.0 * np.pi / n
    local = np.flatnonzero((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))
    for k in local[np.argsort(vals[local])][:6]:
        best = min(best, _golden_refine(fn, theta[k] - step, theta[k] + step))
    return best


def closed_form_l2_distance(f, g, weights=None):
    """min over |lambda| = 1 of the weighted 2-norm of f - lambda g."""
    f = np.asarray(f, dtype=complex)
    g = np.asarray(g, dtype=complex)
    w = np.ones(f.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    nf2 = float(np.sum(w * np.abs(f) ** 2))
    ng2 = float(np.sum(w * np.abs(g) ** 2))
    ip = np.sum(w * f * np.conj(g))
    return float(np.sqrt(max(nf2 + ng2 - 2.0 * abs(ip), 0.0)))


def real_pair_sweep(basis, p, weights=None, step=1e-3, chunk=200000):
    """Sweep all coefficient-circle pairs of a 2-dim real subspace.

    Parameterizes u = cos(s) b0 + sin(s) b1 and likewise v over angle
    grids of the given step, normalizes both in the lattice norm, and
    returns (min disjointness, max finite SPR ratio) over all pairs.
    Pairs whose modulus gap vanishes are excluded from the ratio (they
    are the degenerate diagonal v = +-u).  Every reduced quantity is
    exactly symmetric in (u, v), so each block of rows i is paired only
    with the rows j >= its first row.
    """
    basis = np.asarray(basis, dtype=float)
    s = np.arange(0.0, np.pi, step)
    rows = np.cos(s)[:, None] * basis[0][None, :] + np.sin(s)[:, None] * basis[1][None, :]
    nr = row_norms(rows, p, weights)
    rows = rows / nr[:, None]
    m = rows.shape[0]

    best_dis = np.inf
    best_ratio = 0.0
    for start in range(0, m, max(1, chunk // m)):
        stop = min(start + max(1, chunk // m), m)
        U = np.repeat(rows[start:stop], m - start, axis=0)
        V = np.tile(rows[start:], (stop - start, 1))
        au = np.abs(U)
        av = np.abs(V)
        dis = row_norms(np.minimum(au, av), p, weights)
        best_dis = min(best_dis, float(np.min(dis)))
        num = np.minimum(row_norms(U - V, p, weights), row_norms(U + V, p, weights))
        den = row_norms(au - av, p, weights)
        live = den > 1e-12
        if np.any(live):
            best_ratio = max(best_ratio, float(np.max(num[live] / den[live])))
    return best_dis, best_ratio
