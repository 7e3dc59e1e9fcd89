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
    # the true norm: with the largest modulus factored out, no power of a
    # tiny or huge entry underflows or overflows
    s = float(np.max(a))
    if s == 0.0:
        return 0.0
    return s * float(np.sum(w * (a / s) ** p) ** (1.0 / p))


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
    """min over |lambda| = 1 of the weighted 2-norm of f - lambda g.

    The minimum is sqrt(||f||^2 + ||g||^2 - 2 |<f, g>|), taken here without
    cancellation, so it stays accurate to rounding near colinear pairs:
    the radicand is (||f|| - ||g||)^2 + 2 (||f|| ||g|| - |<f, g>|), and
    by Lagrange's identity ||f||^2 ||g||^2 - |<f, g>|^2 is
    1/2 sum_ij |a_i b_j - a_j b_i|^2 with a = sqrt(w) f and b = sqrt(w) g,
    a sum of nonnegative terms.  The n x n sum suits short vectors.
    """
    w = np.ones(np.shape(f)[0]) if weights is None else np.asarray(weights, dtype=float)
    a = np.sqrt(w) * np.asarray(f, dtype=complex)
    b = np.sqrt(w) * np.asarray(g, dtype=complex)
    na = float(np.sqrt(np.sum(np.abs(a) ** 2)))
    nb = float(np.sqrt(np.sum(np.abs(b) ** 2)))
    ip = float(abs(np.sum(a * np.conj(b))))
    lagrange = 0.5 * float(np.sum(np.abs(np.outer(a, b) - np.outer(b, a)) ** 2))
    cross = lagrange / (na * nb + ip) if na * nb + ip > 0.0 else 0.0
    return float(np.sqrt((na - nb) ** 2 + 2.0 * cross))


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


def serial_pattern_search(objective, x0, da, max_sweeps, project, delta0=0.35,
                          delta_min=1e-12, plateau=None):
    """One restart of the coordinate pattern search, run on its own.

    The reference for the lockstep search: it is the one-restart loop the
    library ran before its restarts were batched.  ``project`` returns the
    projected rows.  Returns (x, value, sweeps).
    """
    x = project(x0[None, :], da)[0]
    fx = float(objective(x[None, :])[0])
    if np.isnan(fx):
        fx = np.inf
    dim = x.shape[0]
    delta = delta0
    sweeps = 0
    eye = np.eye(dim)
    while sweeps < max_sweeps and delta > delta_min:
        sweeps += 1
        cands = project(np.vstack([x + delta * eye, x - delta * eye]), da)
        vals = objective(cands)
        best = int(np.nanargmin(vals)) if not np.all(np.isnan(vals)) else -1
        if best >= 0 and vals[best] < fx - 1e-15:
            x = cands[best]
            fx = float(vals[best])
            if not np.isfinite(fx):
                break
        else:
            delta *= 0.5
        if plateau is not None and delta < plateau(fx):
            break
    return x, fx, sweeps


def grid_separations(U, V, of_rows, grid, refine=None):
    """Least of_rows(u - lambda v) of each row pair over the scalars ``grid``.

    With ``refine`` (one row of scalars per grid index) the least value
    over the row of each pair's grid argmin is taken too.  This is the
    searches' coarse separation run on every row, with no row skipped
    and no closed form; ``of_rows`` is the lattice norm's row-wise norm.
    """
    n = U.shape[1]
    vals = of_rows((U[:, None, :] - grid[None, :, None] * V[:, None, :]).reshape(-1, n))
    vals = vals.reshape(U.shape[0], grid.shape[0])
    if refine is None:
        return vals.min(axis=1)
    lam = refine[vals.argmin(axis=1)]
    near = of_rows((U[:, None, :] - lam[:, :, None] * V[:, None, :]).reshape(-1, n))
    return np.minimum(vals.min(axis=1), near.reshape(lam.shape).min(axis=1))


def full_grid_objectives(pairs, of_rows, sep, m, rho):
    """The perp and feasibility objectives of the searches, scoring the
    separation ``sep(U, V)`` of every candidate row.

    ``pairs(X)`` returns the normalized row pairs (U, V) and the mask of
    parameter rows they came from.  Returns (perp objective with target m
    and penalty weight rho, feasibility objective with target m).
    """
    def perp(X):
        U, V, ok = pairs(X)
        out = np.full(X.shape[0], np.nan)
        viol = np.maximum(m - sep(U, V), 0.0)
        out[ok] = of_rows(np.sqrt(np.abs((U * np.conj(V)).real))) + rho * viol * viol
        return out

    def feasibility(X):
        U, V, ok = pairs(X)
        out = np.full(X.shape[0], np.nan)
        out[ok] = np.maximum(m - sep(U, V), 0.0)
        return out

    return perp, feasibility


def scalar_euclidean_phase(f, g, weights=None):
    """The phase of <f, g> = sum_i w_i f_i conj(g_i) for one pair, 1 when it
    vanishes, in Python complex arithmetic.

    The one-pair loop that the batched phase of the closed form replaced,
    kept as its bitwise reference: a sum that overflowed or may have lost
    products to underflow is recomputed on f and g each scaled by the power
    of two that puts its largest real or imaginary part in [1/2, 1).
    """
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    w = 1.0 if weights is None else np.asarray(weights, dtype=float)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        ip = complex(np.sum(w * f * np.conj(g)))
    if not 1e-250 < abs(ip) < np.inf:
        def unit(x):
            e = int(np.frexp(max(np.max(np.abs(x.real)), np.max(np.abs(x.imag))))[1])
            out = np.empty_like(x)
            out.real, out.imag = np.ldexp(x.real, -e), np.ldexp(x.imag, -e)
            return out
        f, g = unit(f), unit(g)
        ip = complex(np.sum(w * f * np.conj(g)))
    mag = abs(ip)
    return ip / mag if mag > 0 else 1.0 + 0.0j
