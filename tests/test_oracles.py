"""The test oracles against their slower reference forms."""

import numpy as np
import pytest

from oracles import real_pair_sweep, row_norms


def _full_pair_sweep(basis, p, weights=None, step=1e-3, chunk=200000):
    # every ordered pair (i, j) of the coefficient-circle grid, the form
    # real_pair_sweep had before it used the (u, v) symmetry
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
        U = np.repeat(rows[start:stop], m, axis=0)
        V = np.tile(rows, (stop - start, 1))
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


@pytest.mark.parametrize("i", range(20))
def test_pair_sweep_matches_full_sweep_on_criterion_3_bases(i):
    # criterion 3's bases and norms, at a coarser step than its 1e-3
    basis = np.random.default_rng(1000 + i).standard_normal((2, 5))
    p = (1.0, 2.0, np.inf)[i % 3]
    assert real_pair_sweep(basis, p, step=1e-2) == _full_pair_sweep(basis, p, step=1e-2)
