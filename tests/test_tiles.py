"""The tile policy of the batched evaluations (lattice.row_tiles).

The phase-distance screen, the phase kernel (phase_metric.phase_norms,
which serves the distance zoom and the searches' separation grid) and the
Hilbert fit's lattice norms split their batches into tiles of at most
256 KiB.  Tiling must not change a bit of any result, and no array handed
to a norm reduction from those three sites may be larger than one tile.
"""

import sys

import numpy as np
import pytest

import phaselat.hilbert as H
import phaselat.lattice as L
import phaselat.phase_metric as PM
from phaselat import (Ambient, NormSpec, SearchBudget, Subspace, estimate_spr_constant,
                      fit_hilbert_norm, search_perp_pair, unimodular_distance)
from phaselat.phase_metric import _grid_values

from conftest import random_vec, unit_modulus_pair

TILE = 1 << 18
ONE_BLOCK = 1 << 62


def _norm(rng, p, weighted, n):
    return NormSpec(p, weights=rng.uniform(0.5, 2.0, n) if weighted else None)


def test_row_tiles_cover_the_rows_in_bounded_runs():
    for count in (0, 1, 2, 3, 7, 512, 513, 8320):
        for row_bytes in (1, 16, 1000, TILE // 3, TILE, 5 * TILE):
            for least in (1, 2):
                tiles = L.row_tiles(count, row_bytes, least)
                sizes = [s.stop - s.start for s in tiles]
                assert [s.start for s in tiles] == [0] + np.cumsum(sizes)[:-1].tolist()
                assert sum(sizes) == count
                assert max(sizes) - min(sizes) <= 1
                if count >= least:
                    assert min(sizes) >= least
                if row_bytes * least <= TILE:
                    assert max(sizes) * row_bytes <= TILE


def _results(rng_seed, n, p, weighted):
    # every tiled site on one seeded input set, as bytes
    rng = np.random.default_rng(rng_seed)
    norm = _norm(rng, p, weighted, n)
    out = []
    f, g = random_vec(rng, n, "complex"), random_vec(rng, n, "complex")
    out.append(_grid_values(f, g, norm))
    d = unimodular_distance(f, g, norm)
    out.append(np.array([d.distance, d.lambda_star.real, d.lambda_star.imag]))
    for field in ("real", "complex"):
        U = np.stack([random_vec(rng, n, field) for _ in range(37)])
        V = np.stack([random_vec(rng, n, field) for _ in range(37)])
        for refine in (False, True):
            out.append(PM.row_separations(U, V, norm, field=field, refine=refine))
        # at n = 2048 an odd prefix of the fit grid keeps the one block small
        rows = H._FIT_GRID[field][1]
        rows = rows if n <= 64 else rows[:301]
        basis = np.stack([random_vec(rng, n, field) for _ in range(2)], axis=1)
        out.append(H._lattice_norms(rows, basis, norm))
    return [x.tobytes() for x in out]


@pytest.mark.parametrize("n", [2, 7, 64, 2048])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("weighted", [False, True])
def test_tiles_keep_every_bit(monkeypatch, n, p, weighted):
    # one row per tile (the two BLAS products floor at two rows), and tiles
    # of a few rows, against one block for the whole batch
    seed = 1800 + n
    monkeypatch.setattr(L, "_TILE_BYTES", ONE_BLOCK)
    ref = _results(seed, n, p, weighted)
    for tile in (1, 4096 + 24, 65536 + 8):
        monkeypatch.setattr(L, "_TILE_BYTES", tile)
        assert _results(seed, n, p, weighted) == ref, tile


def _kernel_switch_results(n, seed):
    # screens, distances, fit-grid lattice norms and p = 3 fits on one pair
    rng = np.random.default_rng(seed)
    f, g = random_vec(rng, n, "complex"), random_vec(rng, n, "complex")
    w = rng.uniform(0.5, 2.0, n)
    close, exact = [], []
    for p in (1.0, 2.0, 3.0, np.inf):
        for weights in (None, w):
            norm = NormSpec(p, weights=weights)
            close.append(_grid_values(f, g, norm))
            d = unimodular_distance(f, g, norm)
            exact.append(np.array([d.distance, d.lambda_star.real, d.lambda_star.imag]))
    for field in ("real", "complex"):
        basis = np.stack([random_vec(rng, n, field) for _ in range(2)], axis=1)
        close.append(H._lattice_norms(H._FIT_GRID[field][1], basis, NormSpec(3.0)))
    fr, gr = random_vec(rng, n, "real"), random_vec(rng, n, "real")
    exact.append(np.array([fit_hilbert_norm(f, g, NormSpec(3.0), field="complex").distortion_K,
                           fit_hilbert_norm(fr, gr, NormSpec(3.0), field="real").distortion_K]))
    return close, exact


@pytest.mark.parametrize("n, seed", [(1092, 1), (1500, 2)])
def test_tiles_near_the_blas_kernel_switch(monkeypatch, n, seed):
    # at these n one block takes OpenBLAS's general kernel and a tile its
    # small-matrix kernel, which round the last n mod 8 columns of a K = 2
    # product differently; on these seeds some screen values and real
    # lattice norms move by an ulp, while every distance and fitted K keeps
    # its bits
    close, exact = _kernel_switch_results(n, seed)
    monkeypatch.setattr(L, "_TILE_BYTES", ONE_BLOCK)
    close_ref, exact_ref = _kernel_switch_results(n, seed)
    for got, ref in zip(close, close_ref):
        np.testing.assert_array_max_ulp(got, ref, maxulp=2)
    assert [x.tobytes() for x in exact] == [x.tobytes() for x in exact_ref]


def _record_sizes(monkeypatch):
    # nbytes of every array reaching of_squared_rows, and of every of_rows
    # argument passed from the phase kernel or the fit grid, by site; an
    # of_rows call made by the distance solver itself counts as the kernel's
    sizes = {}
    sites = {"phase_norms": "phase kernel", "_grid_distance": "phase kernel",
             "_zoom": "phase kernel", "_lattice_norms": "fit grid"}
    of_rows, of_squared_rows = NormSpec.of_rows, NormSpec.of_squared_rows

    def rows(self, X):
        site = sites.get(sys._getframe(1).f_code.co_name)
        if site is not None:
            sizes.setdefault(site, []).append(np.asarray(X).nbytes)
        return of_rows(self, X)

    def squared(self, Q):
        sizes.setdefault("screen", []).append(Q.nbytes)
        return of_squared_rows(self, Q)

    monkeypatch.setattr(NormSpec, "of_rows", rows)
    monkeypatch.setattr(NormSpec, "of_squared_rows", squared)
    return sizes


def test_no_batch_exceeds_one_tile(monkeypatch):
    sizes = _record_sizes(monkeypatch)
    rng = np.random.default_rng(1818)
    f, g = random_vec(rng, 2048, "complex"), random_vec(rng, 2048, "complex")
    E = Subspace(Ambient(8, "complex", NormSpec(3.0)),
                 np.stack([random_vec(rng, 8, "complex") for _ in range(3)]))

    def distances():
        # the distance screen at n = 2048
        for p in (1.0, 2.0, 3.0, np.inf):
            unimodular_distance(f, g, NormSpec(p))

    def many_brackets():
        # the zoom of a pair with many grid minima at n = 2048: untiled, one
        # round's brackets would hold 16 MiB of differences at p = inf
        for p in (1.0, np.inf):
            unimodular_distance(*unit_modulus_pair(2048), NormSpec(p))

    def searches():
        # the searches' separation grid on a complex k = 3 subspace of C^8
        estimate_spr_constant(E, SearchBudget(12, 40), seed=3)
        search_perp_pair(E, 0.1, SearchBudget(12, 40), seed=3)

    def long_rows():
        # on a complex p = 3 span at n = 2048 one row's 48 grid angles are
        # 1.5 MiB and its 17 refinement angles 0.5 MiB: both come in tiles.
        # At m = 1 the perp search refines the separation of some rows
        E = Subspace(Ambient(2048, "complex", NormSpec(3.0)), np.stack([f, g]))
        estimate_spr_constant(E, SearchBudget(1, 2, 1), seed=3)
        search_perp_pair(E, 1.0, SearchBudget(1, 2, 1), seed=3)

    def fit():
        # the lattice norms of a complex p = 3 fit at n = 2048
        fit_hilbert_norm(f, g, NormSpec(3.0), field="complex")

    # each run must reach the site it exercises, so no leg passes unchecked
    for run, site in ((distances, "screen"), (many_brackets, "phase kernel"),
                      (searches, "phase kernel"), (long_rows, "phase kernel"),
                      (fit, "fit grid")):
        sizes.clear()
        run()
        assert sizes.get(site), (run.__name__, site)
        for where, seen in sizes.items():
            assert max(seen) <= TILE, (run.__name__, where, max(seen))
