"""Hilbert norm fitting, alignment, and orthogonal reduction."""

import decimal
import hashlib

import numpy as np
import pytest

from phaselat import (
    DependentVectorsError,
    FitDistortionError,
    InputError,
    NormSpec,
    PhaseLatError,
    PreconditionError,
    SpanError,
    align_pair,
    fit_hilbert_norm,
    nonneg_rotation,
    orthogonal_reduce,
    reduce_pair,
    unimodular_distance,
)
from phaselat import hilbert
from phaselat.lattice import ldexp
from phaselat.hilbert import _ratio_fn
from conftest import random_vec

SQRT2 = np.sqrt(2.0)


def _sphere_samples(rng, H, count=10000):
    c = rng.standard_normal((count, 2))
    if H.field == "complex":
        c = c + 1j * rng.standard_normal((count, 2))
    f, g = H.basis
    return c[:, 0, None] * f[None, :] + c[:, 1, None] * g[None, :]


def test_euclidean_norm_fits_itself(rng):
    norm = NormSpec(2.0)
    f = random_vec(rng, 4, "complex")
    g = random_vec(rng, 4, "complex")
    H = fit_hilbert_norm(f, g, norm)
    assert H.distortion_K <= 1.0 + 1e-6
    assert complex(H.inner(f, g)) == pytest.approx(
        complex(np.sum(f * np.conj(g))), abs=1e-6)
    for x in (f, g, 0.3 * f - 1.7j * g):
        assert H.norm_h(x) == pytest.approx(norm(x), rel=1e-6)


def test_disjoint_sup_norm_pair_needs_sqrt2():
    norm = NormSpec(np.inf)
    f = np.array([1.0, 0.0], dtype=complex)
    g = np.array([0.0, 1.0], dtype=complex)
    H = fit_hilbert_norm(f, g, norm)
    assert H.distortion_K == pytest.approx(SQRT2, abs=1e-12)


def test_fit_stays_under_guarantee(rng):
    # a 2-dimensional span always admits distortion at most sqrt(2)
    norm = NormSpec(3.0)
    f = random_vec(rng, 6, "complex")
    g = random_vec(rng, 6, "complex")
    H = fit_hilbert_norm(f, g, norm)
    assert 1.0 <= H.distortion_K <= SQRT2 + 0.05


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_fitted_norm_sandwich(rng, field, p):
    norm = NormSpec(p)
    f = random_vec(rng, 5, field)
    g = random_vec(rng, 5, field)
    H = fit_hilbert_norm(f, g, norm, field=field)
    X = _sphere_samples(rng, H)
    for x in X[np.linalg.norm(X, axis=1) > 1e-8]:
        r = H.norm_h(x) / norm(x)
        assert 1.0 - 1e-9 <= r <= H.distortion_K + 1e-9


@pytest.mark.parametrize("field", ["real", "complex"])
def test_weighted_two_norm_fit_is_exact(rng, field):
    w = rng.uniform(0.5, 2.0, 6)
    norm = NormSpec(2.0, weights=w)
    f = random_vec(rng, 6, field)
    g = random_vec(rng, 6, field)
    H = fit_hilbert_norm(f, g, norm, field=field)
    B = np.stack([f, g], axis=1)
    np.testing.assert_allclose(H.gram, np.conj(B.T) @ np.diag(w) @ B,
                               rtol=0, atol=1e-13 * np.max(np.abs(H.gram)))
    assert H.distortion_K == 1.0
    for x in _sphere_samples(rng, H, count=200):
        assert H.norm_h(x) == pytest.approx(norm(x), rel=1e-12)


def _local_grid(fn, c, radius):
    # fn on a 41 x 41 grid of the chart around the unit row c
    t = np.linspace(-radius, radius, 41)
    z = (t[:, None] + 1j * t[None, :]).ravel()
    return fn(c[None, :] + z[:, None] * np.array([-np.conj(c[1]), np.conj(c[0])]))


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_polish_complex_reaches_local_minima(rng, p):
    # every polished start is no worse than its start, and no point of a
    # fine local grid around its result is lower by more than 1e-13
    basis = np.stack([random_vec(rng, 5, "complex") for _ in range(2)], axis=1)
    A = random_vec(rng, 4, "complex").reshape(2, 2)
    fn = _ratio_fn(basis, NormSpec(p), np.conj(A.T) @ A + 0.5 * np.eye(2))
    C0 = random_vec(rng, 24, "complex").reshape(12, 2)
    for sign in (1.0, -1.0):
        C, F, iters = hilbert._polish_complex(fn, sign, C0, 5e-3)
        assert np.all(F <= sign * fn(C0)) and iters.max() < 100
        np.testing.assert_allclose(sign * fn(C), F, rtol=0, atol=1e-15)
        for c, f in zip(C, F):
            for radius in (1e-3, 1e-6):
                assert np.min(sign * _local_grid(fn, c, radius)) >= f - 1e-13


def test_polish_complex_stops_before_its_cap():
    # starts at the poles of the sphere's (s, phi) parameters, at the cone
    # tips of a p = 1 norm on an exactly disjoint pair (its ratio peaks
    # there), next to them, and at smooth optima found by a first polish
    # all stop on their value rule, not on the iteration cap
    f = np.array([1.0, 2.0j, 0.0, 0.0, 0.0])
    g = np.array([0.0, 0.0, 1.0, -1.0, 0.5j])
    norm = NormSpec(1.0)
    H = fit_hilbert_norm(f, g, norm)
    fn = _ratio_fn(np.stack([f, g], axis=1), norm, H.gram)
    C0 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1e-3j], [1e-3, 1.0], [0.6, 0.8j]])
    for sign in (1.0, -1.0):
        C, F, iters = hilbert._polish_complex(fn, sign, C0, 5e-3)
        assert iters.max() < 100
        C2, F2, iters = hilbert._polish_complex(fn, sign, C, 5e-3)
        assert iters.max() < 100 and np.all(F2 <= F)
        if sign > 0:
            # the minimum ratio 1 is attained on a whole circle
            np.testing.assert_allclose(F2, 1.0, rtol=0, atol=1e-12)
        else:
            # the maximum K on the tips, where one part of the pair vanishes
            np.testing.assert_allclose(-F2, H.distortion_K, rtol=0, atol=1e-9)
            assert np.max(np.min(np.abs(C2), axis=1)) <= 1e-9


def _assert_mvee_certificate(C, Q, u):
    # KKT certificate of the minimum-volume ellipsoid: every row enclosed,
    # design weights on the simplex, support rows on the boundary, and
    # Q = M(u)^-1 / 2 with M(u) = sum_i u_i c_i c_i^H
    vals = hilbert._quad_rows(Q, C)
    assert vals.max() <= 1.0 + 1e-12
    assert u.min() >= 0.0 and abs(u.sum() - 1.0) <= 1e-12
    assert np.all(np.abs(vals[u > 0.0] - 1.0) <= 1e-9)
    M = (C.T * u) @ np.conj(C)
    np.testing.assert_allclose(np.linalg.inv(M) / 2.0, Q, rtol=0,
                               atol=1e-9 * np.max(np.abs(Q)))


@pytest.fixture(scope="module")
def mvee_calls():
    # every _mvee_centered input of a seeded fit panel over the six
    # (field, p) combinations that fit an ellipsoid
    calls = []
    solve = hilbert._mvee_centered

    def record(C):
        Q, u = solve(C)
        calls.append((np.array(C), Q, u))
        return Q, u

    rng = np.random.default_rng(88)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hilbert, "_mvee_centered", record)
        for field in ("real", "complex"):
            for p in (1.0, 3.0, np.inf):
                for n in (2, 4, 6):
                    f, g = random_vec(rng, n, field), random_vec(rng, n, field)
                    fit_hilbert_norm(f, g, NormSpec(p), field=field)
    return calls


def test_mvee_meets_kkt_certificate_on_fit_inputs(mvee_calls):
    assert {C.dtype.kind for C, _, _ in mvee_calls} == {"f", "c"}
    for C, Q, u in mvee_calls:
        _assert_mvee_certificate(C, Q, u)


def test_mvee_inputs_stay_small(mvee_calls):
    # m rows cost C(m, 2) + ... + C(m, 4) solves; the exchange passes at
    # most 9 rows and the refinement at most D + (D + 1)
    assert max(C.shape[0] for C, _, _ in mvee_calls) <= 12


# two clusters of projective near-duplicates (complex p = 3 and real
# p = 3 fits of the certify benchmark pool): the winning support's
# system is nearly singular, so no determinant cut-off or fixed KKT
# tolerance can decide which supports to trust
_NEAR_DUPLICATES = [
    np.array([
        [0.2901090397470902 + 0j, -0.19203278580948877 + 0.04857616994531259j],
        [0.20834520645040616 + 0j, 0.206813122860932 + 0.1786277643359179j],
        [0.29337443416460735 + 0j, -0.18855605478523899 + 0.05069111800374432j],
        [0.2095660940873314 + 0j, 0.20656620951702648 + 0.17753108011098234j],
        [0.2909640340692304 + 0j, -0.19081371056629756 + 0.048353226970389136j],
    ]),
    np.array([
        [-0.09592820227660173, 0.4654485911634038],
        [0.889907823232313, 0.2573286997307691],
        [-0.09557695574262884, 0.4655501660379376],
        [0.8898743291017173, 0.2574914481037184],
        [-0.09575260304840193, 0.465499383860285],
    ]),
]


@pytest.mark.parametrize("C", _NEAR_DUPLICATES, ids=["complex", "real"])
def test_mvee_near_duplicate_rows(C):
    _assert_mvee_certificate(C, *hilbert._mvee_centered(C))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_mvee_exact_duplicate_rows(field):
    # a support holding a row twice has a zero system, so the batch falls
    # back to the pseudo-inverse; the answer is still the unit disk
    C = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    C = C if field == "real" else C * np.exp(0.3j)
    Q, u = hilbert._mvee_centered(C)
    _assert_mvee_certificate(C, Q, u)
    np.testing.assert_allclose(Q, np.eye(2), atol=1e-12)


def test_align_pair_quarter_turn():
    # <u, v> = i/2 and ||v|| < ||u||: mu = i and <f, g> becomes real
    norm = NormSpec(2.0)
    u = np.array([1.0, 0.0, 0.0], dtype=complex)
    v = np.array([-0.5j, 0.5, 0.0])
    H = fit_hilbert_norm(u, v, norm)
    out = align_pair(u, v, H)
    assert out.mu == pytest.approx(1j, abs=1e-6)
    assert not out.swapped
    ip = complex(H.inner(out.f, out.g))
    assert abs(ip.imag) <= 1e-8
    assert ip.real >= -1e-8


def test_align_pair_swaps_longer_second_input(rng):
    norm = NormSpec(2.0)
    u = random_vec(rng, 4, "complex")
    v = random_vec(rng, 4, "complex")
    u = u / norm(u)
    v = 3.0 * v / norm(v)
    H = fit_hilbert_norm(u, v, norm)
    out = align_pair(u, v, H)
    assert out.swapped
    ip = complex(H.inner(out.f, out.g))
    assert ip.real >= -1e-8 and abs(ip.imag) <= 1e-8 * norm(v) ** 2


def test_reduce_frozen_example():
    norm = NormSpec(2.0)
    f = np.array([1.0, 0.0])
    g = np.array([0.6, 0.8])
    H = fit_hilbert_norm(f, g, norm, field="real")
    red = orthogonal_reduce(f, g, H)
    assert red.R == pytest.approx(0.25, abs=1e-9)
    np.testing.assert_allclose(red.f_prime, [0.6, -0.2], atol=1e-9)
    np.testing.assert_allclose(red.g_prime, [0.2, 0.6], atol=1e-9)


def _reduce_root_reference(f, g, H):
    # the library's floats q = <f, g>_H and S = ||f + g||_H^2, and the
    # smaller root of S R^2 - S R + q for them to 50 digits, with its disc
    cf, cg = H.coeffs(f), H.coeffs(g)
    q = complex(np.vdot(cg, H.gram @ cf)).real
    S = hilbert._quad(H.gram, cf + cg)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        disc = (decimal.Decimal(S) - 4 * decimal.Decimal(q)) / decimal.Decimal(S)
        return q, (1 - max(disc, 0).sqrt()) / 2, disc


def _reduce_root_pairs(field):
    # on forms fitted at p = inf: f = e, g = s e + e' for an H-orthonormal
    # pair (e, e'), with <f, g>_H / S about s / 2 from 1e-16 to 1e-2, and
    # f, g = e +- b e', with disc = b^2 from 1e-5 to 1e-2
    rng = np.random.default_rng([61, field == "complex"])
    for _ in range(4):
        H = fit_hilbert_norm(random_vec(rng, 5, field), random_vec(rng, 5, field),
                             NormSpec(np.inf), field=field)
        E = np.stack(H.basis, axis=1) @ np.linalg.inv(np.conj(np.linalg.cholesky(H.gram).T))
        e, e2 = E[:, 0], E[:, 1]
        for s in np.geomspace(2e-16, 2e-2, 30):
            yield H, e, s * e + e2
        for b in np.geomspace(3e-3, 1e-1, 12):
            yield H, e + b * e2, e - b * e2
    # on the Euclidean plane, f, g = (1, +-2^-k): q and S are exact and so
    # is the reduced pair, down to disc = 2^-52
    H = fit_hilbert_norm([1.0, 0.0], [0.0, 1.0], NormSpec(2.0), field=field)
    for k in range(1, 27):
        yield H, np.array([1.0, 2.0 ** -k]), np.array([1.0, -(2.0 ** -k)])


@pytest.mark.parametrize("field", ["real", "complex"])
def test_reduce_root_matches_a_50_digit_reference(field):
    # R within 4 ulp of the smaller root for the library's own q and S,
    # both for <f, g>_H tiny against S and near the double root 4q = S;
    # the orthogonality postcondition holds on every reduced pair
    checked = 0
    for H, f, g in _reduce_root_pairs(field):
        red = orthogonal_reduce(f, g, H)
        q, ref, disc = _reduce_root_reference(f, g, H)
        if q <= 0.0:
            assert red.R == 0.0
        elif disc >= decimal.Decimal("1e-8"):
            err = abs(decimal.Decimal(red.R) - ref)
            assert err <= 4 * decimal.Decimal(np.spacing(float(ref))), (q, disc, red.R)
            checked += 1
        resid = abs(complex(H.inner(red.f_prime, red.g_prime)))
        assert resid <= 1e-10 * H.norm_h(red.f_prime) * H.norm_h(red.g_prime)
    assert checked >= 150


def test_reduce_orthogonal_pair_is_identity():
    norm = NormSpec(2.0)
    f = np.array([1.0, 0.0], dtype=complex)
    g = np.array([0.0, 1.0], dtype=complex)
    H = fit_hilbert_norm(f, g, norm)
    red = orthogonal_reduce(f, g, H)
    assert red.R == 0.0
    np.testing.assert_array_equal(red.f_prime, f)
    np.testing.assert_array_equal(red.g_prime, g)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_reduction_chain_postconditions(rng, field, p):
    norm = NormSpec(p)
    for _ in range(8):
        f = random_vec(rng, 5, field)
        g = random_vec(rng, 5, field)
        H = fit_hilbert_norm(f, g, norm, field=field)
        K = H.distortion_K
        g_rot, mu = nonneg_rotation(f, g, H)
        red = orthogonal_reduce(f, g_rot, H, mu=mu)
        f1, g1 = red.f_prime, red.g_prime

        resid = abs(complex(H.inner(f1, g1)))
        assert resid <= 1e-10 * H.norm_h(f1) * H.norm_h(g1) + 1e-20
        gap_after = np.abs(np.abs(f1) - np.abs(g1))
        gap_before = np.abs(np.abs(f) - np.abs(g_rot))
        assert np.all(gap_after <= gap_before + 1e-12)
        drift = np.abs((f1 - g1) - (f - g_rot))
        scale = np.max(np.abs(np.stack([f, g_rot, f1, g1])))
        assert np.max(drift) <= 4.0 * np.spacing(scale)

        # the two quotient-distance inequalities of the reduction theorem
        sep_before = unimodular_distance(f, g, norm, field=field).distance
        sep_after = unimodular_distance(f1, g1, norm, field=field).distance
        assert sep_before <= K * sep_after + 1e-8
        assert np.hypot(norm(f1), norm(g1)) <= K * sep_after + 1e-8


def _assert_reduction_contract(H, f, g, red):
    # criterion 7's contract: distortion cap, H-orthogonality, no growth
    # of the modulus gap, and the bitwise construction f - R(f+g)
    f1, g1 = red.f_prime, red.g_prime
    assert H.distortion_K <= SQRT2 + 0.05
    assert abs(H.inner(f1, g1)) < 1e-10 * H.norm_h(f1) * H.norm_h(g1)
    assert np.all(np.abs(np.abs(f1) - np.abs(g1))
                  <= np.abs(np.abs(f) - np.abs(g)) + 1e-12)
    t = red.R * (f + g)
    assert np.array_equal(f1, f - t)
    assert np.array_equal(g1, g - t)
    drift = np.abs((f1 - g1) - (f - g))
    caps = 4.0 * np.spacing(
        np.maximum.reduce([np.abs(f1), np.abs(g1), np.abs(f), np.abs(g)]).real
        + 1e-300
    )
    assert np.all(drift <= caps)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_reduction_contract_on_every_field_and_p(rng, field, p):
    # criterion 7's stream only pairs complex with p in {2, inf} and real
    # with p in {1, 3}; this covers all 8 combinations, through both the
    # rotation chain of reduce_pair and the alignment chain
    norm = NormSpec(p)
    for _ in range(3):
        n = int(rng.integers(2, 7))
        f = random_vec(rng, n, field)
        g = random_vec(rng, n, field)
        H, red = reduce_pair(f, g, norm, field=field)
        _assert_reduction_contract(H, f, red.mu * g, red)
        al = align_pair(f, g, H)
        _assert_reduction_contract(
            H, al.f, al.g, orthogonal_reduce(al.f, al.g, H, mu=al.mu))


def test_nonneg_rotation_properties(rng):
    norm = NormSpec(2.0)
    f = random_vec(rng, 4, "complex")
    g = random_vec(rng, 4, "complex")
    H = fit_hilbert_norm(f, g, norm)
    g_rot, mu = nonneg_rotation(f, g, H)
    assert abs(abs(mu) - 1.0) <= 1e-12
    np.testing.assert_allclose(g_rot, mu * g, atol=0)
    ip = complex(H.inner(f, g_rot))
    assert ip.real >= -1e-10 and abs(ip.imag) <= 1e-10 * abs(ip.real + 1e-30)

    fr = random_vec(rng, 4, "real")
    gr = random_vec(rng, 4, "real")
    Hr = fit_hilbert_norm(fr, gr, norm, field="real")
    _, mur = nonneg_rotation(fr, gr, Hr)
    assert mur in (1.0, -1.0)


def test_fit_rejects_dependent_vectors(rng):
    f = random_vec(rng, 4, "complex")
    with pytest.raises(DependentVectorsError):
        fit_hilbert_norm(f, 2.0 * f, NormSpec(2.0))


@pytest.mark.parametrize("field", ["real", "complex"])
def test_fit_rejects_distortion_above_limit(rng, monkeypatch, field):
    # a badly shaped ellipsoid is measured and refused, not reported, on
    # both paths of the fit: at p = 3 the support refinement hands it back
    # and the final scans measure it; at p = inf and real p = 1 the
    # exchange is handed one that encloses the unit ball, stops at once,
    # and the closed-form minimum measures it
    f = random_vec(rng, 4, field)
    g = random_vec(rng, 4, field)
    with monkeypatch.context() as mp:
        mp.setattr(hilbert, "_refine_support",
                   lambda *args: (np.diag([1.0, 100.0]), 1.0))
        with pytest.raises(FitDistortionError):
            fit_hilbert_norm(f, g, NormSpec(3.0), field=field)

    # every solve hands the exchange the bad ellipsoid, which encloses the
    # sup-norm ball, so the loop stops at once by its tolerance and returns it
    bad = 1e-8 * np.diag([1.0, 1e-8])
    exchange, solve = hilbert._exchange, hilbert._mvee_centered
    returned = []

    def record(P, farthest):
        out = exchange(P, farthest)
        returned.append(out)
        return out

    monkeypatch.setattr(hilbert, "_mvee_centered", lambda C: (bad, solve(C)[1]))
    monkeypatch.setattr(hilbert, "_exchange", record)
    for p in (np.inf, 1.0) if field == "real" else (np.inf,):
        returned.clear()
        with pytest.raises(FitDistortionError):
            fit_hilbert_norm(f, g, NormSpec(p), field=field)
        assert len(returned) == 1 and returned[0][0] is bad and returned[0][3]


def _sup_norm_panel():
    # seeded pairs for the exact sup-norm fit, every other one weighted:
    # both fields, n from 2 to 12 and one n = 128 pair, plus exactly
    # disjoint supports, a zero coordinate, two parallel rows, and
    # near-disjoint pairs
    rng = np.random.default_rng(1212)
    panel = []
    for field in ("real", "complex"):
        pairs = [(random_vec(rng, n, field), random_vec(rng, n, field))
                 for n in list(range(2, 13)) + [128]]
        f, g = random_vec(rng, 6, field), random_vec(rng, 6, field)
        pairs.append((f * (np.arange(6) < 3), g * (np.arange(6) >= 3)))
        f, g = random_vec(rng, 5, field), random_vec(rng, 5, field)
        f[2] = g[2] = 0.0
        pairs.append((f, g))
        f, g = random_vec(rng, 6, field), random_vec(rng, 6, field)
        f[1], g[1] = 2.0 * f[0], 2.0 * g[0]
        f[4], g[4] = -1.5 * f[3], -1.5 * g[3]
        pairs.append((f, g))
        for eps in (1e-3, 1e-8):
            on = rng.random(7) < 0.5
            f, g = random_vec(rng, 7, field), random_vec(rng, 7, field)
            pairs.append((f * np.where(on, 1.0, eps), g * np.where(on, eps, 1.0)))
        for k, (f, g) in enumerate(pairs):
            w = rng.uniform(0.5, 2.0, len(f)) if k % 2 else None
            panel.append((field, f, g, NormSpec(np.inf, weights=w)))
    return panel


def test_sup_norm_fit_is_exact(monkeypatch):
    # every sup-norm fit converges by its tolerance, and its K is exact: no
    # ratio ||x||_H / ||x|| of a 200,000-row sample of the coefficient
    # sphere lies outside [1, K]
    stops = []
    exchange = hilbert._exchange

    def record(P, farthest):
        out = exchange(P, farthest)
        stops.append(out[3])
        return out

    monkeypatch.setattr(hilbert, "_exchange", record)
    rng = np.random.default_rng(2024)
    z = rng.standard_normal((200_000, 4))
    sample = {"real": z[:, :2], "complex": z[:, :2] + 1j * z[:, 2:]}
    panel = _sup_norm_panel()
    for field, f, g, norm in panel:
        H = fit_hilbert_norm(f, g, norm, field=field)
        B = np.stack([f, g], axis=1)
        for C in np.array_split(sample[field], 8):
            q = np.einsum("ij,jk,ik->i", np.conj(C), H.gram, C).real
            ratio = np.sqrt(q) / norm.of_rows(C @ B.T)
            assert ratio.min() >= 1.0 - 1e-12
            assert ratio.max() <= H.distortion_K + 1e-12
    assert len(stops) == len(panel) and all(stops)


def _polygon_panel():
    # seeded real p = 1 pairs, every other one weighted: n from 2 to 8 and
    # n in {64, 256, 2048}, plus exactly disjoint supports, a zero
    # coordinate, parallel rows and near-disjoint pairs
    rng = np.random.default_rng(1616)
    pairs = [(random_vec(rng, n, "real"), random_vec(rng, n, "real"))
             for n in [*range(2, 9), 64, 256, 2048]]
    f, g = random_vec(rng, 6, "real"), random_vec(rng, 6, "real")
    pairs.append((f * (np.arange(6) < 3), g * (np.arange(6) >= 3)))
    f, g = random_vec(rng, 5, "real"), random_vec(rng, 5, "real")
    f[2] = g[2] = 0.0
    pairs.append((f, g))
    f, g = random_vec(rng, 6, "real"), random_vec(rng, 6, "real")
    f[1], g[1] = 2.0 * f[0], 2.0 * g[0]
    f[4], g[4] = -1.5 * f[3], -1.5 * g[3]
    pairs.append((f, g))
    for n, eps in ((7, 1e-3), (7, 1e-8), (256, 1e-3)):
        on = np.arange(n) % 2 == 0
        f, g = random_vec(rng, n, "real"), random_vec(rng, n, "real")
        pairs.append((f * np.where(on, 1.0, eps), g * np.where(on, eps, 1.0)))
    for k, (f, g) in enumerate(pairs):
        w = rng.uniform(0.5, 2.0, len(f)) if k % 2 else None
        yield f, g, NormSpec(1.0, weights=w)


def test_real_l1_fit_is_exact(monkeypatch):
    # every real p = 1 fit converges by its tolerance on the unit ball's
    # polygon and never scans: no ratio ||x||_H / ||x|| on a dense circle
    # of coefficient rows (200,000 angles, 20,000 at n >= 64) lies outside
    # [1, K], K is attained at a vertex of the polygon, and K <= sqrt(2)
    stops = []
    exchange = hilbert._exchange

    def record(P, farthest):
        out = exchange(P, farthest)
        stops.append(out[3])
        return out

    def refuse(*args):
        raise AssertionError("a real p = 1 fit scanned the grid")

    monkeypatch.setattr(hilbert, "_exchange", record)
    for name in ("_refine_support", "_scan_real", "_circle_polish"):
        monkeypatch.setattr(hilbert, name, refuse)
    count = 0
    for f, g, norm in _polygon_panel():
        H = fit_hilbert_norm(f, g, norm, field="real")
        B = np.stack([f, g], axis=1)
        t = np.linspace(0.0, np.pi, 200_000 if len(f) < 64 else 20_000, endpoint=False)
        ratios = []
        for C in np.array_split(np.stack([np.cos(t), np.sin(t)], axis=1), 40):
            ratios.append(np.sqrt(hilbert._quad_rows(H.gram, C)) / norm.of_rows(C @ B.T))
        ratios = np.concatenate(ratios)
        assert ratios.min() >= 1.0 - 1e-12
        assert ratios.max() <= H.distortion_K + 1e-12
        V = np.stack([B[:, 1], -B[:, 0]], axis=1)
        V = V[np.any(V != 0.0, axis=1)]
        top = np.max(np.sqrt(hilbert._quad_rows(H.gram, V)) / norm.of_rows(V @ B.T))
        assert top == pytest.approx(H.distortion_K, rel=1e-12)
        assert H.distortion_K <= SQRT2 + 1e-9
        count += 1
    assert len(stops) == count and all(stops)


def _complex_sandwich_panel():
    # seeded complex p in {1, 3} pairs, n from 2 to 7, in four kinds: two
    # disjoint supports bridged by one shared coordinate, weighted,
    # exactly disjoint, and plain random pairs
    rng = np.random.default_rng(1414)
    for p in (1.0, 3.0):
        for k in range(24):
            kind, n = k % 4, 2 + k % 6
            f, g = random_vec(rng, n, "complex"), random_vec(rng, n, "complex")
            w = None
            if kind == 0:
                m = int(rng.integers(1, max(2, n - 1)))
                f[m:-1] = 0.0
                g[:m] = 0.0
                f[-1], g[-1] = rng.uniform(0.01, 0.3) * np.exp(2j * np.pi * rng.random(2))
            elif kind == 1:
                w = rng.uniform(0.5, 2.0, n)
            elif kind == 2:
                m = int(rng.integers(1, n))
                f[m:] = 0.0
                g[:m] = 0.0
            yield f, g, NormSpec(p, weights=w)


def test_complex_fit_sandwich():
    # no ratio ||x||_H / ||x|| of a 200,000-row sample of the coefficient
    # sphere lies outside [1 - 1e-12, K + 1e-12]: the polished scans find
    # both extrema of every form, also on the flat contact circles of
    # disjoint pairs and of n = 2
    rng = np.random.default_rng(2024)
    z = rng.standard_normal((200_000, 4))
    sample = z[:, :2] + 1j * z[:, 2:]
    for f, g, norm in _complex_sandwich_panel():
        H = fit_hilbert_norm(f, g, norm)
        B = np.stack([f, g], axis=1)
        for C in np.array_split(sample, 8):
            q = np.einsum("ij,jk,ik->i", np.conj(C), H.gram, C).real
            ratio = np.sqrt(q) / norm.of_rows(C @ B.T)
            assert ratio.min() >= 1.0 - 1e-12
            assert ratio.max() <= H.distortion_K + 1e-12


def _frozen_fit_panel():
    # seeded p in {1, 3} fits: both fields, n from 2 to 6, odd n weighted
    rng = np.random.default_rng(1313)
    for field in ("real", "complex"):
        for p in (1.0, 3.0):
            for n in range(2, 7):
                f, g = random_vec(rng, n, field), random_vec(rng, n, field)
                w = rng.uniform(0.5, 2.0, n) if n % 2 else None
                yield f, g, NormSpec(p, weights=w), field


@pytest.mark.parametrize("field, digest", [
    ("real", "32b1c2c1ea9dc08246b5111c83ff9ad7b3f9a5931822b1225730cd25cf8b5e87"),
    ("complex", "c4717b8ee3e27e3cf2fe9ece56a2d3769665761bd35029b25937345965fb51b0"),
], ids=["real", "complex"])
def test_fit_outputs_are_frozen(field, digest):
    # a SHA-256 digest of every Gram matrix and K of the field's panel; the
    # exchange, the support refinement and the scans must reproduce them
    # bit for bit
    h = hashlib.sha256()
    for f, g, norm, fit_field in _frozen_fit_panel():
        if fit_field == field:
            H = fit_hilbert_norm(f, g, norm, field=field)
            h.update(np.ascontiguousarray(H.gram).tobytes())
            h.update(np.float64(H.distortion_K).tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("field", ["real", "complex"])
def test_exact_fit_measures_only_its_starts(monkeypatch, field):
    # at p = inf, and at real p = 1, the exact exchange starts from nine
    # grid rows and takes both extrema in closed form: only those nine are
    # ever measured in the lattice norm, and no distortion sample
    rows = []
    of_rows = NormSpec.of_rows

    def count(self, X):
        rows.append(np.shape(X)[0])
        return of_rows(self, X)

    monkeypatch.setattr(NormSpec, "of_rows", count)
    rng = np.random.default_rng(51)
    for p in (np.inf, 1.0) if field == "real" else (np.inf,):
        for n, w in ((3, None), (7, rng.uniform(0.5, 2.0, 7)), (128, None)):
            rows.clear()
            f, g = random_vec(rng, n, field), random_vec(rng, n, field)
            fit_hilbert_norm(f, g, NormSpec(p, weights=w), field=field)
            assert sum(rows) <= 9, (p, n)


@pytest.mark.parametrize("field", ["real", "complex"])
def test_scanned_fit_measures_the_sample(monkeypatch, field):
    # a p = 3 fit scans a grid, and the fixed random sample stays the
    # scans' safety net: the fit measures the sample rows themselves
    measured = []
    lattice_norms = hilbert._lattice_norms

    def record(rows, basis, norm):
        measured.append(rows is hilbert._SAMPLE[field])
        return lattice_norms(rows, basis, norm)

    monkeypatch.setattr(hilbert, "_lattice_norms", record)
    rng = np.random.default_rng(52)
    f, g = random_vec(rng, 5, field), random_vec(rng, 5, field)
    fit_hilbert_norm(f, g, NormSpec(3.0), field=field)
    assert sum(measured) == 1


def _conditioned_pair(rng, n, field, cond):
    # f, g: the columns of U diag(1, 1/cond) V^H, for random U (n x 2)
    # with orthonormal columns and a random unitary V
    U = np.linalg.qr(np.stack([random_vec(rng, n, field) for _ in range(2)], axis=1))[0]
    V = np.linalg.qr(np.stack([random_vec(rng, 2, field) for _ in range(2)], axis=1))[0]
    B = U @ np.diag([1.0, 1.0 / cond]) @ np.conj(V.T)
    return B[:, 0], B[:, 1]


def _ill_conditioned_panel():
    rng = np.random.default_rng(909)
    for field in ("real", "complex"):
        for n in (2, 5, 64, 2048):
            # p in {1, 3} fits scan whole grids of n-entry rows, which
            # costs seconds at n = 2048
            ps = (1.0, 3.0, np.inf) if n in (2, 64) else (np.inf,)
            for cond in (1e3, 1e5, 1e7, 1e9):
                f, g = _conditioned_pair(rng, n, field, cond)
                for p in ps:
                    yield f, g, NormSpec(p), field
    # seeded pairs at cond 1e9 that reach each degenerate branch of a
    # sup-norm fit: a support of one row, no positive definite support,
    # and a closed-form minimum of 0
    for seed in (3, 10, 16):
        rng = np.random.default_rng(seed)
        for field in ("real", "complex"):
            for n in (2, 5, 64):
                f, g = _conditioned_pair(rng, n, field, 1e9)
                yield f, g, NormSpec(np.inf), field


def test_ill_conditioned_fits_return_or_raise_typed_errors():
    # every fit over condition numbers up to 1e9, which the independence
    # check accepts, either meets the distortion limit or raises a
    # PhaseLatError; pytest turns any RuntimeWarning into a failure
    outcomes = []
    for f, g, norm, field in _ill_conditioned_panel():
        try:
            H = fit_hilbert_norm(f, g, norm, field=field)
        except PhaseLatError:
            outcomes.append(False)
            continue
        assert H.distortion_K <= hilbert.DISTORTION_LIMIT
        outcomes.append(True)
    assert sum(outcomes) > len(outcomes) // 2


def test_sup_norm_fits_of_near_dependent_pairs():
    # g = f + eps h: the products a . c of the first pair's sup-norm ball
    # carry cancellation error above 1e-12, and at n = 2048 the ball's row
    # set must stay small; both fits settle and meet sqrt(2)
    H = fit_hilbert_norm([1, 1 + 1e-5, 0.5], [1, 1 - 1e-5, 0.5 + 1e-5],
                         NormSpec(np.inf), field="real")
    assert H.distortion_K <= SQRT2 + 1e-12
    rng = np.random.default_rng(0)
    f, h = random_vec(rng, 2048, "complex"), random_vec(rng, 2048, "complex")
    H = fit_hilbert_norm(f, f + 1e-7 * h, NormSpec(np.inf))
    assert H.distortion_K <= SQRT2 + 1e-12


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_fits_far_from_unit_scale(p, field):
    # every pair is fitted scaled by a power of two to unit scale, so a
    # power-of-two scale, in range or not, gives the same K bitwise and
    # the Gram matrix scaled by its square; any other scale moves K only
    # by what rounding the pair moves it, and needs no warning
    rng = np.random.default_rng(77)
    f, g = random_vec(rng, 5, field), random_vec(rng, 5, field)
    norm = NormSpec(p)
    H = fit_hilbert_norm(f, g, norm, field=field)
    for k in (40, -40, 300, -300):
        Hs = fit_hilbert_norm(2.0**k * f, 2.0**k * g, norm, field=field)
        assert Hs.distortion_K == H.distortion_K
        np.testing.assert_array_equal(Hs.gram, ldexp(H.gram, 2 * k))
    # complex p = 3 forms come from a support refinement that stops short
    # of the exact ellipsoid (by 4e-7 on this pair), so rounding the pair
    # moves their Q, and K, by up to 5e-9
    rel = 1e-8 if (field, p) == ("complex", 3.0) else 1e-9
    for s in (1e3, 1e6, 1e100, 1e-100):
        Hs = fit_hilbert_norm(s * f, s * g, norm, field=field)
        assert Hs.distortion_K == pytest.approx(H.distortion_K, rel=rel)
        np.testing.assert_allclose(Hs.gram / (s * s), H.gram, rtol=1e-5)
        assert Hs.norm_h(s * f) == pytest.approx(s * H.norm_h(f), rel=1e-5)
    # the Gram matrix of a pair at 1e-170 is below the float range
    with pytest.raises(InputError):
        fit_hilbert_norm(1e-170 * f, 1e-170 * g, norm, field=field)


def test_coeffs_rejects_outside_span(rng):
    f = np.array([1.0, 0.0, 0.0], dtype=complex)
    g = np.array([0.0, 1.0, 0.0], dtype=complex)
    H = fit_hilbert_norm(f, g, NormSpec(2.0))
    with pytest.raises(SpanError):
        H.coeffs(np.array([0.0, 0.0, 1.0], dtype=complex))
    with pytest.raises(SpanError):
        H.coeffs(np.array([1.0, 0.0], dtype=complex))


def test_reduce_rejects_bad_inner_products(rng):
    norm = NormSpec(2.0)
    # visibly complex inner product
    f = np.array([1.0, 0.0], dtype=complex)
    g = np.array([1j, 1.0], dtype=complex) / np.sqrt(2.0)
    H = fit_hilbert_norm(f, g, norm)
    with pytest.raises(PreconditionError):
        orthogonal_reduce(f, g, H)
    # negative real inner product
    fr = np.array([1.0, 0.0])
    gr = np.array([-0.6, 0.8])
    Hr = fit_hilbert_norm(fr, gr, norm, field="real")
    with pytest.raises(PreconditionError):
        orthogonal_reduce(fr, gr, Hr)


def test_reduce_rejects_near_dependent_pair(rng):
    norm = NormSpec(2.0)
    f = random_vec(rng, 3, "complex")
    g = random_vec(rng, 3, "complex")
    H = fit_hilbert_norm(f, g, norm)
    with pytest.raises(DependentVectorsError):
        orthogonal_reduce(f, (1.0 + 1e-13) * f, H)
