"""Constructive witness maps and their certified bounds.

The builders measure their own hypotheses and assert their own output
bounds, so most tests drive them with inputs designed right at the edge
of each precondition: exactly disjoint pairs (infinite ratio), small
overlaps with hand-computable disjointness, and boundary perpendicularity
values that must be rejected strictly.
"""

import math

import numpy as np
import pytest

from phaselat import (
    DependentVectorsError,
    NormSpec,
    PreconditionError,
    adp_to_spr_violation,
    complex_pr_equivalences,
    disjoint_to_pr_failure,
    modulus,
    perp_pair_to_spr_failure,
    spr_failure_to_perp_pair,
    spr_ratio,
    unimodular_distance,
)
from phaselat.builders import M_RANGE_MAX, BuilderParams, delta_of_m

from conftest import random_vec

SUP = NormSpec(np.inf)


def _overlap_pair(eps):
    # sup-normalized pair in C^4 whose meet has norm exactly eps
    u = np.array([1.0, eps, 0.0, 0.0], dtype=complex)
    v = np.array([0.0, eps, 1.0, 0.0], dtype=complex)
    return u, v


def test_builder_params_frozen_values():
    params = BuilderParams.from_m_eps(0.1, 0.2)
    # back-substitute theta into the defining identity
    w = 1.0 - params.theta
    m_back = w / math.sqrt(2.0) + math.sqrt(1.0 + w * w) / (2.0 * math.sqrt(2.0)) - 1.0
    assert abs(m_back - 0.1) <= 1e-12
    # 1 + (1 + m/2)^2 = 2.1025 = 1.45^2, so delta is exactly 1/1.45
    assert params.delta == pytest.approx(1.0 / 1.45, abs=1e-15)
    expected_c = 1.01 * max(
        8.0 * math.sqrt(2.0) / ((1.0 + w * w) * 0.2**2),
        2.0 * math.sqrt(2.0) / params.theta,
    )
    assert params.C_required == pytest.approx(expected_c, rel=1e-12)


def test_theta_closed_form_inverts_m():
    # a dense grid of m over (0, M_RANGE_MAX), its ends included: theta
    # back-substitutes into the defining identity to rounding, stays in
    # (0, 1) and strictly decreases, and no m raises
    ms = np.unique(np.concatenate([
        np.linspace(0.0, M_RANGE_MAX, 20001)[1:-1],
        np.geomspace(1e-12, 1e-3, 200),
        M_RANGE_MAX - np.geomspace(1e-9, 1e-3, 200),
    ]))
    assert ms[0] == 1e-12 and ms[-1] == M_RANGE_MAX - 1e-9
    theta = np.array([BuilderParams.from_m_eps(float(m), 0.1).theta for m in ms])
    w = 1.0 - theta
    m_back = w / math.sqrt(2.0) + np.sqrt(1.0 + w * w) / (2.0 * math.sqrt(2.0)) - 1.0
    assert np.max(np.abs(m_back - ms)) <= 4e-16
    assert np.all((theta > 0.0) & (theta < 1.0))
    assert np.all(np.diff(theta) < 0.0)


def test_m_theta_endpoints():
    # theta=0 corresponds to the top of the admissible m range
    assert M_RANGE_MAX == pytest.approx(1.0 / math.sqrt(2.0) - 0.5, abs=1e-15)
    near_top = BuilderParams.from_m_eps(M_RANGE_MAX - 1e-6, 0.1)
    assert 0.0 < near_top.theta < 1e-4
    for bad_m in (0.0, -0.1, M_RANGE_MAX, 0.5):
        with pytest.raises(PreconditionError):
            BuilderParams.from_m_eps(bad_m, 0.1)
    with pytest.raises(PreconditionError):
        BuilderParams.from_m_eps(0.1, 0.0)


def test_disjoint_lift_real_example():
    out = disjoint_to_pr_failure([1.0, 0.0], [0.0, 1.0], NormSpec(2.0), field="real")
    assert np.array_equal(out.F, np.array([1.0, 1.0]))
    assert np.array_equal(out.G, np.array([1.0, -1.0]))


def test_disjoint_lift_complex_example():
    out = disjoint_to_pr_failure([1j, 0.0], [0.0, 2.0], NormSpec(2.0))
    assert np.allclose(modulus(out.F), [1.0, 2.0], atol=1e-15)
    assert np.allclose(modulus(out.G), [1.0, 2.0], atol=1e-15)


def test_disjoint_lift_rejects_overlap_and_zero():
    with pytest.raises(PreconditionError):
        disjoint_to_pr_failure([1.0, 0.0], [0.1, 1.0], NormSpec(2.0))
    with pytest.raises(PreconditionError):
        disjoint_to_pr_failure([0.0, 0.0], [0.0, 1.0], NormSpec(2.0))


def test_adp_violation_small_overlap_in_sup_norm():
    u = np.array([1.0, 0.1, 0.0], dtype=complex)
    v = np.array([0.0, 0.1, 1.0], dtype=complex)
    cert = adp_to_spr_violation(u, v, SUP)
    assert math.isfinite(cert.certified_ratio)
    assert cert.certified_ratio > 7.07
    # the reduced pair itself re-measures to the certified value
    rep = spr_ratio(cert.f_prime, cert.g_prime, SUP)
    assert rep.ratio == pytest.approx(cert.certified_ratio, rel=1e-9)


def test_adp_violation_disjoint_is_infinite():
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    e3 = np.array([0, 0, 1, 0], dtype=complex)
    cert = adp_to_spr_violation(e1, e3, SUP)
    assert math.isinf(cert.certified_ratio)
    gap = np.abs(modulus(cert.f_prime) - modulus(cert.g_prime))
    assert float(np.max(gap)) <= 1e-12


def test_adp_violation_preconditions():
    u = np.array([1.0, 0.1, 0.0], dtype=complex)
    with pytest.raises(PreconditionError):
        adp_to_spr_violation(2.0 * u, u / SUP(u), SUP)
    # colinear inputs do not span a plane, so the fit rejects them
    w = u / SUP(u)
    with pytest.raises(DependentVectorsError):
        adp_to_spr_violation(w, w * np.exp(0.3j), SUP)


@pytest.mark.parametrize("eps", [0.002, 0.004])
def test_round_trip_adp_to_perp_witness(eps):
    # (1) => (2): the certified ratio 1/(sqrt(2) eps') clears
    # C_required(0.1, 0.2) ~ 160 once eps' < 0.0044
    u, v = _overlap_pair(eps)
    cert = adp_to_spr_violation(u, v, SUP)
    assert cert.certified_ratio > BuilderParams.from_m_eps(0.1, 0.2).C_required
    wit = spr_failure_to_perp_pair(cert.f_prime, cert.g_prime, SUP, 0.1, 0.2)
    assert wit.separation >= 0.1 - 1e-8
    assert wit.perp < 0.2


def test_round_trip_adp_to_perp_witness_l2():
    s = 0.004
    c = math.sqrt(1.0 - s * s)
    u = np.array([c, s, 0.0, 0.0], dtype=complex)
    v = np.array([0.0, s, c, 0.0], dtype=complex)
    norm = NormSpec(2.0)
    cert = adp_to_spr_violation(u, v, norm)
    wit = spr_failure_to_perp_pair(cert.f_prime, cert.g_prime, norm, 0.1, 0.2)
    assert wit.separation >= 0.1 - 1e-8
    assert wit.perp < 0.2


def test_round_trip_closes_at_higher_constant():
    # (1) => (2) => (1): eps < delta m/(2C) lets the perp witness feed
    # the converse builder, which must certify a ratio above C
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    e3 = np.array([0, 0, 1, 0], dtype=complex)
    cert = adp_to_spr_violation(e1, e3, SUP)
    m, C = 0.1, 10.0
    eps = 0.003
    assert eps < delta_of_m(m) * m / (2.0 * C)
    wit = spr_failure_to_perp_pair(cert.f_prime, cert.g_prime, SUP, m, eps)
    out = perp_pair_to_spr_failure(wit.u, wit.v, SUP, m, C)
    assert out.measured_ratio > C


def test_spr_failure_rejects_weak_ratio():
    f = np.array([1.0, 0.3, 0.0], dtype=complex)
    g = np.array([0.2, 1.0, 0.4], dtype=complex)
    with pytest.raises(PreconditionError, match="does not exceed"):
        spr_failure_to_perp_pair(f, g, SUP, 0.1, 0.2)


def test_spr_failure_rejects_unimodular_multiple():
    f = np.array([1.0, 0.3, 0.5j], dtype=complex)
    with pytest.raises(PreconditionError, match="unimodular"):
        spr_failure_to_perp_pair(f, np.exp(0.7j) * f, SUP, 0.1, 0.2)


def test_spr_failure_accepts_infinite_ratio_at_tight_params():
    # C_required(0.2, 0.01) is astronomically large; an infinite-ratio
    # input still passes the hypothesis check
    e1 = np.array([1, 0, 0, 0], dtype=complex)
    e3 = np.array([0, 0, 1, 0], dtype=complex)
    cert = adp_to_spr_violation(e1, e3, SUP)
    wit = spr_failure_to_perp_pair(cert.f_prime, cert.g_prime, SUP, 0.2, 0.01)
    assert wit.separation >= 0.2 - 1e-8
    assert wit.perp < 0.01


def test_perp_to_spr_failure_frozen_quadrature():
    u = np.array([1.0, 1.0], dtype=complex)
    v = np.array([1j, -1j])
    out = perp_pair_to_spr_failure(u, v, SUP, 1.0, 100.0)
    assert np.array_equal(out.f, u + v)
    assert np.array_equal(out.g, u - v)
    assert math.isinf(out.measured_ratio)
    assert np.allclose(modulus(out.f), math.sqrt(2.0), atol=1e-15)


def test_perp_to_spr_failure_modulus_gap_chain():
    m, C = 0.1, 10.0
    a = 0.5 * delta_of_m(m) * m / (2.0 * C)
    u = np.array([1.0, a, 0.0], dtype=complex)
    v = np.array([0.0, a, 1.0], dtype=complex)
    out = perp_pair_to_spr_failure(u, v, SUP, m, C)
    assert out.measured_ratio > C
    # || |f| - |g| || <= 2 perp(u, v), here perp is exactly a
    gap = SUP(np.abs(modulus(out.f) - modulus(out.g)))
    assert gap <= 2.0 * a + 1e-12


def test_perp_to_spr_failure_strict_boundary():
    m, C = 0.1, 10.0
    a = delta_of_m(m) * m / (2.0 * C) * (1.0 + 1e-6)
    u = np.array([1.0, a, 0.0], dtype=complex)
    v = np.array([0.0, a, 1.0], dtype=complex)
    with pytest.raises(PreconditionError, match="not strictly below"):
        perp_pair_to_spr_failure(u, v, SUP, m, C)


def test_perp_to_spr_failure_rejects_tiny_separation():
    # the cross subspace's pairs have perp ~ 0.1 but separation ~ 0.02,
    # so the separation precondition fires first
    delta = 1.0 / 99.0
    A = 1.0 / (1.0 + delta)
    u = np.array([1, 1, 1, 0], dtype=complex)
    w = np.array([1, 1j, 0, 1], dtype=complex)
    v = A * (1j * u + delta * w)
    with pytest.raises(PreconditionError, match="separation"):
        perp_pair_to_spr_failure(u, v, SUP, 0.1, 10.0)


def test_perp_to_spr_failure_parameter_validation():
    u = np.array([1.0, 1.0], dtype=complex)
    v = np.array([1j, -1j])
    with pytest.raises(PreconditionError):
        perp_pair_to_spr_failure(u, v, SUP, 0.0, 10.0)
    with pytest.raises(PreconditionError):
        perp_pair_to_spr_failure(u, v, SUP, 0.1, 0.0)
    with pytest.raises(PreconditionError):
        perp_pair_to_spr_failure(2.0 * u, v, SUP, 0.1, 10.0)


def _unit_coefficients(rng, field):
    # seeded unit (alpha, beta) rows plus a grid of the sphere modulo a
    # global phase, which leaves ||alpha u + beta v|| unchanged
    if field == "real":
        z = rng.standard_normal((4096, 2))
        t = np.linspace(0.0, np.pi, 1024, endpoint=False)
        grid = np.stack([np.cos(t), np.sin(t)], axis=1)
    else:
        z = rng.standard_normal((4096, 2)) + 1j * rng.standard_normal((4096, 2))
        s, phi = np.meshgrid(np.linspace(0.0, np.pi / 2, 49),
                             np.linspace(0.0, 2.0 * np.pi, 96, endpoint=False),
                             indexing="ij")
        grid = np.stack([np.cos(s).ravel() + 0j, (np.sin(s) * np.exp(1j * phi)).ravel()],
                        axis=1)
    return np.vstack([z / np.linalg.norm(z, axis=1)[:, None], grid])


def _unimodular(rng, field, size=None):
    if field == "real":
        return rng.choice([-1.0, 1.0], size)
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))


def _floor_panel(rng, field, norm):
    # random and near-colinear pairs for n = 2..7, then criterion 5's
    # bridged pairs: disjoint supports plus one shared coordinate whose
    # amplitude sits at half the perpendicularity bound
    for n in range(2, 8):
        yield random_vec(rng, n, field), random_vec(rng, n, field)
        u = random_vec(rng, n, field)
        yield u, _unimodular(rng, field) * u + 10.0 ** rng.uniform(-6, -1) * random_vec(
            rng, n, field)
    for m in (0.05, 0.1, 0.2):
        for C in (10.0, 100.0):
            perm = rng.permutation(5)
            ku = 1 + int(rng.integers(0, 3))
            u = np.zeros(5, dtype=complex if field == "complex" else float)
            v = np.zeros_like(u)
            u[perm[:ku]] = random_vec(rng, ku, field)
            v[perm[ku:4]] = random_vec(rng, 4 - ku, field)
            u, v = u / norm(u), v / norm(v)
            u[perm[4]], v[perm[4]] = 0.5 * delta_of_m(m) * m / (2.0 * C) * _unimodular(
                rng, field, 2)
            yield u, v


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_coefficient_sphere_floor_lemma(field, p):
    # perp_pair_to_spr_failure relies on min over unit (alpha, beta) of
    # ||alpha u + beta v|| >= sep / (2 sqrt(2)) for normalized u, v, and on
    # delta(m) m / 2 lying below m / (2 sqrt(2)); a dense sample of the
    # coefficient sphere never undercuts the proven floor
    for m in (0.05, 0.1, 0.2):
        assert delta_of_m(m) * m / 2.0 < m / (2.0 * math.sqrt(2.0))
    rng = np.random.default_rng([47, field == "complex", int(min(p, 4.0))])
    norm = NormSpec(p)
    coeffs = _unit_coefficients(rng, field)
    for u, v in _floor_panel(rng, field, norm):
        u, v = u / norm(u), v / norm(v)
        sep = unimodular_distance(u, v, norm, field=field).distance
        floor = float(np.min(norm.of_rows(coeffs @ np.stack([u, v]))))
        assert floor >= sep / (2.0 * math.sqrt(2.0)) * (1.0 - 1e-12), (floor, sep)


def test_equivalences_frozen_examples():
    all_true = complex_pr_equivalences([1.0, 0.0], [0.0, 1.0])
    assert all(all_true)
    quad = complex_pr_equivalences([1.0, 1.0], [1j, -1j])
    assert all(quad)
    all_false = complex_pr_equivalences([1.0, 0.0], [1.0, 1.0])
    assert not any(all_false)


def test_equivalences_random_pairs_agree(rng):
    for _ in range(50):
        f = random_vec(rng, 5, "complex")
        g = random_vec(rng, 5, "complex")
        verdict = complex_pr_equivalences(f, g)
        assert len(set(verdict)) == 1


def test_equivalences_quadrature_family_from_real_pairs(rng):
    # (f, ig) with f, g real is pointwise perpendicular, and the lifted
    # pair f + ig, f - ig shares a modulus
    for _ in range(20):
        f = rng.standard_normal(6).astype(complex)
        g = rng.standard_normal(6).astype(complex)
        verdict = complex_pr_equivalences(f, 1j * g)
        assert all(verdict)
        assert np.allclose(modulus(f + 1j * g), modulus(f - 1j * g), atol=1e-12)


def test_equivalences_reject_dependent_inputs():
    f = np.array([1.0, 2.0], dtype=complex)
    with pytest.raises(PreconditionError):
        complex_pr_equivalences(f, 2.0 * f)
