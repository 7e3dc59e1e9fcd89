"""Phase distance solver and the stability ratio classifier."""

import numpy as np
import pytest

from phaselat import (
    NormSpec,
    PairWitness,
    spr_ratio,
    unimodular_distance,
)
from phaselat.phase_metric import _grid_distance
from conftest import random_vec
from oracles import closed_form_l2_distance, grid_distance

SQRT2 = np.sqrt(2.0)


def test_closed_form_matches_reference(rng):
    norm = NormSpec(2.0)
    for _ in range(80):
        n = int(rng.integers(2, 9))
        f = random_vec(rng, n, "complex")
        g = random_vec(rng, n, "complex")
        got = unimodular_distance(f, g, norm).distance
        assert got == pytest.approx(closed_form_l2_distance(f, g), abs=1e-10)


def test_grid_method_agrees_with_closed_form(rng):
    # the generic branch is kept cross-checkable against the closed form
    for _ in range(60):
        n = int(rng.integers(2, 9))
        w = rng.uniform(0.5, 2.0, n)
        norm = NormSpec(2.0, weights=w)
        f = random_vec(rng, n, "complex")
        g = random_vec(rng, n, "complex")
        d_auto = unimodular_distance(f, g, norm).distance
        d_grid = _grid_distance(f, g, norm).distance
        assert abs(d_auto - d_grid) <= 1e-8
        assert d_auto == pytest.approx(
            closed_form_l2_distance(f, g, weights=w), abs=1e-10)


def _bridged_pair(rng, n):
    # disjoint supports plus one shared coordinate
    f = random_vec(rng, n, "complex")
    g = random_vec(rng, n, "complex")
    on_f = rng.permutation(n) < n // 2
    f[~on_f] = 0.0
    g[on_f] = 0.0
    k = int(rng.integers(n))
    f[k], g[k] = rng.uniform(0.01, 0.3, 2) * np.exp(2j * np.pi * rng.random(2))
    return f, g


def _perp_sum_difference_pair(rng, n):
    # u and v with Re(u conj v) = 0 in every coordinate: v is a real
    # multiple of iu on a shared block and disjoint from u elsewhere
    u = random_vec(rng, n, "complex")
    v = 1j * rng.standard_normal(n) * u
    only_v = rng.permutation(n) < n // 3
    u[only_v] = 0.0
    v[only_v] = random_vec(rng, int(only_v.sum()), "complex")
    return u + v, u - v


_FAMILIES = (
    ("random", 25, lambda rng, n: (random_vec(rng, n, "complex"),
                                   random_vec(rng, n, "complex"))),
    ("bridged", 12, _bridged_pair),
    ("perp", 12, _perp_sum_difference_pair),
)


@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
def test_solver_matches_dense_grid_oracle(rng, p):
    norm = NormSpec(p)
    for family, count, draw in _FAMILIES:
        for _ in range(count):
            n = int(rng.integers(2, 9))
            f, g = draw(rng, n)
            out = unimodular_distance(f, g, norm)
            got = out.distance
            want = grid_distance(f, g, p)
            assert abs(got - want) <= 1e-6, family
            # the solver refines grid minima, so it can only sit below
            assert got <= want + 1e-12, family
            # the distance is achieved by the returned scalar
            assert abs(got - norm(f - out.lambda_star * g)) <= 1e-12, family


def _count_norm_calls(monkeypatch):
    calls = [0]
    for attr in ("__call__", "of_rows"):
        fn = getattr(NormSpec, attr)

        def counted(self, x, _fn=fn):
            calls[0] += 1
            return _fn(self, x)

        monkeypatch.setattr(NormSpec, attr, counted)
    return calls


def test_plateau_pairs_cost_a_bounded_number_of_norm_calls(rng, monkeypatch):
    # on each pair the distance does not depend on the angle, so every
    # grid point (at p = 1, most of them, up to rounding) is a local
    # minimum; the cost must not grow with the number of tied minima
    f = random_vec(rng, 6, "complex")
    g = random_vec(rng, 6, "complex")
    f[3:] = 0.0
    g[:3] = 0.0
    cases = [
        (f, g, NormSpec(np.inf), max(np.max(np.abs(f)), np.max(np.abs(g)))),
        (f, g, NormSpec(1.0), np.sum(np.abs(f)) + np.sum(np.abs(g))),
        (f, np.zeros(6, dtype=complex), NormSpec(3.0), NormSpec(3.0)(f)),
    ]
    calls = _count_norm_calls(monkeypatch)
    for f_, g_, norm, want in cases:
        calls[0] = 0
        got = unimodular_distance(f_, g_, norm).distance
        assert got == pytest.approx(want, abs=1e-12)
        assert calls[0] <= 60


def test_real_field_compares_two_signs(rng):
    norm = NormSpec(1.0)
    for _ in range(40):
        f = random_vec(rng, 5, "real")
        g = random_vec(rng, 5, "real")
        out = unimodular_distance(f, g, norm, field="real")
        assert out.distance == min(norm(f - g), norm(f + g))
        assert out.lambda_star in (1.0 + 0.0j, -1.0 + 0.0j)


def test_distance_invariances(rng):
    norm = NormSpec(np.inf)
    f = random_vec(rng, 6, "complex")
    g = random_vec(rng, 6, "complex")
    d = unimodular_distance(f, g, norm).distance
    for mu in (1j, np.exp(0.3j), -1.0):
        assert unimodular_distance(f, mu * g, norm).distance == pytest.approx(
            d, abs=1e-9)
    assert unimodular_distance(2.5 * f, 2.5 * g, norm).distance == pytest.approx(
        2.5 * d, rel=1e-9)
    assert unimodular_distance(g, f, norm).distance == pytest.approx(d, abs=1e-9)


def test_colinear_pair_resolves_to_degenerate(rng):
    # a unimodular multiple must not be mistaken for an SPR violation
    f = random_vec(rng, 4, "complex")
    g = np.exp(0.7345j) * f
    for norm in (NormSpec(2.0), NormSpec(np.inf)):
        d = unimodular_distance(f, g, norm).distance
        assert d <= 1e-10
        rep = spr_ratio(f, g, norm)
        assert rep.flag == "degenerate"
        assert np.isnan(rep.ratio)


def test_scaled_colinear_pair_has_ratio_one(rng):
    f = random_vec(rng, 4, "complex")
    rep = spr_ratio(f, 2.0 * f, NormSpec(2.0))
    assert rep.flag is None
    assert rep.ratio == pytest.approx(1.0, abs=1e-9)


def test_equal_modulus_pair_flags_infinite():
    norm = NormSpec(np.inf)
    u = np.array([1.0, 0.0], dtype=complex)
    v = np.array([0.0, 1.0], dtype=complex)
    rep = spr_ratio(u + v, u - v, norm)
    assert rep.flag == "infinite"
    assert rep.ratio == np.inf
    assert rep.denominator <= 1e-15


def test_ratio_report_reproducible(rng):
    norm = NormSpec(3.0)
    f = random_vec(rng, 5, "complex")
    g = random_vec(rng, 5, "complex")
    rep = spr_ratio(f, g, norm)
    again = spr_ratio(f, g, norm)
    assert rep.ratio == again.ratio
    assert rep.numerator == pytest.approx(
        unimodular_distance(f, g, norm).distance, abs=1e-12)


def test_remark_subspace_pair_measures():
    # u, v with v a slight tilt of iu: perpendicularity sqrt(A delta)
    # stays near 0.1 while the phase distance collapses to ~0.02
    delta = 1.0 / 99.0
    A = 1.0 / (1.0 + delta)
    norm = NormSpec(np.inf)
    u = np.array([1, 1, 1, 0], dtype=complex)
    w = np.array([1, 1j, 0, 1], dtype=complex)
    v = A * (1j * u + delta * w)
    from phaselat import perp_measure

    assert perp_measure(u, v, norm) == pytest.approx(np.sqrt(A * delta), abs=1e-15)
    assert np.sqrt(A * delta) == pytest.approx(0.1, abs=1e-12)
    out = unimodular_distance(u, v, norm)
    assert out.distance <= 2.0 * A * delta + 1e-9
    assert abs(out.lambda_star - (-1j)) < 0.2


def test_pair_witness_recomputes_measures(rng):
    norm = NormSpec(np.inf)
    u = random_vec(rng, 5, "complex")
    v = random_vec(rng, 5, "complex")
    u, v = u / norm(u), v / norm(v)
    wit = PairWitness.from_vectors(u, v, norm, "complex")
    from phaselat import meet, modulus, perp_measure

    assert wit.separation == pytest.approx(
        unimodular_distance(u, v, norm).distance, abs=1e-9)
    assert wit.disjointness == pytest.approx(
        norm(meet(modulus(u), modulus(v))), abs=1e-9)
    assert wit.perp == pytest.approx(perp_measure(u, v, norm), abs=1e-9)


def test_pair_witness_requires_normalized_inputs(rng):
    norm = NormSpec(2.0)
    u = random_vec(rng, 4, "complex")
    with pytest.raises(ValueError):
        PairWitness.from_vectors(2.0 * u / norm(u), u / norm(u), norm, "complex")


def test_solver_input_validation(rng):
    f = random_vec(rng, 3, "complex")
    g = random_vec(rng, 3, "complex")
    with pytest.raises(ValueError):
        unimodular_distance(f, random_vec(rng, 4, "complex"), NormSpec(2.0))
    with pytest.raises(ValueError):
        unimodular_distance(np.array([np.nan, 1.0]), g[:2], NormSpec(3.0))
