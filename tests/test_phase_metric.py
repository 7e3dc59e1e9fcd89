"""Phase distance solver and the stability ratio classifier."""

import numpy as np
import pytest

from phaselat import (
    InputError,
    NormSpec,
    PairWitness,
    spr_ratio,
    unimodular_distance,
)
from phaselat.phase_metric import (_GRID_LAMBDA, _grid_distance, _grid_values,
                                   euclidean_phases)
from conftest import random_vec, unit_modulus_pair
from oracles import closed_form_l2_distance, grid_distance, scalar_euclidean_phase

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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_squared_screen_matches_direct_grid(rng, p):
    # the screen's squared moduli cancel near a zero of the distance, so
    # its values are compared only where they are not near zero
    for n in (2, 3, 5, 8, 64, 2048):
        for w in (None, rng.uniform(0.5, 2.0, n)):
            norm = NormSpec(p, weights=w)
            f = random_vec(rng, n, "complex")
            g = random_vec(rng, n, "complex")
            got = _grid_values(f, g, norm)
            want = norm.of_rows(f[None, :] - _GRID_LAMBDA[:, None] * g[None, :])
            away = want >= 1e-6 * (norm(f) + norm(g))
            assert away.sum() >= 500
            np.testing.assert_allclose(got[away], want[away], rtol=1e-12)


@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
def test_colinear_pairs_on_a_grid_angle(rng, p):
    # g = e^{2 pi i k / 512} f puts the zero of the distance on a grid
    # angle, where the screen's squares cancel worst; the direct zoom must
    # still resolve it
    norm = NormSpec(p)
    for _ in range(8):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(512))
        f = random_vec(rng, n, "complex")
        for eps in (0.0, 1e-12, 1e-9):
            g = np.exp(2j * np.pi * k / 512) * f + eps * random_vec(rng, n, "complex")
            got = unimodular_distance(f, g, norm).distance
            assert got <= grid_distance(f, g, p) + 1e-12
            if eps == 0.0:
                assert spr_ratio(f, g, norm).flag == "degenerate"


@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
def test_distance_of_huge_and_tiny_pairs(rng, p):
    # the distance is homogeneous; no power of a 1e+-200 entry may
    # overflow or underflow into a RuntimeWarning (pytest makes one an
    # error) or a wrong value
    norm = NormSpec(p)
    for _ in range(6):
        n = int(rng.integers(2, 9))
        f = random_vec(rng, n, "complex")
        g = random_vec(rng, n, "complex")
        d = unimodular_distance(f, g, norm).distance
        for s in (1e200, 1e-200):
            got = unimodular_distance(s * f, s * g, norm).distance
            assert got == pytest.approx(s * d, rel=1e-12)
    f = np.array([1e200, 0.1, 1j])
    got = unimodular_distance(f, np.array([1j, 1.0, 0.5]), norm).distance
    assert got == pytest.approx(1e200, rel=1e-15)


@pytest.mark.parametrize("p", [1.0, 3.0, np.inf])
def test_distance_past_the_float_range(p):
    # a distance that overflows at every angle is an InputError, not a
    # RuntimeWarning; one that overflows only away from its minimum is
    # measured there
    norm = NormSpec(p)
    with pytest.raises(InputError):
        unimodular_distance([1.5e308 + 1.5e308j, 0], [0, 1j], norm)
    got = unimodular_distance(np.array([1.2e308 + 0j, 1.0]),
                              np.array([-1.2e308 + 0j, 1.0]), norm)
    assert got.distance <= 1e-15 * 1.2e308 + 2.0
    assert got.lambda_star == pytest.approx(-1.0, abs=1e-12)


def _count_norm_calls(monkeypatch):
    # [norm calls, rows of the of_rows calls, rows of the of_squared_rows
    # calls]
    calls = [0, 0, 0]
    for attr, slot in (("__call__", None), ("of_rows", 1), ("of_squared_rows", 2)):
        fn = getattr(NormSpec, attr)

        def counted(self, x, _fn=fn, _slot=slot):
            calls[0] += 1
            if _slot is not None:
                calls[_slot] += len(x)
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

    # a disjoint n = 2048 pair at p = inf whose distance, max |f|, is
    # attained on f's support: all 512 grid values tie exactly, and the
    # run zooms as one bracket at grid index 0, the argmin's pick
    f = random_vec(rng, 2048, "complex")
    g = random_vec(rng, 2048, "complex")
    f[1024:] = 0.0
    g[:1024] = 0.0
    g *= 0.5 * np.max(np.abs(f)) / np.max(np.abs(g))
    calls[1] = calls[2] = 0
    out = unimodular_distance(f, g, NormSpec(np.inf))
    # one screen of the 512 grid rows; one bracket centre and 12 zoom
    # rounds of 8 evaluated directly
    assert calls[2] <= 512
    assert calls[1] <= 1 + 12 * 8
    assert out.distance == np.max(np.abs(f))
    assert out.lambda_star == 1.0 + 0.0j

    # the same with the distance, max |g|, attained on g's support: the
    # direct values |lambda_k g_i| round differently per grid angle, but
    # the screen's squared moduli tie exactly, so it is still one bracket
    g *= 4.0
    calls[1] = calls[2] = 0
    out = unimodular_distance(f, g, NormSpec(np.inf))
    assert calls[2] <= 512
    assert calls[1] <= 1 + 12 * 8
    assert out.distance == pytest.approx(np.max(np.abs(g)), rel=1e-15)


def _few_phases_pair(n):
    # g_k = e^{2 pi i k / 7}: seven minima of equal depth, off the grid
    return np.ones(n, dtype=complex), np.exp(2j * np.pi * np.arange(n) / 7)


@pytest.mark.parametrize("pair, p, pin", [
    (unit_modulus_pair, 1.0,
     ("0x1.42c61c282277ap+11", "-0x1.d83ec470a175ep-1", "-0x1.8b9e5159d5673p-2")),
    (unit_modulus_pair, np.inf,
     ("0x1.fffcc0f6d79f3p+0", "-0x1.4f8aa4de92f30p-1", "-0x1.82b979b671504p-1")),
    (_few_phases_pair, 1.0,
     ("0x1.403f0d5680b28p+11", "0x1.3f3a0e28bf2d8p-1", "-0x1.904c37505da49p-1")),
    (_few_phases_pair, 3.0,
     ("0x1.31342e66a3c7ep+4", "0x1.c7b9002fc28fbp-3", "-0x1.f329c12215baep-1")),
    (_few_phases_pair, np.inf,
     ("0x1.f329c0558ea96p+0", "0x1.0000000000000p+0", "0x1.fec8ad477c000p-43")),
], ids=["unit-modulus-1", "unit-modulus-inf", "few-phases-1", "few-phases-3",
        "few-phases-inf"])
def test_many_bracket_distances_are_frozen(pair, p, pin):
    # pairs at n = 2048 whose zoom carries several brackets per round;
    # distance and lambda* as hex floats, bit for bit
    d = unimodular_distance(*pair(2048), NormSpec(p))
    assert (d.distance.hex(), d.lambda_star.real.hex(), d.lambda_star.imag.hex()) == pin


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


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_ratio_does_not_depend_on_scale(rng, field, p):
    # the ratio and its flags are homogeneous of degree 0: pairs scaled by
    # 2^+-120 agree with the unscaled ones, also near the tolerances
    norm = NormSpec(p)
    lam = 1.0 if field == "real" else np.exp(0.7j)
    for _ in range(4):
        n = int(rng.integers(2, 7))
        f, g = random_vec(rng, n, field), random_vec(rng, n, field)
        h = np.abs(f) * np.exp(1j * rng.uniform(0, 2 * np.pi, n)) if field == "complex" else -f
        for u, v in ((f, g), (f, lam * f), (f, h)):
            ref = spr_ratio(u, v, norm, field=field)
            for s in (2.0**120, 2.0**-120):
                got = spr_ratio(s * u, s * v, norm, field=field)
                assert got.flag == ref.flag
                if ref.flag is None:
                    assert got.ratio == pytest.approx(ref.ratio, rel=1e-12)
    f, g = np.array([1.0, 2.0, 0.5]), np.array([0.3, -1.0, 2.0])
    ref = spr_ratio(f, g, NormSpec(3.0), field="real")
    for s in (1e-8, 1e-10, 1e-30):
        got = spr_ratio(s * f, s * g, NormSpec(3.0), field="real")
        assert got.flag is None
        assert got.ratio == pytest.approx(ref.ratio, rel=1e-12)


def test_euclidean_distance_of_huge_and_tiny_pairs(rng):
    # the closed form's phase comes from the pair scaled by powers of two,
    # so <f, g> cannot overflow; weighted and unweighted, complex
    for w in (None, rng.uniform(0.5, 2.0, 5)):
        norm = NormSpec(2.0, weights=w)
        f, g = random_vec(rng, 5, "complex"), random_vec(rng, 5, "complex")
        ref = unimodular_distance(f, g, norm)
        for s in (1e160, 2.0**-120, 2.0**120):
            got = unimodular_distance(s * f, s * g, norm)
            assert got.distance == pytest.approx(s * ref.distance, rel=1e-12)
            assert got.lambda_star == pytest.approx(ref.lambda_star, abs=1e-15)


def _bits(z):
    z = np.asarray(z, dtype=complex)
    return z.real.tobytes() + z.imag.tobytes()


@pytest.mark.parametrize("n", [1, 3, 8, 9, 130])
def test_euclidean_phases_match_the_one_pair_loop(rng, n):
    # every row of one batch, rescued or not, has the bits of the one-pair
    # loop, signed zeros included, and so has the closed form's scalar
    rows = [(random_vec(rng, n, "complex"), random_vec(rng, n, "complex"))
            for _ in range(6)]
    rows += [(1e200 * f, 1e160 * g) for f, g in rows[:2]]
    rows += [(1e-200 * f, 1e-140 * g) for f, g in rows[:2]]
    rows += [(np.zeros(n, complex), rows[0][1]),
             (rows[0][0].real + 0j, 1j * rows[0][1].imag),
             (-0.0 * rows[0][0].real + 1j * rows[0][0].imag, rows[0][1].real + 0j)]
    F, G = np.array([f for f, _ in rows]), np.array([g for _, g in rows])
    for w in (None, rng.uniform(0.5, 2.0, n)):
        norm = NormSpec(2.0, weights=w)
        lam = euclidean_phases(F, G, norm)
        for i, (f, g) in enumerate(rows):
            ref = scalar_euclidean_phase(f, g, w)
            assert _bits(lam[i]) == _bits(ref), i
            got = unimodular_distance(f, g, norm)
            assert _bits(got.lambda_star) == _bits(ref)
            assert got.distance == norm(f - ref * g)


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
    with pytest.raises(InputError):
        PairWitness.from_vectors(2.0 * u / norm(u), u / norm(u), norm, "complex")


def test_solver_input_validation(rng):
    f = random_vec(rng, 3, "complex")
    g = random_vec(rng, 3, "complex")
    with pytest.raises(InputError):
        unimodular_distance(f, random_vec(rng, 4, "complex"), NormSpec(2.0))
    with pytest.raises(InputError):
        unimodular_distance(np.array([np.nan, 1.0]), g[:2], NormSpec(3.0))
    with pytest.raises(InputError):
        _grid_distance(np.array([np.nan, 1.0]), g[:2], NormSpec(3.0))
