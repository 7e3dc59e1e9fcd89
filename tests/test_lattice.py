"""Functional-calculus identities and norm behavior.

The three identities are exact algebra; tests check the coordinatewise
float evaluation. Square roots are not Lipschitz at zero, so the
adversarial (hypothesis) forms of the identities compare squares, where
float error stays linear in the operands' scale; the sqrt-scale tolerance
is exercised on continuous random draws in test_acceptance.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from phaselat import (
    Ambient,
    InputError,
    NormSpec,
    abs_prod_sqrt,
    as_vector,
    join,
    meet,
    modulus,
    perp_measure,
    perp_profile,
    re_prod,
)
from phaselat.lattice import check_same_dim, ldexp
from conftest import random_vec
from oracles import weighted_norm

P_VALUES = [1.0, 2.0, 3.0, np.inf]

entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
dims = st.integers(min_value=1, max_value=16)


@st.composite
def real_pairs(draw):
    n = draw(dims)
    x = draw(arrays(np.float64, n, elements=entries))
    y = draw(arrays(np.float64, n, elements=entries))
    return x, y


@st.composite
def complex_pairs(draw):
    n = draw(dims)
    parts = [draw(arrays(np.float64, n, elements=entries)) for _ in range(4)]
    return parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]


@given(real_pairs())
def test_product_splits_into_join_and_meet(pair):
    x, y = pair
    lhs = abs_prod_sqrt(x, y)
    rhs = np.sqrt(join(modulus(x), modulus(y))) * np.sqrt(meet(modulus(x), modulus(y)))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


@given(complex_pairs(), entries, entries)
# Re(f conj g) cancels to exactly 0 here, the scaled product to 3.6e-15
@example(
    pair=(np.array([1.0 + 9.0j]), np.array([-9.0 + 1.0j])),
    lam=3.0,
    mu=1.8679965486026227,
)
def test_real_scalars_factor_out_of_perp_profile(pair, lam, mu):
    f, g = pair
    lhs = perp_profile(lam * f, mu * g) ** 2
    rhs = abs(lam * mu) * perp_profile(f, g) ** 2
    scale = 1.0 + abs(lam * mu) * float(np.max(modulus(f)) * np.max(modulus(g)))
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12 * scale)


@given(complex_pairs())
# |f + g| and |f - g| agree to 2e-15, so both square roots see a cancelled sum
@example(pair=(np.array([1.0j]), np.array([1.0 + 1.13159377e-15j])))
def test_sum_difference_identity_squared(pair):
    f, g = pair
    a = modulus(f + g)
    b = modulus(f - g)
    scale = 1.0 + max(float(np.max(a)), float(np.max(b))) ** 2
    np.testing.assert_allclose(
        4.0 * np.abs(re_prod(f, g)), np.abs(a * a - b * b),
        rtol=0, atol=1e-10 * scale,
    )
    # the two right-hand forms factor the same quantity
    np.testing.assert_allclose(
        np.abs(a * a - b * b), (a + b) * np.abs(a - b),
        rtol=0, atol=1e-10 * scale,
    )


def test_sum_difference_identity_random_regime(rng):
    for n in (2, 4, 8, 32):
        for _ in range(200):
            f = random_vec(rng, n, "complex")
            g = random_vec(rng, n, "complex")
            lhs = 2.0 * perp_profile(f, g)
            a = modulus(f + g)
            b = modulus(f - g)
            mid = np.sqrt(np.abs(a * a - b * b))
            rhs = np.sqrt(a + b) * np.sqrt(np.abs(a - b))
            np.testing.assert_allclose(lhs, mid, rtol=0, atol=1e-10)
            np.testing.assert_allclose(mid, rhs, rtol=0, atol=1e-10)


@given(complex_pairs(), st.floats(min_value=0.0, max_value=1.0))
def test_norm_monotone_on_moduli(pair, t):
    y, _ = pair
    x = t * y
    for p in P_VALUES:
        norm = NormSpec(p)
        assert norm(x) <= norm(y) + 1e-12


@given(real_pairs())
@settings(max_examples=60)
def test_meet_bounds_product_chain_on_normalized_pairs(pair):
    # ||u ^ v|| <= || |uv|^(1/2) || <= sqrt(2 ||u ^ v||) on the unit sphere
    u, v = pair
    for p in P_VALUES:
        norm = NormSpec(p)
        nu, nv = norm(u), norm(v)
        if nu < 1e-6 or nv < 1e-6:
            continue
        un, vn = u / nu, v / nv
        eps = norm(meet(modulus(un), modulus(vn)))
        mid = norm(abs_prod_sqrt(un, vn))
        assert eps <= mid + 1e-12
        assert mid <= np.sqrt(2.0 * eps) + 1e-12


@given(
    arrays(np.float64, 4, elements=entries),
    arrays(np.float64, 4, elements=st.floats(min_value=0.1, max_value=5.0)),
    st.sampled_from(P_VALUES),
)
# squares of these entries underflow to 0; the norm must not
@example(x=np.full(4, 2.62195791e-286), w=np.ones(4), p=2.0)
def test_weighted_norm_matches_reference(x, w, p):
    got = NormSpec(p, weights=w)(x)
    want = weighted_norm(x, p, w)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


def test_weighted_norm_frozen_values():
    # weights scale |x|^p, not (w |x|)^p
    x = np.array([3.0, 4.0])
    w = np.array([2.0, 1.0])
    assert NormSpec(1.0, w)(x) == pytest.approx(10.0, abs=1e-14)
    assert NormSpec(2.0, w)(x) == pytest.approx(np.sqrt(34.0), abs=1e-14)
    assert NormSpec(np.inf, w)(x) == pytest.approx(6.0, abs=1e-14)
    assert NormSpec(3.0)(np.array([1.0, -2.0, 2.0])) == pytest.approx(
        17.0 ** (1.0 / 3.0), abs=1e-14)
    assert NormSpec(2.0)(np.array([3.0 + 4.0j])) == pytest.approx(5.0, abs=1e-14)


def test_of_rows_agrees_with_scalar_call(rng):
    X = random_vec(rng, 6, "complex")[None, :] * rng.standard_normal((5, 1))
    for p in P_VALUES:
        norm = NormSpec(p, weights=rng.uniform(0.5, 2.0, 6))
        np.testing.assert_allclose(
            norm.of_rows(X), [norm(row) for row in X], rtol=1e-13)


def test_sup_norm_rows_equal_the_plain_maximum(rng):
    # short rows are reduced column by column, long ones by np.max; a max
    # is exact in any order, so both agree bitwise with the plain reduce
    for n in (1, 2, 4, 8, 15, 16, 17, 64):
        X = random_vec(rng, 40 * n, "complex").reshape(40, n)
        w = rng.uniform(0.5, 2.0, n)
        assert np.array_equal(NormSpec(np.inf).of_rows(X), np.max(np.abs(X), axis=1))
        assert np.array_equal(NormSpec(np.inf, weights=w).of_rows(X),
                              np.max(np.abs(X) * w, axis=1))


@pytest.mark.parametrize("p", P_VALUES)
def test_of_rows_of_huge_and_tiny_entries(p):
    # a nonzero row whose power overflows or underflows is recomputed with
    # its largest modulus factored out, as in __call__, without a
    # RuntimeWarning (pytest makes one an error); other rows keep every bit
    X = np.array([[1e200, 0.1, 1j], [1e-200, 1e-200j, 0.0], [0.3, -2.0, 1j],
                  [1e200j, 1e-200, 3e199], [0.0, 0.0, 0.0]])
    for w in (None, np.array([0.5, 2.0, 1.5])):
        norm = NormSpec(p, weights=w)
        got = norm.of_rows(X)
        np.testing.assert_allclose(got, [norm(row) for row in X], rtol=1e-13)
        assert got[2] == norm.of_rows(X[2:3])[0]
        assert got[4] == 0.0


@pytest.mark.parametrize("p", P_VALUES)
def test_of_rows_past_the_float_range_is_inf(p):
    # a row whose norm exceeds the float range is inf, as in __call__,
    # without a RuntimeWarning (pytest makes one an error)
    X = np.array([[1e308, 1e308], [1.0, 2.0]])
    for w in (None, np.array([2.0, 0.5])):
        norm = NormSpec(p, weights=w)
        got = norm.of_rows(X)
        assert got[1] == norm(X[1])
        assert got[0] == norm(X[0])
        assert np.isinf(got[0]) == (p == 1.0 or (p == np.inf and w is not None))


@pytest.mark.parametrize("p", P_VALUES)
def test_of_squared_rows_matches_of_rows(rng, p):
    X = random_vec(rng, 7 * 40, "complex").reshape(40, 7)
    X[3] = 0.0
    for w in (None, rng.uniform(0.5, 2.0, 7)):
        norm = NormSpec(p, weights=w)
        np.testing.assert_allclose(
            norm.of_squared_rows(np.abs(X) ** 2), norm.of_rows(X), rtol=1e-14)
    # weights whose squares overflow
    norm = NormSpec(p, weights=np.array([1e300, 1.0, 1e-300, 1.0, 1.0, 1.0, 1.0]))
    np.testing.assert_allclose(
        norm.of_squared_rows(np.abs(X) ** 2), norm.of_rows(X), rtol=1e-14)
    with pytest.raises(InputError):
        norm.of_squared_rows(np.ones((2, 3)))


def test_perp_measure_is_norm_of_profile(rng):
    f = random_vec(rng, 5, "complex")
    g = random_vec(rng, 5, "complex")
    norm = NormSpec(np.inf)
    assert perp_measure(f, g, norm) == norm(perp_profile(f, g))


def test_perp_profile_symmetric(rng):
    f = random_vec(rng, 7, "complex")
    g = random_vec(rng, 7, "complex")
    np.testing.assert_allclose(perp_profile(f, g), perp_profile(g, f), atol=0)


def test_as_vector_validation():
    with pytest.raises(InputError):
        as_vector([[1.0, 2.0]])
    with pytest.raises(InputError):
        as_vector([])
    with pytest.raises(InputError):
        as_vector([1.0, np.nan])
    with pytest.raises(InputError):
        as_vector([1.0, np.inf])
    with pytest.raises(InputError):
        as_vector([1.0 + 1j], field="real")
    v = as_vector([1, 2], field="real")
    assert v.dtype == np.float64
    # a strided complex column is checked like any other vector
    B = np.array([[1.0 + 1j, 2.0], [3.0, np.inf * 1j]])
    np.testing.assert_array_equal(as_vector(B[0, :]), B[0, :])
    np.testing.assert_array_equal(as_vector(B[:, 0]), B[:, 0])
    with pytest.raises(InputError):
        as_vector(B[:, 1])


def test_check_same_dim():
    with pytest.raises(InputError):
        check_same_dim(np.zeros(2), np.zeros(3))
    check_same_dim(np.zeros(4), np.zeros(4), np.zeros(4))


def test_norm_spec_validation():
    with pytest.raises(InputError):
        NormSpec(0.5)
    with pytest.raises(InputError):
        NormSpec(2.0, weights=np.array([1.0, -1.0]))
    with pytest.raises(InputError):
        NormSpec(2.0, weights=np.array([[1.0, 1.0]]))
    with pytest.raises(InputError):
        NormSpec(2.0, weights=np.array([1.0, 2.0]))(np.zeros(3))


def test_ambient_validation():
    with pytest.raises(InputError):
        Ambient(0, "real", NormSpec(2.0))
    with pytest.raises(InputError):
        Ambient(3, "quaternion", NormSpec(2.0))
    with pytest.raises(InputError):
        Ambient(3, "real", NormSpec(2.0, weights=np.ones(2)))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, np.inf])
def test_norm_of_huge_and_tiny_entries(p):
    # the power overflows or underflows; the largest modulus is factored out
    # without a RuntimeWarning (pytest makes one an error)
    norm = NormSpec(p)
    assert norm(np.array([1e200, 0.1, 0.0])) == pytest.approx(1e200, rel=1e-15)
    assert norm(np.array([1e-200, 1e-200])) == pytest.approx(
        1e-200 * (1.0 if np.isinf(p) else 2.0 ** (1.0 / p)), rel=1e-15)
    assert norm(np.zeros(3)) == 0.0
    assert NormSpec(p, weights=np.array([1e300, 1.0]))(np.array([1e10, 0.0])) \
        == pytest.approx(1e10 * (1e300 if np.isinf(p) else 1e300 ** (1.0 / p)), rel=1e-14)


def _plain_norm(x, p, w):
    # the formula without the rescale, as NormSpec evaluated every norm
    # before huge and tiny entries were handled
    a = np.abs(x)
    if np.isinf(p):
        return float(np.max(a * w))
    if p == 1.0:
        return float(np.sum(a * w))
    if p == 2.0:
        return float(np.sqrt(np.sum((a * a) * w)))
    return float(np.sum((a ** p) * w) ** (1.0 / p))


@pytest.mark.parametrize("p, exponents", [(2.0, range(510, 541, 3)), (3.0, range(340, 361, 2))])
def test_norm_of_vectors_in_the_subnormal_window(rng, p, exponents):
    # scaling by 2^-k is exact, so the norm must scale with it; in these
    # windows the powers of some entries are subnormal, which the plain
    # formula would keep.  Rows have largest modulus 1/2, so at p = 3 the
    # whole window lies below the rescale floor: above it the plain
    # formula's rounded exponent 1/3, amplified by |log| of the powered
    # sum, costs up to about 1.3e-14 relative at this scale
    for field in ("real", "complex"):
        for w in (None, rng.uniform(0.5, 2.0, 6)):
            norm = NormSpec(p, weights=w)
            X = random_vec(rng, 6 * 5, field).reshape(5, 6)
            X[1, :3] *= 1e-3
            X /= 2.0 * np.max(np.abs(X), axis=1)[:, None]
            for k in exponents:
                Y = ldexp(X, -k)
                want = np.ldexp(norm.of_rows(X), -k)
                np.testing.assert_allclose(norm.of_rows(Y), want, rtol=1e-15, atol=0)
                np.testing.assert_allclose([norm(y) for y in Y], want, rtol=1e-15, atol=0)


def test_norm_keeps_every_finite_nonzero_result(rng):
    # the rescaled path runs only on inf or 0, so ordinary results keep
    # every bit of the plain formula
    for p in (1.0, 2.0, 3.0, np.inf):
        w = rng.uniform(0.5, 2.0, 5)
        norm = NormSpec(p, weights=w)
        for scale in (1e-100, 1.0, 1e100):
            x = scale * random_vec(rng, 5, "complex")
            assert norm(x) == _plain_norm(x, p, w)
