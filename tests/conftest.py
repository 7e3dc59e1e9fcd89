import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def random_vec(rng, n, field):
    x = rng.standard_normal(n)
    if field == "complex":
        return x + 1j * rng.standard_normal(n)
    return x


def unit_modulus_pair(n):
    # unit-modulus entries with random phases: at n = 2048 and p in {1, inf}
    # the distance screen brackets many grid minima, which zoom together
    rng = np.random.default_rng(5)
    return np.exp(2j * np.pi * rng.random(n)), np.exp(2j * np.pi * rng.random(n))
