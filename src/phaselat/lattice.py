"""Finite-dimensional real and complex Banach lattice primitives.

Vectors are one-dimensional numpy arrays ordered coordinatewise; a complex
vector lives in the complexification of the real lattice and its modulus is
taken coordinatewise. Norms are weighted p-norms of the modulus, which are
exactly the absolute (lattice-compatible) norms this package works with.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseLatError",
    "NormSpec",
    "Ambient",
    "as_vector",
    "check_same_dim",
    "meet",
    "join",
    "modulus",
    "abs_prod_sqrt",
    "re_prod",
    "perp_profile",
    "perp_measure",
]


class PhaseLatError(Exception):
    """Base class for domain errors raised by this package."""


def as_vector(x, field="complex"):
    """Validate and cast x to a finite 1-d float64 or complex128 array."""
    dtype = np.complex128 if field == "complex" else np.float64
    if field == "real" and np.iscomplexobj(x) and np.any(np.asarray(x).imag != 0):
        raise ValueError("real ambient field cannot hold complex entries")
    v = np.asarray(x, dtype=dtype)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v.view(np.float64))):
        raise ValueError("vector entries must be finite")
    return v


def check_same_dim(*vecs):
    dims = {np.shape(v)[0] for v in vecs}
    if len(dims) != 1:
        raise ValueError(f"dimension mismatch: {sorted(dims)}")


def require_independent(mat, err):
    """Raise ``err`` unless the 2-d array has numerically full rank.

    The rank test shared by every caller: the smallest singular value must
    exceed 1e-10 times the largest.
    """
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise err


def meet(x, y):
    """Coordinatewise infimum x ^ y of two real vectors."""
    x, y = np.asarray(x), np.asarray(y)
    check_same_dim(x, y)
    return np.minimum(x, y)


def join(x, y):
    """Coordinatewise supremum x v y of two real vectors."""
    x, y = np.asarray(x), np.asarray(y)
    check_same_dim(x, y)
    return np.maximum(x, y)


def modulus(z):
    """Coordinatewise modulus |z|; the absolute value for real vectors."""
    return np.abs(np.asarray(z))


def abs_prod_sqrt(x, y):
    """Coordinatewise |x * y|^(1/2) of two real vectors."""
    x, y = np.asarray(x), np.asarray(y)
    check_same_dim(x, y)
    return np.sqrt(np.abs(x * y))


def re_prod(f, g):
    """Coordinatewise Re(f * conj(g)); reduces to f * g on real vectors."""
    f, g = np.asarray(f), np.asarray(g)
    check_same_dim(f, g)
    return (f * np.conj(g)).real


def perp_profile(f, g):
    """Coordinatewise |Re(f * conj(g))|^(1/2), the perpendicularity profile."""
    return np.sqrt(np.abs(re_prod(f, g)))


def perp_measure(f, g, norm):
    """Norm of the perpendicularity profile of the pair (f, g)."""
    return norm(perp_profile(f, g))


@dataclass(frozen=True, eq=False)
class NormSpec:
    """Weighted p-norm (sum_i w_i |x_i|^p)^(1/p), max_i w_i |x_i| for p = inf.

    Weights must be strictly positive; the default is all ones. Every such
    norm is monotone on moduli: |x| <= |y| coordinatewise implies
    norm(x) <= norm(y).
    """

    p: float = 2.0
    weights: np.ndarray | None = None

    def __post_init__(self):
        p = float(self.p)
        if not (p >= 1.0):
            raise ValueError(f"p must satisfy 1 <= p <= inf, got {self.p}")
        object.__setattr__(self, "p", p)
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise ValueError("weights must be a 1-d array of positive finite reals")
            object.__setattr__(self, "weights", w)

    def _weighted(self, a):
        # a is |x| for p = inf and |x|^p otherwise; weights scale a itself
        if self.weights is not None:
            if a.shape[-1] != self.weights.shape[0]:
                raise ValueError(
                    f"dimension mismatch: vector has {a.shape[-1]} entries, "
                    f"weights have {self.weights.shape[0]}"
                )
            return a * self.weights
        return a

    def __call__(self, x):
        """Norm of a single vector (real or complex entries)."""
        a = modulus(x)
        if np.isinf(self.p):
            return float(np.max(self._weighted(a)))
        if self.p == 1.0:
            return float(np.sum(self._weighted(a)))
        if self.p == 2.0:
            return float(np.sqrt(np.sum(self._weighted(a * a))))
        return float(np.sum(self._weighted(a ** self.p)) ** (1.0 / self.p))

    def of_rows(self, X):
        """Row-wise norms of a 2-d array; the batched form of __call__."""
        a = modulus(np.asarray(X))
        if np.isinf(self.p):
            return np.max(self._weighted(a), axis=1)
        if self.p == 1.0:
            return np.sum(self._weighted(a), axis=1)
        if self.p == 2.0:
            return np.sqrt(np.sum(self._weighted(a * a), axis=1))
        return np.sum(self._weighted(a ** self.p), axis=1) ** (1.0 / self.p)


@dataclass(frozen=True, eq=False)
class Ambient:
    """Ambient lattice: dimension, scalar field, and lattice norm."""

    dim: int
    field: str
    norm: NormSpec

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.dim}")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.norm.weights is not None and self.norm.weights.shape[0] != self.dim:
            raise ValueError("norm weights length must match ambient dimension")
