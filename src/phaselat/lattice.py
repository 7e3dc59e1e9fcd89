"""Finite-dimensional real and complex Banach lattice primitives.

Vectors are one-dimensional numpy arrays ordered coordinatewise; a complex
vector lives in the complexification of the real lattice and its modulus is
taken coordinatewise. Norms are weighted p-norms of the modulus, which are
exactly the absolute (lattice-compatible) norms this package works with.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseLatError",
    "InputError",
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


class InputError(PhaseLatError, ValueError):
    """An argument that no computation can accept; also a ValueError."""


def as_vector(x, field="complex"):
    """Validate and cast x to a finite 1-d float64 or complex128 array."""
    dtype = np.complex128 if field == "complex" else np.float64
    if field == "real" and np.iscomplexobj(x) and np.any(np.asarray(x).imag != 0):
        raise InputError("real ambient field cannot hold complex entries")
    v = np.asarray(x, dtype=dtype)
    if v.ndim != 1 or v.size == 0:
        raise InputError(f"expected a nonempty 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InputError("vector entries must be finite")
    return v


def check_same_dim(*vecs):
    dims = {np.shape(v)[0] for v in vecs}
    if len(dims) != 1:
        raise InputError(f"dimension mismatch: {sorted(dims)}")


def unit_exponent(x):
    """Exponent e that puts the largest real or imaginary part of 2^-e x in
    [1/2, 1); 0 for a zero array."""
    x = np.asarray(x)
    top = max(np.max(np.abs(x.real), initial=0.0), np.max(np.abs(x.imag), initial=0.0))
    return int(np.frexp(top)[1])


def ldexp(x, e):
    """x * 2^e for a real or complex array, exact while the result is normal."""
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        return np.ldexp(x, e)
    out = np.empty(x.shape, dtype=np.complex128)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


def require_independent(mat, err):
    """Raise ``err`` unless the 2-d array has numerically full rank.

    The rank test shared by every caller: the smallest singular value must
    exceed 1e-10 times the largest.
    """
    sv = np.linalg.svd(mat, compute_uv=False)
    if sv[-1] <= 1e-10 * sv[0]:
        raise err


# the largest temporary array a batched evaluation builds: 256 KiB, which
# is 2^15 float64 or 2^14 complex128 entries.  Blocks of this size stay in
# the L2 cache and mostly come back from the heap; a fresh 8 MiB phase grid
# cost about a thousand minor page faults per call, more than its arithmetic
_TILE_BYTES = 1 << 18


def row_tiles(count, row_bytes, least=1):
    """Slices that cut range(count) into near-equal runs of consecutive rows.

    Each run holds at most _TILE_BYTES at row_bytes bytes per row, and at
    least ``least`` rows, whichever is larger; only a count below
    ``least`` gives a shorter (single) run.  Callers whose rows go through
    a BLAS product pass least=2: a one-row product takes the
    matrix-vector path, which rounds differently.  Tiling such a product
    does not keep every bit at every size: OpenBLAS takes its general
    kernel for a large block and its small-matrix kernel for a tile, and
    the two can round the last n mod 8 columns of a K = 2 product an ulp
    apart (seen at n >= 980 with n mod 8 >= 4, and in real fit grids at
    n = 980 and 1500).
    """
    per = max(_TILE_BYTES // max(row_bytes, 1), least)
    runs = max(min(-(-count // per), count // least), 1)
    if runs == 1:
        return [slice(0, count)]
    cuts = [count * i // runs for i in range(runs + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


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
            raise InputError(f"p must satisfy 1 <= p <= inf, got {self.p}")
        object.__setattr__(self, "p", p)
        # the floor of any row of up to 2^64 entries: above it no row rescales
        object.__setattr__(self, "_floor_cap", self._floor(2.0 ** 64))
        if self.weights is not None:
            w = np.asarray(self.weights, dtype=np.float64)
            if w.ndim != 1 or not np.all(np.isfinite(w)) or np.any(w <= 0):
                raise InputError("weights must be a 1-d array of positive finite reals")
            object.__setattr__(self, "weights", w)

    def _weights_for(self, n):
        # the weights, or None, checked against a vector of n entries
        if self.weights is not None and n != self.weights.shape[0]:
            raise InputError(
                f"dimension mismatch: vector has {n} entries, "
                f"weights have {self.weights.shape[0]}"
            )
        return self.weights

    def _weighted(self, a):
        # a is |x| for p = inf and |x|^p otherwise; weights scale a itself
        w = self._weights_for(a.shape[-1])
        return a if w is None else a * w

    def _of_moduli(self, a):
        # array methods and math.sqrt: the same reductions as np.max /
        # np.sum / np.sqrt, with less call overhead
        p = self.p
        if p == math.inf:
            return float(self._weighted(a).max())
        if p == 1.0:
            return float(self._weighted(a).sum())
        if p == 2.0:
            return math.sqrt(self._weighted(a * a).sum())
        return float(self._weighted(a ** p).sum() ** (1.0 / p))

    def _floor(self, n):
        # below this norm a sum of n powers may hold subnormal terms that
        # cost over half an ulp; no power is taken at p in {1, inf}
        return 0.0 if self.p in (1.0, math.inf) else (n * 2.0 ** -1021) ** (1.0 / self.p)

    def __call__(self, x):
        """Norm of a single vector (real or complex entries).

        A result that overflows, or falls below the floor where subnormal
        powers can blur it, is recomputed on a nonzero vector with the
        largest modulus factored out; every other result is the plain one.
        """
        a = modulus(x)
        with np.errstate(over="ignore"):
            r = self._of_moduli(a)
            if a.size and not (self._floor_cap < r < math.inf
                               or self._floor(a.size) < r < math.inf):
                s = float(a.max())
                if 0.0 < s < math.inf:
                    r = s * self._of_moduli(a / s)
        return r

    def of_rows(self, X):
        """Row-wise norms of a 2-d array; the batched form of __call__.

        As in __call__, a nonzero row that overflows or falls below the floor
        is recomputed with its largest modulus factored out.
        """
        a = modulus(np.asarray(X))
        if self.p == math.inf and self.weights is None:
            return _row_max(a)
        # a weighted maximum or a sum past the float range is inf, as in
        # __call__
        with np.errstate(over="ignore"):
            if self.p == math.inf:
                return _row_max(self._weighted(a))
            if self.p == 1.0:
                return np.sum(self._weighted(a), axis=1)
            r = self._powered_rows(a)
            if r.size and not (self._floor_cap < r.min() and r.max() < math.inf):
                s = a.max(axis=1, initial=0.0)
                redo = (r <= self._floor(a.shape[1])) | np.isinf(r)
                redo &= (s > 0.0) & (s < math.inf)
                if redo.any():
                    s = s[redo]
                    r[redo] = s * self._powered_rows(a[redo] / s[:, None])
        return r

    def _powered_rows(self, a):
        # row norms of moduli a at 1 < p < inf, without rescaling
        if self.p == 2.0:
            return np.sqrt(np.sum(self._weighted(a * a), axis=1))
        return np.sum(self._weighted(a ** self.p), axis=1) ** (1.0 / self.p)

    def of_squared_rows(self, Q):
        """Row-wise norms from squared moduli: of_rows(X) for Q = |X|**2.

        Q must be nonnegative, and small enough that its weighted powers
        do not overflow. At p = inf the weighted maximum of Q is taken
        first, so only one square root is computed per row.
        """
        if self.p == math.inf:
            w = self._weights_for(Q.shape[-1])
            if w is None:
                return np.sqrt(_row_max(Q))
            # weights squared relative to the largest, so none overflows
            top = float(w.max())
            return top * np.sqrt(_row_max(Q * (w / top) ** 2))
        # Q^(3/2) as Q sqrt(Q): a multiply and a square root cost less
        # than a general power, and only pick screen brackets
        P = Q * np.sqrt(Q) if self.p == 3.0 else Q ** (0.5 * self.p)
        return np.sum(self._weighted(P), axis=1) ** (1.0 / self.p)


# rows of at most this many entries are reduced to their maximum column by
# column: np.maximum over the strided columns beats np.max(axis=1) there (2x
# at 16 entries, over 10x at 4 to 8), and is several times slower on long rows
_COLUMN_MAX = 16


def _row_max(a):
    # np.max(a, axis=1); a max is exact in any order, so both ways agree
    if not 0 < a.shape[1] <= _COLUMN_MAX:
        return np.max(a, axis=1)
    r = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(r, a[:, j], out=r)
    return r


@dataclass(frozen=True, eq=False)
class Ambient:
    """Ambient lattice: dimension, scalar field, and lattice norm."""

    dim: int
    field: str
    norm: NormSpec

    def __post_init__(self):
        if self.dim < 1:
            raise InputError(f"ambient dimension must be >= 1, got {self.dim}")
        if self.field not in ("real", "complex"):
            raise InputError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.norm.weights is not None and self.norm.weights.shape[0] != self.dim:
            raise InputError("norm weights length must match ambient dimension")
