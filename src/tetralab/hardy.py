"""Truncated vector-valued Hardy space and block-Toeplitz analytic symbols.

The truncated space holds E-valued polynomials of degree <= N, stored
degree-major: the coefficient of z^n occupies coordinates
[n*d, (n+1)*d) where d = dim E.  Analytic (lower-triangular) block-Toeplitz
matrices represent multiplication operators compressed to that grid.

A useful exact fact drives the tests in this module: for analytic symbols,
compression to the grid commutes with multiplication, because analytic
multipliers never lower the degree.  Hence the truncated Toeplitz matrix of
a product equals the product of truncated Toeplitz matrices, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import ShapeError, ensure_matrix

__all__ = [
    "TruncatedHardy",
    "AnalyticSymbol",
    "shift",
    "toeplitz",
    "pencil",
    "symbol_product",
]


@dataclass(frozen=True)
class TruncatedHardy:
    """Polynomial degrees 0..max_degree with fiber dimension fiber_dim."""

    max_degree: int
    fiber_dim: int

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError(f"max_degree must be >= 0, got {self.max_degree}")
        if self.fiber_dim < 1:
            raise ValueError(f"fiber_dim must be >= 1, got {self.fiber_dim}")

    @property
    def dim(self) -> int:
        return (self.max_degree + 1) * self.fiber_dim

    def block(self, n: int) -> slice:
        """Coordinate slice of the degree-n coefficient."""
        if not 0 <= n <= self.max_degree:
            raise IndexError(f"degree {n} outside 0..{self.max_degree}")
        return slice(n * self.fiber_dim, (n + 1) * self.fiber_dim)

    def degree_projector(self, max_deg: int) -> np.ndarray:
        """Orthogonal projection onto degrees <= max_deg (empty if < 0)."""
        p = np.zeros((self.dim, self.dim), dtype=complex)
        top = min(max_deg, self.max_degree)
        if top >= 0:
            k = (top + 1) * self.fiber_dim
            p[:k, :k] = np.eye(k)
        return p


@dataclass(frozen=True)
class AnalyticSymbol:
    """Matrix polynomial sum_k coeffs[k] z^k with constant block shape."""

    coeffs: tuple

    def __post_init__(self) -> None:
        if len(self.coeffs) == 0:
            raise ValueError("symbol needs at least one coefficient")
        mats = tuple(ensure_matrix(c, name=f"coeff[{i}]") for i, c in enumerate(self.coeffs))
        shapes = {m.shape for m in mats}
        if len(shapes) != 1:
            raise ShapeError(f"coefficient shapes differ: {sorted(shapes)}")
        object.__setattr__(self, "coeffs", mats)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def d_out(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def d_in(self) -> int:
        return self.coeffs[0].shape[1]

    def __call__(self, z: complex) -> np.ndarray:
        acc = np.zeros_like(self.coeffs[0])
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


def pencil(c0, c1) -> AnalyticSymbol:
    """Degree-one symbol c0 + c1 z."""
    return AnalyticSymbol((ensure_matrix(c0, name="c0"), ensure_matrix(c1, name="c1")))


def symbol_product(s1: AnalyticSymbol, s2: AnalyticSymbol, max_degree: int | None = None) -> AnalyticSymbol:
    """Cauchy product s1(z) s2(z), optionally truncated at max_degree."""
    if s1.d_in != s2.d_out:
        raise ShapeError(f"cannot compose {s1.d_out}x{s1.d_in} with {s2.d_out}x{s2.d_in}")
    deg = s1.degree + s2.degree
    if max_degree is not None:
        deg = min(deg, max_degree)
    out = [np.zeros((s1.d_out, s2.d_in), dtype=complex) for _ in range(deg + 1)]
    for i, a in enumerate(s1.coeffs):
        for j, b in enumerate(s2.coeffs):
            if i + j <= deg:
                out[i + j] += a @ b
    return AnalyticSymbol(tuple(out))


def shift(space: TruncatedHardy) -> np.ndarray:
    """Truncated multiplication by z: degree n -> n + 1, top degree dies."""
    return np.eye(space.dim, k=-space.fiber_dim, dtype=complex)


def toeplitz(sym: AnalyticSymbol, n: int) -> np.ndarray:
    """Compression of multiplication by ``sym`` to degrees 0..n.

    Block (m, k) equals coeffs[m - k] (zero when out of range), so the matrix
    is block lower triangular of shape (d_out*(n+1), d_in*(n+1)).
    """
    if n < 0:
        raise ValueError("truncation degree must be >= 0")
    d_out, d_in = sym.d_out, sym.d_in
    t = np.zeros(((n + 1) * d_out, (n + 1) * d_in), dtype=complex)
    for j, c in enumerate(sym.coeffs):
        if j > n:
            break
        for m in range(j, n + 1):
            t[m * d_out : (m + 1) * d_out, (m - j) * d_in : (m - j + 1) * d_in] = c
    return t
