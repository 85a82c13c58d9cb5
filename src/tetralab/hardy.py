"""Truncated vector-valued Hardy space and block-Toeplitz analytic symbols.

The truncated space holds E-valued polynomials of degree <= N, stored
degree-major: the coefficient of z^n occupies coordinates
[n*d, (n+1)*d) where d = dim E.  Analytic (lower-triangular) block-Toeplitz
matrices represent multiplication operators compressed to that grid;
``pencil_apply`` multiplies by the matrix of a degree-one pencil block by
block, without forming it.

A useful exact fact drives the tests in this module: for analytic symbols,
compression to the grid commutes with multiplication, because analytic
multipliers never lower the degree.  Hence the truncated Toeplitz matrix of
a product equals the product of truncated Toeplitz matrices, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .matcore import ShapeError, ensure_matrix

__all__ = [
    "AnalyticSymbol",
    "toeplitz",
    "pencil",
    "pencil_apply",
]


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


def pencil(c0, c1) -> AnalyticSymbol:
    """Degree-one symbol c0 + c1 z."""
    return AnalyticSymbol((ensure_matrix(c0, name="c0"), ensure_matrix(c1, name="c1")))


def toeplitz(sym: AnalyticSymbol, n: int) -> np.ndarray:
    """Compression of multiplication by ``sym`` to degrees 0..n.

    Block (m, k) equals coeffs[m - k] (zero when out of range), so the matrix
    is block lower triangular of shape (d_out*(n+1), d_in*(n+1)).  Block row
    m is the window of n + 1 blocks from block n - m of the strip
    [coeffs[n], ..., coeffs[0], 0, ..., 0], and one copy gathers them all.
    """
    if n < 0:
        raise ValueError("truncation degree must be >= 0")
    d_out, d_in = sym.d_out, sym.d_in
    strip = np.zeros((d_out, 2 * n + 1, d_in), np.result_type(*sym.coeffs))
    strip[:, max(n - sym.degree, 0) : n + 1] = np.transpose(sym.coeffs[n::-1], (1, 0, 2))
    windows = sliding_window_view(strip.reshape(d_out, (2 * n + 1) * d_in), (n + 1) * d_in, axis=1)
    return windows[:, ::-max(d_in, 1)].transpose(1, 0, 2).copy().reshape((n + 1) * d_out, (n + 1) * d_in)


def pencil_apply(c0: np.ndarray, c1: np.ndarray, q: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """X q, or X* q with ``adjoint``, for X = toeplitz(pencil(c0, c1), n), the
    rows of q in n + 1 degree-major blocks; block by block, X is never formed:
    (X q)_m = c0 q_m + c1 q_{m-1} and (X* q)_m = c0* q_m + c1* q_{m+1}, in the
    dtype the three operands promote to."""
    if adjoint:
        c0, c1 = c0.conj().T, c1.conj().T
    blocks = q.reshape(-1, c0.shape[1], q.shape[1])
    out = (c0 @ blocks).astype(np.result_type(c0, c1, q), copy=False)
    if adjoint:
        out[:-1] += c1 @ blocks[1:]
    else:
        out[1:] += c1 @ blocks[:-1]
    return out.reshape(-1, q.shape[1])
