"""Truncated vector-valued Hardy space and block-Toeplitz analytic symbols.

The truncated space holds E-valued polynomials of degree <= N, stored
degree-major: the coefficient of z^n occupies coordinates
[n*d, (n+1)*d) where d = dim E.  Analytic (lower-triangular) block-Toeplitz
matrices represent multiplication operators compressed to that grid;
``model_pencils`` gives the pencil triple of a coefficient pair, and ``pencil_apply``
multiplies by the matrix of a degree-one pencil block by block, without forming it.

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
    "model_pencils",
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


def model_pencils(f1, f2) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Coefficients (c0, c1) of F1* + F2 z, F2* + F1 z and z I (in F1's dtype), for ``pencil_apply`` or
    ``toeplitz(AnalyticSymbol((c0, c1)), n)``; F1, F2 square of one shape, ShapeError otherwise."""
    f1 = ensure_matrix(f1, square=True, name="F1")
    f2 = ensure_matrix(f2, square=True, name="F2")
    if f1.shape != f2.shape:
        raise ShapeError(f"F1, F2 shapes differ: {f1.shape}, {f2.shape}")
    eye = np.eye(f1.shape[0], dtype=f1.dtype)
    return (f1.conj().T, f2), (f2.conj().T, f1), (np.zeros_like(eye), eye)


def pencil_apply(c0: np.ndarray, c1: np.ndarray, q: np.ndarray, adjoint: bool = False) -> np.ndarray:
    """X q, or X* q with ``adjoint``, for X = toeplitz(AnalyticSymbol((c0, c1)), n), the
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
