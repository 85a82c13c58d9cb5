"""Truncated Hardy grid and analytic block-Toeplitz operators.

The load-bearing fact: truncation commutes with multiplication for analytic
symbols, so Toeplitz matrices of products factor EXACTLY (residual 0.0, not
just small).  Several tests below assert equality, not approximation.
"""

from __future__ import annotations

import numpy as np
import pytest

from tetralab.charfn import model_pencils
from tetralab.hardy import (
    AnalyticSymbol,
    pencil,
    pencil_apply,
    toeplitz,
)
from tetralab.matcore import ShapeError, op_norm

from conftest import symbol_at, symbol_product, toeplitz_slice_loop


def random_symbol(rng, d: int, deg: int) -> AnalyticSymbol:
    coeffs = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(deg + 1)]
    return AnalyticSymbol(tuple(coeffs))


def compose_residual(s1: AnalyticSymbol, s2: AnalyticSymbol, n: int) -> float:
    """|| T(s1) T(s2) - T(s1 s2 truncated at n) || on degrees 0..n."""
    lhs = toeplitz(s1, n) @ toeplitz(s2, n)
    return op_norm(lhs - toeplitz(symbol_product(s1, s2, max_degree=n), n))


def test_grid_layout(rng):
    # degree-major rows: the degree-n coefficient of a fiber-2 vector sits at
    # rows [2n, 2n + 2), and the pencil c0 + c1 z sends it to c0 at degree n
    # and c1 at degree n + 1; the top degree n = 3 has no successor
    c0, c1 = rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
    for n in range(4):
        q = np.zeros((8, 1), dtype=complex)
        q[2 * n + 1] = 1.0
        expect = np.zeros_like(q)
        expect[2 * n : 2 * n + 2, 0] = c0[:, 1]
        if n < 3:
            expect[2 * n + 2 : 2 * n + 4, 0] = c1[:, 1]
        assert np.array_equal(pencil_apply(c0, c1, q), expect)


def z_times(d: int, n: int) -> np.ndarray:
    """M_z on degrees 0..n with fiber C^d: the Toeplitz matrix of the pencil 0 + I z."""
    return toeplitz(pencil(np.zeros((d, d)), np.eye(d)), n)


def test_shift_moves_degrees_up():
    s = z_times(2, 2)
    vec = np.zeros(6, dtype=complex)
    vec[0] = 1.0  # degree-0 coefficient, fiber coordinate 0
    out = s @ vec
    expect = np.zeros_like(vec)
    expect[2] = 1.0  # degree 1, same fiber coordinate
    assert np.array_equal(out, expect)
    # top degree is annihilated by the truncation
    vec[:] = 0.0
    vec[4] = 1.0
    assert op_norm((s @ vec).reshape(-1, 1)) == 0.0


def test_toeplitz_of_z_equals_shift():
    # M_z is the block subdiagonal identity, exactly
    assert np.array_equal(z_times(2, 3), np.eye(8, k=-2, dtype=complex))


@pytest.mark.parametrize("d_out,d_in,cols", [(2, 2, 3), (3, 2, 1), (2, 3, 4)])
def test_pencil_apply_matches_toeplitz(rng, d_out, d_in, cols):
    c0 = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    c1 = rng.standard_normal((d_out, d_in)) + 1j * rng.standard_normal((d_out, d_in))
    n = 4
    t = toeplitz(pencil(c0, c1), n)
    q = rng.standard_normal((t.shape[1], cols)) + 1j * rng.standard_normal((t.shape[1], cols))
    q_adj = rng.standard_normal((t.shape[0], cols)) + 1j * rng.standard_normal((t.shape[0], cols))
    scale = op_norm(c0) + op_norm(c1)
    assert op_norm(pencil_apply(c0, c1, q) - t @ q) <= 1e-14 * scale * op_norm(q)
    adj = pencil_apply(c0, c1, q_adj, adjoint=True)
    assert op_norm(adj - t.conj().T @ q_adj) <= 1e-14 * scale * op_norm(q_adj)
    # integer data: both sides are exact
    k0, k1 = (rng.integers(-3, 4, size=(d_out, d_in)).astype(complex) for _ in range(2))
    tk = toeplitz(pencil(k0, k1), n)
    qk = rng.integers(-3, 4, size=(tk.shape[1], cols)).astype(complex)
    assert np.array_equal(pencil_apply(k0, k1, qk), tk @ qk)
    qk = rng.integers(-3, 4, size=(tk.shape[0], cols)).astype(complex)
    assert np.array_equal(pencil_apply(k0, k1, qk, adjoint=True), tk.conj().T @ qk)


def test_toeplitz_and_model_pencils_follow_the_dtype_rule(rng):
    # real coefficients (integer and boolean ones included) give a float64
    # Toeplitz matrix and complex ones a complex128 one; one complex
    # coefficient makes the whole matrix complex
    real = [rng.standard_normal((2, 3)) for _ in range(3)]
    cases = [
        (real, np.float64),
        ([rng.integers(-3, 4, size=(2, 3)) for _ in range(3)], np.float64),
        ([c > 0 for c in real], np.float64),
        ([c + 1j * rng.standard_normal((2, 3)) for c in real], np.complex128),
        ([real[0], 1j * real[1]], np.complex128),
    ]
    for coeffs, dtype in cases:
        sym = AnalyticSymbol(tuple(coeffs))
        t = toeplitz(sym, 3)
        assert t.dtype == dtype
        assert np.array_equal(t, toeplitz_slice_loop(sym, 3))
    # the model pencils, and the pencil applied to real data, stay in G1's dtype
    for dtype in (np.float64, np.complex128):
        g1, g2 = (rng.standard_normal((3, 3)).astype(dtype) for _ in range(2))
        q = rng.standard_normal((4 * 3, 2))
        for c0, c1 in model_pencils(g1, g2):
            assert c0.dtype == c1.dtype == dtype
            assert pencil_apply(c0, c1, q).dtype == pencil_apply(c0, c1, q, adjoint=True).dtype == dtype
    # a real c0 and q with a complex c1 promote to complex, as numpy does
    # (integer data, so both sides are exact)
    c0, c1 = rng.integers(-3, 4, size=(2, 2)).astype(float), 1j * rng.integers(-3, 4, size=(2, 2))
    t = toeplitz(pencil(c0, c1), 2)
    q = rng.integers(-3, 4, size=(6, 3)).astype(float)
    assert np.array_equal(pencil_apply(c0, c1, q), t @ q)
    assert np.array_equal(pencil_apply(c0, c1, q, adjoint=True), t.conj().T @ q)


def test_toeplitz_of_constant_is_block_diagonal(rng):
    c = rng.standard_normal((3, 3))
    t = toeplitz(AnalyticSymbol((c,)), 2)
    assert np.array_equal(t, np.kron(np.eye(3), c))


def test_pencil_structure(rng):
    c0 = rng.standard_normal((2, 2))
    c1 = rng.standard_normal((2, 2))
    sym = pencil(c0, c1)
    assert sym.degree == 1
    n = 3
    expect = np.kron(np.eye(n + 1), c0) + z_times(2, n) @ np.kron(np.eye(n + 1), c1)
    assert op_norm(toeplitz(sym, n) - expect) == 0.0


def test_symbol_evaluation(rng):
    sym = random_symbol(rng, 2, 3)
    z = 0.3 - 0.2j
    direct = sum(c * z**k for k, c in enumerate(sym.coeffs))
    assert np.allclose(symbol_at(sym, z), direct, atol=1e-14)


def test_symbol_product_matches_convolution(rng):
    s1 = random_symbol(rng, 2, 2)
    s2 = random_symbol(rng, 2, 3)
    prod = symbol_product(s1, s2)
    assert prod.degree == 5
    z = 0.4 + 0.1j
    assert np.allclose(symbol_at(prod, z), symbol_at(s1, z) @ symbol_at(s2, z), atol=1e-12)
    capped = symbol_product(s1, s2, max_degree=2)
    assert capped.degree == 2
    for a, b in zip(capped.coeffs, prod.coeffs):
        assert np.array_equal(a, b)


# The exactness statement: for analytic symbols the truncated Toeplitz
# matrix of the product equals the product of truncated Toeplitz matrices.
# With integer coefficients both sides are computed without rounding, so the
# equality is literal; for generic coefficients only summation order differs
# and the residual stays at machine precision for every truncation degree
# (a genuine truncation loss would be O(1) and grow with the symbol norms).
def test_toeplitz_composition_exact_on_integer_symbols(rng):
    s1 = AnalyticSymbol(tuple(rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(3)))
    s2 = AnalyticSymbol(tuple(rng.integers(-3, 4, size=(3, 3)).astype(float) for _ in range(3)))
    assert compose_residual(s1, s2, 5) == 0.0
    lhs = toeplitz(s1, 5) @ toeplitz(s2, 5)
    rhs = toeplitz(symbol_product(s1, s2), 5)
    assert np.array_equal(lhs, rhs)


def test_toeplitz_composition_no_truncation_loss(rng):
    for _ in range(5):
        s1 = random_symbol(rng, 3, 2)
        s2 = random_symbol(rng, 3, 2)
        # coefficient sums bound the sup norms of the two symbols
        scale = sum(map(op_norm, s1.coeffs)) * sum(map(op_norm, s2.coeffs))
        for n in (2, 5, 8):
            assert compose_residual(s1, s2, n) < 1e-13 * max(scale, 1.0)


def test_toeplitz_adjoint_is_coanalytic_compression(rng):
    # T_sym* equals the compression of multiplication by sym(z)* conjugate-
    # transposed blockwise: blocks appear on the upper block triangle
    sym = random_symbol(rng, 2, 2)
    t = toeplitz(sym, 4)
    tstar = t.conj().T
    # block (i, j) of T* is coeff[j - i]^*
    for i in range(5):
        for j in range(5):
            blk = tstar[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            if 0 <= j - i <= sym.degree:
                assert np.array_equal(blk, sym.coeffs[j - i].conj().T)
            else:
                assert op_norm(blk) == 0.0


def test_symbol_shape_validation():
    with pytest.raises(ShapeError):
        AnalyticSymbol((np.eye(2), np.eye(3)))  # mismatched fibers
