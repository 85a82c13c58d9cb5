"""Commuting-shift grid example: exactness, patterns, truncation consistency.

Everything on this grid is 0/1 combinatorics, so assertions here demand
literal zeros (or EXACT_TOL), never the looser policy tolerances.
"""

from __future__ import annotations

import numpy as np
import pytest

from tetralab import bidisc
from tetralab.charfn import build_model
from tetralab.fundamental import solve_fundamental
from tetralab.matcore import op_norm
from tetralab.triples import is_pure

from conftest import fundamental_pairs


def test_grid_indexing():
    assert bidisc.grid_dim(3) == 16
    assert bidisc.flat_index(3, 0, 0) == 0
    assert bidisc.flat_index(3, 2, 1) == 9
    with pytest.raises(ValueError):
        bidisc.flat_index(3, 4, 0)
    with pytest.raises(ValueError):
        bidisc.grid_dim(0)


def test_triple_structure():
    n = 3
    t = bidisc.build(n)
    # A and B are coordinate shifts; P = AB = BA is the diagonal shift
    assert np.array_equal(t.P, t.A @ t.B)
    assert np.array_equal(t.P, t.B @ t.A)
    cert = is_pure(t)
    assert cert.pure and cert.nilpotency_index == n + 1


def test_defect_projectors_are_borders():
    n = 4
    t = bidisc.build(n)
    bb = bidisc.border_embedding(n)
    bf = bidisc.border_embedding(n, far=True)
    near = bb @ bb.conj().T
    far = bf @ bf.conj().T
    dim = bidisc.grid_dim(n)
    assert op_norm(np.eye(dim) - t.P @ t.P.conj().T - near) == 0.0
    assert op_norm(np.eye(dim) - t.P.conj().T @ t.P - far) == 0.0
    # borders have 2n + 1 points each
    assert int(np.trace(near).real) == 2 * n + 1
    assert int(np.trace(far).real) == 2 * n + 1


def test_fundamental_ops_entries_are_zero_one():
    n = 3
    g1, g2 = bidisc.fundamental_ops(n)
    f1, f2 = bidisc.forward_fundamental_ops(n)
    for m in (g1, g2, f1, f2):
        vals = np.unique(m.real)
        assert set(vals) <= {0.0, 1.0}
        assert np.all(m.imag == 0.0)
        # at most one nonzero entry per column: shift structure
        assert np.max(np.sum(m.real, axis=0)) <= 1.0


def edge_shift_oracle(n: int) -> tuple[np.ndarray, ...]:
    """G1, G2, F1, F2 written edge by edge, each point of an edge to the next
    one along it, in the border coordinates the near and far point lists give."""
    near = [(0, 0)] + [(k, 0) for k in range(1, n + 1)] + [(0, k) for k in range(1, n + 1)]
    far = [(n, n)] + [(i, n) for i in range(n)] + [(n, j) for j in range(n)]
    assert bidisc.border_points(n) == near and bidisc.border_points(n, far=True) == far
    inear, ifar = ({pt: k for k, pt in enumerate(pts)} for pts in (near, far))
    g1, g2, f1, f2 = (np.zeros((2 * n + 1, 2 * n + 1), dtype=complex) for _ in range(4))
    for k in range(1, n + 1):
        g1[inear[(k - 1, 0)], inear[(k, 0)]] = 1.0
        g2[inear[(0, k - 1)], inear[(0, k)]] = 1.0
    for k in range(n):
        f1[ifar[(k + 1, n)], ifar[(k, n)]] = 1.0
        f2[ifar[(n, k + 1)], ifar[(n, k)]] = 1.0
    return g1, g2, f1, f2


def test_border_shifts_equal_the_edge_by_edge_oracle():
    for n in range(1, 15):
        ops = (*bidisc.fundamental_ops(n), *bidisc.forward_fundamental_ops(n))
        for got, want in zip(ops, edge_shift_oracle(n)):
            assert got.dtype == want.dtype and np.array_equal(got, want), n


def test_embedding_constructions_agree_exactly():
    for n in (2, 3, 5):
        u_direct = bidisc.model_embedding(n)
        u_series = bidisc.model_embedding_series(n)
        assert np.array_equal(u_direct, u_series)
        dim = bidisc.grid_dim(n)
        assert op_norm(u_direct.conj().T @ u_direct - np.eye(dim)) == 0.0


@pytest.mark.parametrize("n", [2, 3, 6])
def test_example_verifies_exactly(n):
    t = bidisc.build(n)
    rep = bidisc.verify_example(t, *fundamental_pairs(t), build_model(t, n))
    assert rep.overall, [(e.name, e.residual) for e in rep.failures]
    for e in rep.entries:
        if not e.skipped and e.residual is not None:
            assert e.residual <= bidisc.EXACT_TOL, (e.name, e.residual)


def test_solver_recovers_patterns():
    n = 3
    t = bidisc.build(n)
    pair_g = solve_fundamental(t.adjoint())
    g1, g2 = bidisc.fundamental_ops(n)
    qb = bidisc.border_embedding(n)
    # move the solver's answer from its eigenbasis to grid coordinates
    conv = pair_g.basis.basis.conj().T @ qb
    for solved, pattern in ((pair_g.F1, g1), (pair_g.F2, g2)):
        back = conv.conj().T @ solved @ conv
        assert op_norm(back - pattern) < 1e-12


# ---------------------------------------------------------- projectivity


def restriction(mat: np.ndarray, n_small: int, n_big: int) -> np.ndarray:
    """Compress a grid operator at size n_big to the sub-grid [0, n_small]^2."""
    idx = [
        bidisc.flat_index(n_big, i, j)
        for i in range(n_small + 1)
        for j in range(n_small + 1)
    ]
    return mat[np.ix_(idx, idx)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_truncations_are_projectively_consistent(n):
    # compressing the size-(n+1) shifts to the sub-grid of indices <= n gives
    # the size-n shifts literally: the whole family is one projective system
    small = bidisc.build(n)
    big = bidisc.build(n + 1)
    assert np.array_equal(restriction(big.A, n, n + 1), small.A)
    assert np.array_equal(restriction(big.B, n, n + 1), small.B)
    assert np.array_equal(restriction(big.P, n, n + 1), small.P)
