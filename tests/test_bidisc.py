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
    near = bidisc.near_border_projector(n)
    far = bidisc.far_border_projector(n)
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
