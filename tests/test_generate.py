"""Instance generators: determinism, family contracts, validity."""

from __future__ import annotations

import numpy as np
import pytest

from tetralab.bidisc import build as build_grid, flat_index, grid_dim
from tetralab.generate import (
    FAMILIES,
    companion_unitary,
    make_instance,
    suite,
)
from tetralab.matcore import commutator, op_norm
from tetralab.triples import is_pure, necessary_report


def test_families_are_fixed():
    assert FAMILIES == ("symbols", "compressions", "scalars")


def test_make_instance_is_deterministic():
    a = make_instance("symbols", seed=99, index=4, dim=3, degree=4)
    b = make_instance("symbols", seed=99, index=4, dim=3, degree=4)
    assert np.array_equal(a.triple.A, b.triple.A)
    assert np.array_equal(a.triple.B, b.triple.B)
    assert np.array_equal(a.triple.P, b.triple.P)


def test_instances_differ_across_indices_and_seeds():
    base = make_instance("scalars", seed=1, index=0, dim=6, degree=4)
    other_index = make_instance("scalars", seed=1, index=1, dim=6, degree=4)
    other_seed = make_instance("scalars", seed=2, index=0, dim=6, degree=4)
    assert not np.array_equal(base.triple.P, other_index.triple.P)
    assert not np.array_equal(base.triple.P, other_seed.triple.P)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_instance("nonsense", seed=1, index=0, dim=3, degree=4)


def test_suite_round_robin_and_labels():
    instances = suite(seed=5, count=7, dim=3, degree=4)
    assert len(instances) == 7
    assert [i.family for i in instances[:3]] == list(FAMILIES)
    assert instances[0].label == "symbols[0]"
    assert instances[3].label == "symbols[1]"
    assert instances[5].label == "scalars[1]"
    assert instances[6].label == "symbols[2]"


def test_all_generated_instances_validate():
    for inst in suite(seed=13, count=9, dim=4, degree=4):
        rep = necessary_report(inst.triple)
        assert rep.overall, (inst.label, [e.name for e in rep.failures])


def test_symbols_family_contracts():
    # even indices: commuting normal pairs; odd indices: twisted pairs with
    # exactly balanced self-commutators; both pure (shift-based model)
    even = make_instance("symbols", seed=17, index=0, dim=3, degree=4)
    odd = make_instance("symbols", seed=17, index=1, dim=3, degree=4)
    for inst in (even, odd):
        f1, f2 = inst.meta["f1"], inst.meta["f2"]
        assert op_norm(commutator(f1, f2)) < 1e-12
        balance = commutator(f1, f1.conj().T) - commutator(f2, f2.conj().T)
        assert op_norm(balance) < 1e-12
        assert is_pure(inst.triple).pure


def test_compressions_family_is_pure_nilpotent():
    inst = make_instance("compressions", seed=17, index=0, dim=12, degree=4)
    cert = is_pure(inst.triple)
    assert cert.pure
    assert cert.nilpotency_index is not None


@pytest.mark.parametrize("dim, n", [(3, 2), (16, 3), (25, 4), (36, 5), (49, 6)])
def test_staircase_compressions_are_index_blocks(dim, n):
    # every dim <= 12 gives the grid n = 2; these dims reach n = 2 to 6.  The
    # staircase S is down-closed, so X[S, S^c] = 0 for the grid's A, B, P
    # (span S is co-invariant) and the compression V* X V to span S is the
    # index block X[S, S], bit for bit
    for seed in (3, 17, 42):
        inst = make_instance("compressions", seed=seed, index=0, dim=dim, degree=4)
        assert inst.meta["grid"] == n
        grid = build_grid(n)
        stair = [flat_index(n, i, j) for i in range(n + 1) for j in range(inst.meta["heights"][i])]
        rest = np.setdiff1d(np.arange(grid_dim(n)), stair)
        v = np.zeros((grid_dim(n), len(stair)), dtype=complex)
        v[stair, np.arange(len(stair))] = 1.0
        assert inst.triple.dim == len(stair)
        for name in "ABP":
            x = getattr(grid, name)
            assert not x[np.ix_(stair, rest)].any(), (seed, name)
            block = x[np.ix_(stair, stair)]
            assert np.array_equal(block, v.conj().T @ x @ v), (seed, name)
            # the instance is the block in a basis scrambled by a unitary
            assert np.isclose(np.linalg.norm(getattr(inst.triple, name)), np.linalg.norm(block))


def test_scalars_family_invertible_P():
    inst = make_instance("scalars", seed=17, index=0, dim=6, degree=4)
    p = inst.triple.P
    # diagonal-by-construction up to conjugation: check invertibility
    assert np.linalg.matrix_rank(p) == p.shape[0]
    assert is_pure(inst.triple).pure


def test_companion_unitary_deterministic_and_unitary():
    inst = make_instance("symbols", seed=21, index=2, dim=3, degree=4)
    dim = inst.triple.P.shape[0]
    u1 = companion_unitary(inst, dim)
    u2 = companion_unitary(inst, dim)
    assert np.array_equal(u1, u2)
    assert op_norm(u1 @ u1.conj().T - np.eye(dim)) < 1e-12
    # and independent of the instance's own stream: the triple is unchanged
    again = make_instance("symbols", seed=21, index=2, dim=3, degree=4)
    assert np.array_equal(inst.triple.A, again.triple.A)
