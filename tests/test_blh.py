"""Shift-invariant subspaces and recovery of the pencil symbols.

Two independent routes meet here: (G1, G2) can be computed by solving the
adjoint fundamental equations directly, or read off from the compression of
the F-pencils to the range of multiplication by Theta_{P*}.  The round-trip
tests assert the two routes agree without sharing any code path.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from tetralab.blh import (
    NotDegreeOneError,
    NotInnerError,
    extract_symbols,
    extraction_roundtrip,
    verify_isometry_propagation,
)
from tetralab.charfn import power_tail, theta_taylor
from tetralab.fundamental import solve_fundamental
from tetralab.generate import make_instance
from tetralab.hardy import AnalyticSymbol, model_pencils, pencil_apply, toeplitz
from tetralab.matcore import ShapeError, TolerancePolicy, op_norm, range_basis

from conftest import fundamental_pairs, p_triple, projector, random_contraction


# --------------------------------------------------- invariant subspaces


def test_check_invariance_for_fundamental_pencils():
    # range(T_theta) for theta = Theta_{P*} is invariant under the F-pencils
    # and the shift: ||(I - Q) X Q|| vanishes on the interior degrees
    inst = make_instance("symbols", seed=19, index=0, dim=3, degree=4)
    triple = inst.triple
    pair_f = solve_fundamental(triple)
    f1, f2 = pair_f.F1, pair_f.F2
    theta = theta_taylor(triple.adjoint(), power_tail(triple)[0] + 1)
    n = theta.degree + 3
    d = theta.d_out
    q = projector(range_basis(toeplitz(theta, n)))
    eye = np.eye((n + 1) * d)
    tol = 1e-10 * (1.0 + max(op_norm(f1), op_norm(f2)))
    for x in (
        toeplitz(AnalyticSymbol((f1.conj().T, f2)), n),
        toeplitz(AnalyticSymbol((f2.conj().T, f1)), n),
        toeplitz(AnalyticSymbol((np.zeros((d, d)), np.eye(d))), n),
    ):
        # the columns of degrees < n
        assert op_norm(((eye - q) @ x @ q)[:, : n * d]) <= tol


# ------------------------------------------------------------- extraction


def test_extract_rejects_non_inner():
    fat = AnalyticSymbol((1.7 * np.eye(2),))
    with pytest.raises(NotInnerError):
        extract_symbols(fat, 0.2 * np.eye(2), 0.1 * np.eye(2), 4)


def test_extract_requires_matching_fibers():
    theta = AnalyticSymbol((np.zeros((2, 2)), np.eye(2)))
    with pytest.raises(ShapeError):
        extract_symbols(theta, np.eye(3), np.eye(3), 4)
    with pytest.raises(ShapeError, match=re.escape("F1, F2 shapes differ: (2, 2), (3, 3)")):
        extract_symbols(theta, 0.1 * np.eye(2), 0.1 * np.eye(3), 4)


def test_extract_requires_enough_degrees():
    theta = AnalyticSymbol((np.zeros((2, 2)), np.eye(2)))
    with pytest.raises(ShapeError):
        extract_symbols(theta, 0.5 * np.eye(2), 0.5 * np.eye(2), 1)


def test_extract_detects_non_invariant_subspace(rng):
    # a genuinely matrix-valued inner theta (degree >= 1, non-scalar) is not
    # invariant under generic constant pencils; the compression then carries
    # degree >= 2 interior mass and the extraction must refuse to return
    # symbols rather than silently truncating them.  (Note theta = z I would
    # NOT work here: the range of multiplication by z is invariant under
    # every analytic multiplier.)
    p = np.array([[0.3, 0.4], [0.0, -0.2]])  # non-normal pure contraction
    p = p_triple(p)
    theta = theta_taylor(p, power_tail(p)[0])
    assert theta.degree >= 2
    f1 = 0.45 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    f2 = 0.45 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    with pytest.raises(NotDegreeOneError):
        extract_symbols(theta, f1, f2, theta.degree + 3)


def blockwise_residuals(theta, f1, f2, n) -> dict[str, float]:
    """The residual families of ``extract_symbols`` by one norm per block of
    the compressions T_theta* T_X T_theta, X the two F-pencils."""
    cut, d = n - theta.degree, theta.d_in
    t_th = toeplitz(theta, n)[:, : (cut + 1) * d]
    mats = [t_th.conj().T @ pencil_apply(c0, c1, t_th) for c0, c1 in model_pencils(f1, f2)[:2]]

    def block(mat, i, j):
        return mat[i * d : (i + 1) * d, j * d : (j + 1) * d]

    pairs = [(i, j) for i in range(cut + 1) for j in range(cut + 1)]
    return {
        "toeplitz_on_interior": max(
            op_norm(block(m, i, j) - block(m, i - min(i, j), j - min(i, j)))
            for m in mats for i, j in pairs if i and j
        ),
        "analytic_on_interior": max(op_norm(block(m, 0, j)) for m in mats for j in range(1, cut + 1)),
        "degree_le_one_on_interior": max(op_norm(block(m, i, 0)) for m in mats for i in range(2, cut + 1)),
        "cross_consistency_1": op_norm(block(mats[0], 1, 0) - block(mats[1], 0, 0).conj().T),
        "cross_consistency_2": op_norm(block(mats[1], 1, 0) - block(mats[0], 0, 0).conj().T),
    }


@pytest.mark.parametrize("seed", range(4))
def test_extract_residual_families_equal_the_blockwise_norms(seed):
    # a tolerance that lets every family through on a subspace that is not
    # invariant: the stacked families must give the bits of the largest
    # block norms, the Toeplitz differences (rounding only, as the
    # compressions are Toeplitz) as well as the residuals of order one
    rng = np.random.default_rng(seed)
    p = p_triple(random_contraction(rng, 2, norm=0.5))
    theta = theta_taylor(p, power_tail(p)[0])
    f1, f2 = (0.45 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) for _ in range(2))
    n = theta.degree + 4
    _, _, rep = extract_symbols(theta, f1, f2, n, TolerancePolicy(eq_tol=1e3))
    got = {e.name: e.residual for e in rep.entries}
    for name, expected in blockwise_residuals(theta, f1, f2, n).items():
        assert expected > 0.0, name
        assert got[name] == expected, name


def test_extract_identity_theta_returns_pencil_constants(rng):
    # theta = I compresses nothing: Phi = T_{F1* + F2 z}, so G1 = F1*, G2 = F2*
    f1 = 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    f2 = 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    theta = AnalyticSymbol((np.eye(2),))
    g1, g2, rep = extract_symbols(theta, f1, f2, 4)
    assert rep.overall
    assert op_norm(g1 - f1.conj().T) < 1e-12
    assert op_norm(g2 - f2.conj().T) < 1e-12


@pytest.mark.parametrize("family,dim", [("symbols", 3), ("compressions", 12), ("scalars", 6)])
def test_extraction_roundtrip_matches_solver(family, dim):
    inst = make_instance(family, seed=23, index=2, dim=dim, degree=4)
    t = inst.triple
    pair_f, pair_g = fundamental_pairs(t)
    g1, g2, rep = extraction_roundtrip(t, pair_f, pair_g, *power_tail(t))
    assert rep.overall, (inst.label, [(e.name, e.residual) for e in rep.failures])
    # the report already compares against the solver; double-check the norm
    assert op_norm(g1 - pair_g.F1) < 1e-8
    assert op_norm(g2 - pair_g.F2) < 1e-8


# ------------------------------------------------------------ propagation


def test_isometry_propagation_battery():
    inst = make_instance("symbols", seed=29, index=0, dim=3, degree=4)
    f1 = inst.meta["f1"]
    f2 = inst.meta["f2"]
    pair_g = solve_fundamental(inst.triple.adjoint())
    rep = verify_isometry_propagation(f1, f2, pair_g.F1, pair_g.F2, n=4)
    assert rep.overall, [e.name for e in rep.failures]
    names = {e.name for e in rep.entries}
    assert any(n.startswith("source_") for n in names)
    assert any(n.startswith("target_") for n in names)


def test_isometry_propagation_vacuous_when_source_fails():
    # a pencil with sup norm above one cannot form its source battery
    rep = verify_isometry_propagation(
        0.9 * np.eye(2), 0.9 * np.eye(2), 0.1 * np.eye(2), 0.1 * np.eye(2), n=4
    )
    assert len(rep.entries) == 1
    assert rep.entries[0].name == "propagation"
    assert rep.entries[0].passed
