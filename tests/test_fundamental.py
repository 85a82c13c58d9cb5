"""Fundamental-equation solver and the identity batteries around it.

The scalar case has a closed form that pins the solver down: with defect
d^2 = 1 - |p|^2 the equations read d F1 d = a - conj(b) p and
d F2 d = b - conj(a) p, so F1 = (a - conj(b) p) / (1 - |p|^2) exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tetralab.fundamental import (
    SolveFailedError,
    solve_fundamental,
    verify_commutator_transfer,
    verify_cross_relations,
    verify_difference_identity,
    verify_tetra_characterization,
)
from tetralab.generate import make_instance
from tetralab.matcore import DEFAULT_POLICY, RANK_TOL, numerical_radius, op_norm
from tetralab.triples import validate

from conftest import (
    assert_residuals_match,
    defect_outside_basis_triples,
    dense_fundamental,
    dense_solve_residual,
    p_triple,
    perturbed,
    projector,
)


def scalar_triple(a, b, p):
    return validate([[a]], [[b]], [[p]])


def closed_form_f1(a, b, p):
    return (a - np.conj(b) * p) / (1.0 - abs(p) ** 2)


SCALAR_POINTS = [
    (0.3, 0.2 + 0.1j, 0.05),
    (0.25j, -0.3, 0.4),
    (0.5, 0.0, 0.0),
    (0.1 - 0.2j, 0.3 + 0.1j, -0.35j),
]


@pytest.mark.parametrize("a,b,p", SCALAR_POINTS)
def test_scalar_closed_form(a, b, p):
    pair = solve_fundamental(scalar_triple(a, b, p))
    assert pair.F1[0, 0] == pytest.approx(closed_form_f1(a, b, p), abs=1e-12)
    assert pair.F2[0, 0] == pytest.approx(closed_form_f1(b, a, p), abs=1e-12)
    assert pair.solve_residual < 1e-12


def lstsq_oracle(dtil, rhs, rank_tol):
    """Solve Dt F Dt = rhs as one Kronecker least-squares system, O(r^6)."""
    r = dtil.shape[0]
    m = np.kron(dtil.T, dtil)
    sol, *_ = np.linalg.lstsq(m, rhs.reshape(-1, order="F"), rcond=rank_tol)
    return sol.reshape((r, r), order="F")


def test_methods_agree(small_suite, pol):
    # the pseudoinverse route and a least-squares solve of the vectorized
    # compressed equation must produce the same operators: the restricted
    # solution is unique
    for inst in small_suite:
        t = inst.triple
        q = t.dp.basis
        dtil = q.conj().T @ t.dp.op @ q
        pair = solve_fundamental(t, pol)
        for f, rhs in (
            (pair.F1, t.A - t.B.conj().T @ t.P),
            (pair.F2, t.B - t.A.conj().T @ t.P),
        ):
            oracle = lstsq_oracle(dtil, q.conj().T @ rhs @ q, RANK_TOL)
            assert op_norm(f - oracle) < 1e-9, inst.label


def test_unsolvable_when_defect_vanishes():
    # P unitary makes D_P = 0; the right-hand side A - B* P = 0.5 cannot be
    # represented, so the equations have no solution at all
    with pytest.raises(SolveFailedError):
        solve_fundamental(scalar_triple(0.5, 0.0, 1.0))


def test_solution_supported_on_defect_space():
    # F lives on range(D_P); its embedding back into the ambient space must
    # vanish on the orthogonal complement
    inst = make_instance("compressions", seed=3, index=0, dim=12, degree=4)
    pair = solve_fundamental(inst.triple)
    f1_full = pair.basis.basis @ pair.F1 @ pair.basis.basis.conj().T
    comp = np.eye(f1_full.shape[0]) - projector(pair.basis)
    assert op_norm(comp @ f1_full) < 1e-12
    assert op_norm(f1_full @ comp) < 1e-12


def test_radius_bound_certificates(small_suite):
    for inst in small_suite:
        pair = solve_fundamental(inst.triple)
        for f in (pair.F1, pair.F2):
            w, err = numerical_radius(f, 1.0 + DEFAULT_POLICY.eq_tol)
            assert w <= 1.0 + err + 1e-12, inst.label


def radius_entry(f1):
    """The radius_F1 entry of the characterization report for a pair with F1 = f1."""
    triple = p_triple(0.5 * np.eye(f1.shape[0]))
    pair = dataclasses.replace(solve_fundamental(triple), F1=f1)
    [entry] = [e for e in verify_tetra_characterization(triple, pair).entries if e.name == "radius_F1"]
    return entry


def ellipse(w):
    """[[t, 1/2], [0, 0]] with numerical radius w: its field of values is the
    ellipse with foci 0 and t and minor axis 1/2, so w = t/2 + sqrt(t^2/4 + 1/16)."""
    t = (4.0 * w * w - 0.25) / (4.0 * w)
    return np.array([[t, 0.5], [0.0, 0.0]])


def test_radius_above_one_fails():
    # w(F1) = 1.005: the lower end of the bracket already exceeds 1 + eq_tol
    entry = radius_entry(np.diag([1.005, 0.3, 0.1, 0.0]))
    assert not entry.skipped
    assert not entry.passed
    assert entry.residual > 0.005


def test_radius_one_at_a_corner_passes():
    # w(diag(1, 0)) = 1 is attained at a corner of the field of values, where
    # the polygon's vertices are exact: the upper bound is 1 + rounding
    entry = radius_entry(np.diag([1.0, 0.0]))
    assert not entry.skipped
    assert entry.passed


def test_radius_bracket_straddling_one_is_skipped():
    # w(2 JORDAN) = 1 on a round field of values: no bisection budget brings
    # the polygon within eq_tol of the unit disc, so the check records the
    # bracket instead of a pass
    entry = radius_entry(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert entry.skipped
    assert "straddles" in entry.note


@pytest.mark.parametrize("w, passed", [(1.0 - 1e-7, True), (1.0 + 1e-7, False)])
def test_radius_of_an_ellipse_within_1e7_of_one_is_decided(w, passed):
    # the grid polygon alone leaves 1 - 1e-7 undecided; bisecting the edges
    # near the real axis decides it, while 1 + 1e-7 fails on the grid
    f1 = ellipse(w)
    lower, err = numerical_radius(f1)
    assert lower == pytest.approx(w, abs=1e-14)
    assert lower + err > 1.0 + DEFAULT_POLICY.eq_tol
    entry = radius_entry(f1)
    assert not entry.skipped
    assert entry.passed == passed


# ----------------------------------------------------- identity batteries


@pytest.mark.parametrize("family", ["symbols", "compressions", "scalars"])
@pytest.mark.parametrize("index", [0, 1, 2])
def test_identity_batteries(family, index):
    dim = {"symbols": 3, "compressions": 12, "scalars": 6}[family]
    inst = make_instance(family, seed=2026, index=index, dim=dim, degree=4)
    triple = inst.triple
    pair_f = solve_fundamental(triple)
    pair_g = solve_fundamental(triple.adjoint())

    rep = verify_tetra_characterization(triple, pair_f)
    assert rep.overall, (inst.label, [e.name for e in rep.failures])

    rep = verify_difference_identity(triple, pair_f)
    assert rep.overall, (inst.label, [e.name for e in rep.failures])

    rep = verify_cross_relations(triple, pair_f, pair_g)
    assert rep.overall, (inst.label, [e.name for e in rep.failures])

    rep = verify_commutator_transfer(triple, pair_f, pair_g)
    assert rep.overall, (inst.label, [e.name for e in rep.failures])


def test_transfer_on_invertible_scalar_instance():
    # scalars instances have invertible P, so both transfer directions run
    inst = make_instance("scalars", seed=5, index=4, dim=6, degree=4)
    pair_f = solve_fundamental(inst.triple)
    pair_g = solve_fundamental(inst.triple.adjoint())
    rep = verify_commutator_transfer(inst.triple, pair_f, pair_g)
    names = {e.name for e in rep.entries if not e.skipped}
    # forward conclusions and the converse direction all materialize
    assert {"balance_F", "transfer_G_commute", "balance_G", "converse_F_commute"} <= names
    assert rep.overall, [e.name for e in rep.failures]
    assert not rep.skipped


def test_transfer_skips_when_range_not_dense():
    # symbols instances have nilpotent P: range is not dense, hypothesis out
    inst = make_instance("symbols", seed=5, index=0, dim=3, degree=4)
    pair_f = solve_fundamental(inst.triple)
    pair_g = solve_fundamental(inst.triple.adjoint())
    rep = verify_commutator_transfer(inst.triple, pair_f, pair_g)
    assert rep.skipped


def test_pair_keeps_its_norms_and_a_replaced_pair_recomputes_them(monkeypatch):
    import tetralab.fundamental

    pair = solve_fundamental(make_instance("scalars", seed=43, index=0, dim=4, degree=4).triple)
    assert pair.norms == (op_norm(pair.F1), op_norm(pair.F2))
    calls = []
    monkeypatch.setattr(tetralab.fundamental, "op_norm", lambda m: calls.append(m.shape) or op_norm(m))
    assert pair.norms == (op_norm(pair.F1), op_norm(pair.F2))
    assert calls == []  # kept from the first read
    moved = dataclasses.replace(pair, F1=2.0 * pair.F1)
    assert moved.norms == (op_norm(2.0 * pair.F1), op_norm(pair.F2))
    assert len(calls) == 2


def test_defect_space_residuals_equal_the_dense_formulas(small_suite, rng):
    # the solve residual, the characterization, the Gramian difference and
    # the cross relations apply the factors D_P Q, D_{P*} Q_* of the triple;
    # they equal the dense formulas on embedded F and G, for the solved
    # pairs (residuals at rounding) and for pairs moved by 0.1 (O(0.1)); the
    # Gramian difference is moved by multiples of I, which keep [F1, F2].
    # The last two triples keep an eigenvalue 1e-5 of D_P outside range(Q),
    # where a residual that projected D_P onto range(Q) would differ
    gramians = 0
    edges = defect_outside_basis_triples()
    assert all(t.dp.rank == 1 and np.linalg.eigvalsh(t.dp.op)[0] > 9e-6 for t in edges)
    for t in [inst.triple for inst in small_suite] + edges:
        pair_f, pair_g = solve_fundamental(t), solve_fundamental(t.adjoint())
        dense = dense_solve_residual(t, pair_f)
        assert abs(pair_f.solve_residual - dense) <= 1e-13 * (1.0 + t.max_norm())
        eye = np.eye(len(pair_f.F1))
        shifted = dataclasses.replace(pair_f, F1=pair_f.F1 + 0.1 * eye, F2=pair_f.F2 - 0.1j * eye)
        moved = perturbed(pair_f, rng), perturbed(pair_g, rng), shifted
        for f, g, gram in ((pair_f, pair_g, pair_f), moved):
            reports = (
                verify_tetra_characterization(t, f),
                verify_difference_identity(t, gram),
                verify_cross_relations(t, f, g),
            )
            entries = {e.name: e.residual for rep in reports for e in rep.entries if not e.skipped}
            expected = dense_fundamental(t, f, g)
            expected["gramian_difference"] = dense_fundamental(t, gram, g)["gramian_difference"]
            if "gramian_difference" not in entries:
                del expected["gramian_difference"]
            gramians += "gramian_difference" in expected
            assert_residuals_match(entries, expected, "")
    assert gramians == 16
