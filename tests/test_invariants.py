"""Unitary equivalence: coincidence of characteristic functions, transported
fundamental operators, and rejection of corrupted witnesses."""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

from tetralab.charfn import ResolventSingularError, build_model
from tetralab.cli import run_instance_battery
from tetralab.fundamental import solve_fundamental
from tetralab.generate import companion_unitary, make_instance
from tetralab.invariants import (
    CoincidenceWitness,
    NotIntertwiningError,
    _model_transport,
    induced_defect_unitary,
    unitary_invariant_suite,
    verify_coincidence,
    verify_fundamental_equivalence,
)
from tetralab.matcore import DEFAULT_POLICY, ShapeError
from tetralab.triples import validate

from conftest import assert_residuals_match, dense_intertwine, perturbed

SAMPLES = (0.3 + 0.2j, -0.55, 0.1 - 0.6j, 0.72j)


def conjugated_copy(inst, u):
    t = inst.triple
    return validate(u @ t.A @ u.conj().T, u @ t.B @ u.conj().T, u @ t.P @ u.conj().T)


def model_pair(triple, prime) -> dict:
    """The models of ``triple`` and ``prime`` at one degree, as ``verify_coincidence`` takes them."""
    model = build_model(triple)
    return {"model": model, "model_prime": build_model(prime, model.N)}


@pytest.mark.parametrize("family,dim", [("symbols", 3), ("compressions", 12), ("scalars", 6)])
def test_suite_passes_for_conjugated_pairs(family, dim):
    inst = make_instance(family, seed=31, index=0, dim=dim, degree=4)
    u = companion_unitary(inst, inst.triple.P.shape[0])
    prime = conjugated_copy(inst, u)
    t = inst.triple
    rep = unitary_invariant_suite(
        t, prime, u,
        pair_f=solve_fundamental(t), pair_g=solve_fundamental(t.adjoint()), model=build_model(t),
    )
    assert rep.overall, (inst.label, [(e.name, e.residual) for e in rep.failures])
    # forward and converse sections are both present
    names = {e.name for e in rep.entries}
    assert any(n.startswith("fwd_") for n in names)
    assert any(n.startswith("cnv_") for n in names)


def test_induced_witness_is_unitary_on_defects():
    inst = make_instance("compressions", seed=37, index=1, dim=12, degree=4)
    u = companion_unitary(inst, inst.triple.P.shape[0])
    prime = conjugated_copy(inst, u)
    wit = induced_defect_unitary(u, inst.triple, prime)
    assert wit.unitarity_residual < 1e-10
    models = model_pair(inst.triple, prime)
    rep = verify_coincidence(inst.triple, prime, wit, SAMPLES, **models)
    assert rep.overall, [(e.name, e.residual) for e in rep.failures]
    # the coefficients of models of different degree are not comparable
    deeper = build_model(prime, models["model"].N + 1)
    with pytest.raises(ShapeError, match="same truncation degree"):
        verify_coincidence(inst.triple, prime, wit, SAMPLES, model=models["model"], model_prime=deeper)


def test_non_intertwining_map_rejected(rng):
    inst = make_instance("symbols", seed=41, index=0, dim=3, degree=4)
    dim = inst.triple.P.shape[0]
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    prime = conjugated_copy(inst, q)
    # a fresh unrelated unitary does not intertwine the two triples
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    with pytest.raises(NotIntertwiningError):
        induced_defect_unitary(q2, inst.triple, prime)


@pytest.mark.parametrize("outside", [1.5, 2j])
def test_coincidence_refuses_samples_outside_disc(outside):
    # Theta is only defined inside the disc; a sample outside it is refused,
    # not checked against a loosened tolerance
    inst = make_instance("compressions", seed=37, index=1, dim=12, degree=4)
    u = companion_unitary(inst, inst.triple.P.shape[0])
    prime = conjugated_copy(inst, u)
    wit = induced_defect_unitary(u, inst.triple, prime)
    with pytest.raises(ResolventSingularError, match="not inside the open disc"):
        verify_coincidence(inst.triple, prime, wit, (*SAMPLES, outside), **model_pair(inst.triple, prime))


def test_corrupted_witness_fails_coincidence():
    # the compressions instance has P = 0, so N = 0 and Theta_0 = 0: among
    # the Taylor coefficients only Theta_1 = Theta_{N+1}, the one the model
    # keeps beyond its grid, can expose the wrong witness
    for inst in (
        make_instance("scalars", seed=43, index=0, dim=6, degree=4),
        make_instance("compressions", seed=42, index=3, dim=3, degree=3),
    ):
        u = companion_unitary(inst, inst.triple.P.shape[0])
        prime = conjugated_copy(inst, u)
        wit = induced_defect_unitary(u, inst.triple, prime)
        # corrupt the defect-side map but keep it unitary: permute its rows
        perm = np.roll(np.eye(wit.u.shape[0]), 1, axis=0)
        bad = CoincidenceWitness(u=perm @ wit.u, u_star=wit.u_star)
        assert bad.unitarity_residual < 1e-10
        rep = verify_coincidence(inst.triple, prime, bad, SAMPLES, **model_pair(inst.triple, prime))
        assert not rep.overall
        [taylor] = [e for e in rep.entries if e.name == "coincidence_taylor"]
        assert not taylor.passed, (inst.label, taylor.residual, taylor.tolerance)


def test_nonunitary_witness_reported():
    inst = make_instance("scalars", seed=43, index=1, dim=6, degree=4)
    u = companion_unitary(inst, inst.triple.P.shape[0])
    prime = conjugated_copy(inst, u)
    wit = induced_defect_unitary(u, inst.triple, prime)
    shrunk = CoincidenceWitness(u=0.5 * wit.u, u_star=wit.u_star)
    assert shrunk.unitarity_residual > 0.1
    rep = verify_coincidence(inst.triple, prime, shrunk, SAMPLES, **model_pair(inst.triple, prime))
    assert not rep.overall


def test_fundamental_equivalence_and_shape_guard():
    inst = make_instance("compressions", seed=47, index=0, dim=12, degree=4)
    u = companion_unitary(inst, inst.triple.P.shape[0])
    prime = conjugated_copy(inst, u)
    wit = induced_defect_unitary(u, inst.triple, prime)
    pair = solve_fundamental(inst.triple)
    pair_prime = solve_fundamental(prime)
    rep = verify_fundamental_equivalence(wit.u, pair, pair_prime)
    assert rep.overall, [(e.name, e.residual) for e in rep.failures]
    # a map of the wrong size cannot connect the defect spaces
    with pytest.raises(ShapeError):
        verify_fundamental_equivalence(np.eye(pair.F1.shape[0] + 1), pair, pair_prime)


def test_witness_residual_infinite_for_nonsquare():
    wit = CoincidenceWitness(u=np.zeros((2, 3)), u_star=np.eye(2))
    assert wit.unitarity_residual == np.inf


def test_model_intertwine_equals_the_dense_formula(small_suite, rng):
    # the converse check norms V X_H - X'_H' V on the compressions of the
    # model operators to H_P and H_P', formed on dim H sided factors; it
    # equals the dense q_H' U X q_H - q_H' X' q_H' U q_H with the M x M
    # projections and U = I (x) u*, for the solved pair of the conjugated
    # copy (residuals at rounding) and for a perturbed one (O(0.1))
    for inst in small_suite:
        u = companion_unitary(inst, inst.triple.dim)
        prime = conjugated_copy(inst, u)
        wit = induced_defect_unitary(u, inst.triple, prime)
        model = build_model(inst.triple)
        model_prime = build_model(prime, model.N)
        pair_g, solved = solve_fundamental(inst.triple.adjoint()), solve_fundamental(prime.adjoint())
        for pair_g_prime in (solved, perturbed(solved, rng)):
            rep = _model_transport(model, model_prime, wit, pair_g, pair_g_prime, DEFAULT_POLICY)
            entries = {e.name: e.residual for e in rep.entries}
            dense = dense_intertwine(model, model_prime, wit.u_star, pair_g, pair_g_prime)
            assert_residuals_match(entries, dense, "model_intertwine_")


@pytest.fixture(scope="module")
def transport_case():
    """Models, adjoint pairs and witness of a scalars instance and its conjugated copy."""
    inst = make_instance("scalars", seed=43, index=0, dim=6, degree=4)
    u = companion_unitary(inst, inst.triple.dim)
    prime = conjugated_copy(inst, u)
    wit = induced_defect_unitary(u, inst.triple, prime)
    model = build_model(inst.triple)
    model_prime = build_model(prime, model.N)
    pair_g, pair_g_prime = solve_fundamental(inst.triple.adjoint()), solve_fundamental(prime.adjoint())
    return model, model_prime, wit, pair_g, pair_g_prime


def transport_margins(model, model_prime, wit, pair_g, pair_g_prime) -> dict[str, float]:
    rep = _model_transport(model, model_prime, wit, pair_g, pair_g_prime, DEFAULT_POLICY)
    return {e.name: e.residual / e.tolerance for e in rep.entries}


def test_model_intertwine_p_fails_when_h_prime_leaves_the_model_space(transport_case):
    # rotating one basis column of H_P' by 1e-4 toward a grid vector
    # orthogonal to H_P' keeps the basis orthonormal but moves the space;
    # the compressed intertwining of z I must see it
    model, model_prime, wit, pair_g, pair_g_prime = transport_case
    assert max(transport_margins(*transport_case).values()) < 1e-3
    q = model_prime.h_basis
    outside = np.eye(len(q)) - q @ q.conj().T
    v = outside[:, np.argmax(np.linalg.norm(outside, axis=0))]
    rotated = q.copy()
    rotated[:, 0] = np.cos(1e-4) * q[:, 0] + np.sin(1e-4) * v / np.linalg.norm(v)
    moved = dataclasses.replace(model_prime, h_basis=rotated)
    margins = transport_margins(model, moved, wit, pair_g, pair_g_prime)
    assert margins["model_intertwine_P"] > 10.0


def test_model_intertwine_fails_for_inequivalent_fundamental_operators(transport_case):
    # G1' moved by 1e-8 i I is no longer equivalent to G1: the compressions of
    # the A and B pencils stop intertwining, that of z I does not read G
    model, model_prime, wit, pair_g, pair_g_prime = transport_case
    shifted = dataclasses.replace(pair_g_prime, F1=pair_g_prime.F1 + 1e-8j * np.eye(len(pair_g_prime.F1)))
    margins = transport_margins(model, model_prime, wit, pair_g, shifted)
    assert margins["model_intertwine_A"] > 10.0
    assert margins["model_intertwine_B"] > 10.0
    assert margins["model_intertwine_P"] < 1e-3


def test_model_space_checks_decompose_no_grid_matrix(monkeypatch):
    # the converse intertwining norms dim H sided compressions (||G1||, ||G2||
    # for its tolerance are kept on the pair), and the range partition
    # residuals are Frobenius norms, with no eigensolver, on a grid of
    # M >= 192; the one SVD of the model report with a side above dim H is
    # that of the M x dim H Davis-Kahan operand of the model-space gap
    inst = make_instance("scalars", seed=43, index=0, dim=6, degree=4)
    dim_h = inst.triple.dim  # W is an isometry onto H_P
    svds, eigs = [], []

    def recording(seen, fn):
        def wrapper(a, *args, **kwargs):
            frame, names = sys._getframe(1), []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            seen.append((names, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", recording(svds, np.linalg.svd))
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(eigs, getattr(np.linalg, name)))
    assert run_instance_battery(inst).overall
    m = len(build_model(inst.triple).W)
    assert m >= 192
    # the three residuals are dim H x dim H, normed in one stacked SVD
    intertwine = [shape for names, shape in svds if names[:2] == ["op_norms", "_model_transport"]]
    assert intertwine == [(3, dim_h, dim_h)]
    wide = [
        (names[names.index("op_norm") + 1], shape)
        for names, shape in svds
        if "verify_model_decomposition" in names and max(shape) > dim_h
    ]
    # op_norm hands the SVD a stack of one
    assert wide == [("_kernel_gap", (1, m, dim_h))]
    assert eigs and all(shape[-1] <= dim_h for _, shape in eigs)
