"""Triple validation, necessary conditions, purity, and constructions."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tetralab import triples
from tetralab.hardy import AnalyticSymbol, model_pencils, pencil_apply, toeplitz
from tetralab.matcore import DEFAULT_POLICY, NotContractiveError, ShapeError, op_norm, op_norms
from tetralab.triples import (
    NonCommutingError,
    from_symbols,
    is_pure,
    necessary_report,
    validate,
)
from tetralab.bidisc import build as build_grid
from tetralab.generate import make_instance

from conftest import (
    count_calls,
    fields_equal,
    forbid_linalg,
    p_triple,
    random_contraction,
    symbol_at,
    triples_agree,
    watch_decompositions,
)


def scalar_triple(a: complex, b: complex, p: complex):
    return validate([[a]], [[b]], [[p]])


# ------------------------------------------------------------- validation


def test_validate_accepts_scalar_point():
    t = scalar_triple(0.3, 0.2 + 0.1j, 0.05)
    assert t.A.shape == (1, 1)
    # defect operators are computed on construction
    assert t.dp.op[0, 0] == pytest.approx(np.sqrt(1 - 0.05**2))


def test_validate_rejects_noncommuting():
    a = np.array([[0.0, 0.5], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(NonCommutingError):
        validate(a, b, np.zeros((2, 2)))


def test_validate_rejects_expansions():
    with pytest.raises(NotContractiveError):
        scalar_triple(1.2, 0.0, 0.0)
    with pytest.raises(NotContractiveError):
        scalar_triple(0.0, 0.0, 1.0 + 1e-6)


@pytest.mark.parametrize("excess", [1e-12, 1e-11, 5e-11, 9e-11, 0.99e-10, 1.01e-10, 2e-10])
def test_validate_decides_on_one_plus_eq_tol_alone(excess):
    # ||P|| = 1 + excess: admitted up to 1 + eq_tol, with the eigenvalue
    # 1 - ||P||^2 < 0 of I - P*P snapped to zero in the defect of P and of P*;
    # refused past it
    p = (1.0 + excess) * np.diag([1.0, 0.5])
    if excess > DEFAULT_POLICY.eq_tol:
        with pytest.raises(NotContractiveError, match="exceeds 1 \\+ eq_tol"):
            p_triple(p)
        return
    t = p_triple(p)
    assert (t.dp.rank, t.dpstar.rank) == (1, 1)
    assert t.dp.op[0, 0] == t.dpstar.op[0, 0] == 0.0


def test_a_replaced_triple_is_refused():
    # the kept norms and commutator norms belong to the validated A, B, P:
    # a copy with a moved P (which theta_eval's Weyl shortcut would trust)
    # cannot be made, nor a triple built by hand
    t = scalar_triple(0.3, 0.1, 0.25)
    with pytest.raises(TypeError, match="built only by validate"):
        dataclasses.replace(t, P=np.array([[0.9]]))
    with pytest.raises(TypeError, match="built only by validate"):
        triples.TetrablockTriple(t.A, t.B, t.P, t.dp, t.dpstar, t.norms, t.commutators)
    assert fields_equal(t.adjoint().adjoint(), t)


def test_validate_rejects_shape_mismatch():
    with pytest.raises(ShapeError):
        validate(np.eye(2) * 0.5, np.eye(3) * 0.5, np.eye(2) * 0.5)


def test_adjoint_swaps_defects():
    t = scalar_triple(0.3, 0.1, 0.25)
    adj = t.adjoint()
    assert adj.A[0, 0] == np.conj(t.A[0, 0])
    # the adjoint holds the same two Defect objects, swapped
    assert adj.dp is t.dpstar
    assert adj.dpstar is t.dp
    # the factor D_P Q is Q diag(s), formed once by defect()
    assert t.dp.factor.tobytes() == (t.dp.basis * t.dp.s).tobytes()
    # adjoint is an involution up to exact equality
    back = adj.adjoint()
    assert np.array_equal(back.A, t.A)


# one validated triple of each generated family and of the worked example
each_triple = pytest.mark.parametrize(
    "make",
    [
        lambda: make_instance("symbols", seed=83, index=0, dim=3, degree=4).triple,
        lambda: make_instance("compressions", seed=83, index=0, dim=12, degree=4).triple,
        lambda: make_instance("scalars", seed=83, index=0, dim=6, degree=4).triple,
        lambda: build_grid(4),
    ],
    ids=["symbols", "compressions", "scalars", "bidisc"],
)


@each_triple
def test_adjoint_equals_revalidation_without_linalg(make, monkeypatch):
    # the swapped defect data are the very bytes validate derives from (A*,
    # B*, P*), bases included, the kept norms agree with its own to rounding,
    # and adjoint() gets them without a decomposition
    t = make()
    expected = validate(t.A.conj().T, t.B.conj().T, t.P.conj().T)
    forbid_linalg(monkeypatch)
    adj = t.adjoint()
    monkeypatch.undo()
    assert triples_agree(adj, expected)


@each_triple
def test_validate_keeps_the_norms_it_checked(make):
    # ||A||, ||B||, ||P|| are kept from the contraction check of validate:
    # the norms op_norm gives, bit for bit
    t = make()
    assert [t.norm(name) for name in "ABP"] == [op_norm(t.A), op_norm(t.B), op_norm(t.P)]


def test_adjoint_computes_only_the_norms_it_reads(monkeypatch):
    # an adjoint keeps ||A||, ||B||, ||P|| of its triple exactly, as
    # ||X*|| = ||X||: building it and reading them takes no SVD of A*, B*, P*
    triple = make_instance("symbols", seed=83, index=0, dim=3, degree=4).triple
    calls = count_calls(monkeypatch, op_norm, op_norms)
    adj = triple.adjoint()
    assert [adj.norm(name) for name in "ABP"] == [triple.norm(name) for name in "ABP"]
    assert adj.max_norm() == triple.max_norm()
    assert calls == {"op_norm": 0, "op_norms": 0}


# --------------------------------------------------- necessary conditions


def test_necessary_report_passes_on_generated_instances(small_suite):
    for inst in small_suite:
        rep = necessary_report(inst.triple)
        assert rep.overall, f"{inst.label}: {[e.name for e in rep.failures]}"


def test_necessary_report_is_explicit_about_its_scope():
    # (0.9, 0.9, 0) commutes and is contractive yet violates the scalar
    # membership inequality |a - conj(b) p| + |b - conj(a) p| <= 1 - |p|^2.
    # The necessary battery passes by design -- it certifies commutation and
    # contractivity only, and says so in its header; membership is caught at
    # the pencil level (sup |0.9 + 0.9 z| = 1.8 > 1 on the circle).
    t = scalar_triple(0.9, 0.9, 0.0)
    rep = necessary_report(t)
    assert rep.overall
    assert "necessary" in rep.header
    sym = AnalyticSymbol((t.A.conj().T, t.B))
    assert op_norm(symbol_at(sym, 1.0)) > 1.0 + 1e-9


# ----------------------------------------------------------------- purity


def test_is_pure_nilpotent():
    p = np.diag([1.0 + 0j] * 2, -1)  # truncated shift, P^3 = 0
    cert = is_pure(p_triple(p))
    assert cert.pure
    assert cert.nilpotency_index == 3
    assert cert.spectral_radius < 1e-9


def test_nilpotency_index_without_spectral_norms(monkeypatch):
    # the Frobenius norm decides "numerically zero" for the powers: no SVD,
    # Hermitian eigensolver or spectral norm
    grids = {n: build_grid(n) for n in range(1, 9)}
    calls, _, _, _ = watch_decompositions(monkeypatch)
    for n, t in grids.items():
        assert is_pure(t).nilpotency_index == n + 1, n
    assert not calls, calls


def test_is_pure_strict_contraction(rng):
    cert = is_pure(p_triple(random_contraction(rng, 4, norm=0.8)))
    assert cert.pure
    assert cert.spectral_radius <= 0.8 + 1e-12


def test_unitary_is_not_pure():
    cert = is_pure(p_triple(np.diag([1.0, 1j])))
    assert not cert.pure
    assert cert.spectral_radius == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------- constructions


def test_from_symbols_produces_valid_commuting_triple(rng):
    # commuting normal pair with joint pencil bound: simultaneously diagonal
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    d1 = np.diag([0.4, 0.2 + 0.3j])
    d2 = np.diag([0.3j, 0.25])
    f1 = q @ d1 @ q.conj().T
    f2 = q @ d2 @ q.conj().T
    t = from_symbols(f1, f2, 4)
    rep = necessary_report(t)
    assert rep.overall, [e.name for e in rep.failures]
    # P of the symbol model is the truncated shift: pure with index n + 1
    cert = is_pure(t)
    assert cert.pure and cert.nilpotency_index == 5


def test_from_symbols_pencil_operators(rng):
    # A must be the Toeplitz operator of F1* + F2 z, B of F2* + F1 z
    d1 = np.diag([0.4, -0.2])
    d2 = np.diag([0.1, 0.3])
    t = from_symbols(d1, d2, 3)
    assert np.array_equal(t.A, toeplitz(AnalyticSymbol((d1.conj().T, d2)), 3))
    assert np.array_equal(t.B, toeplitz(AnalyticSymbol((d2.conj().T, d1)), 3))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_from_symbols_is_the_toeplitz_of_model_pencils(dtype):
    # A, B and P are the Toeplitz matrices of the three pencils of
    # model_pencils, and pencil_apply on the identity forms the same bytes;
    # a real pair gives a real triple and a complex one a complex triple
    d1, d2 = np.diag([0.4, -0.2]), np.diag([0.1, 0.3])
    if dtype is np.complex128:
        d1, d2 = d1 * np.exp(0.3j), d2 * np.exp(-1.1j)
    n = 3
    t = from_symbols(d1, d2, n)
    eye = np.eye(2 * (n + 1), dtype=dtype)
    for x, (c0, c1) in zip((t.A, t.B, t.P), model_pencils(d1, d2), strict=True):
        assert x.dtype == dtype
        assert np.array_equal(x, toeplitz(AnalyticSymbol((c0, c1)), n))
        assert np.array_equal(x, pencil_apply(c0, c1, eye))


def test_from_symbols_rejects_unbounded_pencil():
    # radii below one is NOT enough; the pencil sup-norm must stay <= 1.
    # F1 = F2 = 0.9 I gives sup |0.9 + 0.9 z| = 1.8 on the circle.
    with pytest.raises(NotContractiveError):
        from_symbols(0.9 * np.eye(2), 0.9 * np.eye(2), 3)
