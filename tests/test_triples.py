"""Triple validation, necessary conditions, purity, and constructions."""

from __future__ import annotations

import numpy as np
import pytest

from tetralab import triples
from tetralab.matcore import NotContractiveError, ShapeError, op_norm
from tetralab.triples import (
    NonCommutingError,
    NotCoinvariantError,
    compress,
    from_symbols,
    is_pure,
    necessary_report,
    validate,
)
from tetralab.bidisc import build as build_grid
from tetralab.generate import make_instance
from tetralab.matcore import SubspaceBasis

from conftest import count_calls, forbid_linalg, random_contraction, triples_agree


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
def test_validate_keeps_the_norms_it_checked(make, monkeypatch):
    # ||A||, ||B||, ||P|| come from the contraction check of validate: reading
    # them, or max_norm, decomposes nothing, and they are the norms op_norm
    # gives, bit for bit
    t = make()
    forbid_linalg(monkeypatch)
    norms = {name: t.norm(name) for name in "ABP"}
    top = t.max_norm()
    monkeypatch.undo()
    assert norms == {"A": op_norm(t.A), "B": op_norm(t.B), "P": op_norm(t.P)}
    assert top == max(norms.values())


def test_adjoint_computes_only_the_norms_it_reads(monkeypatch):
    # an adjoint reads ||A||, ||B||, ||P|| of its triple, as ||X*|| = ||X||:
    # no SVD of A*, B* or P*
    triple = make_instance("symbols", seed=83, index=0, dim=3, degree=4).triple
    adj = triple.adjoint()
    calls = count_calls(monkeypatch, op_norm)
    assert [adj.norm(name) for name in "ABPA"] == [triple.norm(name) for name in "ABPA"]
    assert calls["op_norm"] == 0


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
    from tetralab.hardy import pencil

    sym = pencil(t.A.conj().T, t.B)
    assert op_norm(sym(1.0)) > 1.0 + 1e-9


# ----------------------------------------------------------------- purity


def test_is_pure_nilpotent():
    p = np.diag([1.0 + 0j] * 2, -1)  # truncated shift, P^3 = 0
    cert = is_pure(p)
    assert cert.pure
    assert cert.nilpotency_index == 3
    assert cert.spectral_radius < 1e-9


def test_is_pure_refuses_a_non_contraction_before_the_index_search():
    # nilpotent with ||P^3||_F ~ 1.4e-20 but ||P^4||_F = 1e-10: the powers'
    # Frobenius norms are not decreasing, so the search over the squares
    # could miss the least index; P is refused instead
    with pytest.raises(NotContractiveError):
        is_pure(np.diag([1e10, 1.0, 1e-30, 1e10], 1))
    # a contraction whose Schur bound exceeds 1 passes the SVD and is searched
    m = np.triu(np.ones((4, 4)), 1)
    p = 0.9 * m / op_norm(m)
    assert np.sqrt(np.abs(p).sum(0).max() * np.abs(p).sum(1).max()) > 1.0
    assert is_pure(p).nilpotency_index == 4


def test_nilpotency_index_without_spectral_norms(monkeypatch):
    # the Frobenius norm decides "numerically zero" for the powers; no SVD
    grids = {n: build_grid(n).P for n in range(1, 9)}

    def no_op_norm(*_):
        raise AssertionError("is_pure must not take spectral norms")

    monkeypatch.setattr(triples, "op_norm", no_op_norm)
    for n, p in grids.items():
        assert is_pure(p).nilpotency_index == n + 1, n


def test_is_pure_strict_contraction(rng):
    cert = is_pure(random_contraction(rng, 4, norm=0.8))
    assert cert.pure
    assert cert.spectral_radius <= 0.8 + 1e-12


def test_unitary_is_not_pure():
    cert = is_pure(np.diag([1.0, 1j]))
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
    cert = is_pure(t.P)
    assert cert.pure and cert.nilpotency_index == 5


def test_from_symbols_pencil_operators(rng):
    # A must be the Toeplitz operator of F1* + F2 z, B of F2* + F1 z
    from tetralab.hardy import pencil, toeplitz

    d1 = np.diag([0.4, -0.2])
    d2 = np.diag([0.1, 0.3])
    t = from_symbols(d1, d2, 3)
    assert np.array_equal(t.A, toeplitz(pencil(d1.conj().T, d2), 3))
    assert np.array_equal(t.B, toeplitz(pencil(d2.conj().T, d1), 3))


def test_from_symbols_rejects_unbounded_pencil():
    # radii below one is NOT enough; the pencil sup-norm must stay <= 1.
    # F1 = F2 = 0.9 I gives sup |0.9 + 0.9 z| = 1.8 on the circle.
    with pytest.raises(NotContractiveError):
        from_symbols(0.9 * np.eye(2), 0.9 * np.eye(2), 3)


def test_compress_requires_coinvariance(rng):
    d1 = np.diag([0.4, -0.2])
    d2 = np.diag([0.1, 0.3])
    t = from_symbols(d1, d2, 3)
    dim = t.P.shape[0]
    # span of the first (degree-0) block is co-invariant for analytic ops
    e0 = np.zeros((dim, 2), dtype=complex)
    e0[0, 0] = e0[1, 1] = 1.0
    sub = SubspaceBasis(e0)
    small = compress(t, sub)
    assert small.P.shape == (2, 2)
    assert op_norm(small.P) < 1e-13  # shift drops degree-0 to nothing
    # a generic subspace is not co-invariant
    g = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
    q, _ = np.linalg.qr(g)
    bad = SubspaceBasis(q)
    with pytest.raises(NotCoinvariantError):
        compress(t, bad)
