"""Characteristic function, kernel identity, and the functional model.

Scalar oracle: for |p| < 1 the characteristic function collapses to the
Moebius transform

    theta(z) = -p + z (1 - |p|^2) / (1 - conj(p) z) = (z - p) / (1 - conj(p) z),

an inner function of the disc.  All defect spaces are one-dimensional with
basis vector 1, so the package's matrix-valued answer is directly comparable.
"""

from __future__ import annotations

import dataclasses
import sys

import numpy as np
import pytest

import tetralab.matcore
from tetralab import charfn
from tetralab.charfn import (
    MAX_POWERS,
    TAIL_TARGET,
    NotIsometryLikeError,
    NotPureError,
    ResolventSingularError,
    build_model,
    model_pencils,
    power_tail,
    pure_isometry_model,
    theta_eval,
    theta_taylor,
    verify_functional_model,
    verify_model_decomposition,
    verify_pencil_intertwining,
    _power_norms,
)
from tetralab.fundamental import solve_fundamental
from tetralab.bidisc import build as build_grid
from tetralab.cli import run_instance_battery
from tetralab.generate import make_instance, random_unitary
from tetralab.hardy import AnalyticSymbol, toeplitz
from tetralab.matcore import (
    CLAMP_TOL,
    DEFAULT_POLICY,
    MAX_GRID_DIM,
    ShapeError,
    SubspaceBasis,
    TetralabError,
    ensure_matrix,
    op_norm,
    subspace_gap,
)
from tetralab.triples import from_symbols, is_pure, validate

from conftest import (
    assert_residuals_match,
    count_calls,
    defect_outside_basis_triples,
    dense_coinvariance,
    dense_kernel_identity,
    dense_pencil_on_model,
    dense_theta,
    kernel_identity_check,
    p_triple,
    perturbed,
    random_contraction,
    two_step_interior,
    watch_decompositions,
)


def moebius(p: complex, z: complex) -> complex:
    return (z - p) / (1.0 - np.conj(p) * z)


SCALARS = [0.0, 0.3, -0.4 + 0.2j, 0.6j]
POINTS = [0.2 + 0.1j, -0.5, 0.05 - 0.6j, 0.7j]


@pytest.mark.parametrize("p", SCALARS)
@pytest.mark.parametrize("z", POINTS)
def test_scalar_theta_is_moebius(p, z):
    [val] = theta_eval(p_triple([[p]]), [z])
    assert val.shape == (1, 1)
    assert val[0, 0] == pytest.approx(moebius(p, z), abs=1e-12)


def test_theta_of_zero_is_multiplication_by_z():
    sym = theta_taylor(p_triple(np.zeros((3, 3))), 4)
    assert op_norm(sym.coeffs[0]) == 0.0
    assert np.allclose(sym.coeffs[1], np.eye(3), atol=1e-14)
    assert all(op_norm(c) == 0.0 for c in sym.coeffs[2:])  # beyond z^1


def test_taylor_series_matches_direct_evaluation(rng):
    t = p_triple(random_contraction(rng, 4, norm=0.7))
    z = 0.35 - 0.25j
    coeffs = theta_taylor(t, 39).coeffs
    series = sum(c * z**k for k, c in enumerate(coeffs))
    [direct] = theta_eval(t, [z])
    assert op_norm(series - direct) < 1e-11


@pytest.mark.parametrize("p", SCALARS[1:])
def test_scalar_theta_inner_on_circle(p):
    circle = np.exp(1j * np.linspace(0.0, 2 * np.pi, 9))
    for val in theta_eval(p_triple([[p]]), circle):
        assert abs(val[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_kernel_identity(rng):
    for _ in range(3):
        t = p_triple(random_contraction(rng, 4, norm=0.85))
        for _ in range(5):
            z, w = [complex(*rng.uniform(-0.65, 0.65, 2)) for _ in range(2)]
            assert kernel_identity_check(t, z, w) < 1e-10


def test_resolvent_guard(monkeypatch):
    calls, _, _ = watch_decompositions(monkeypatch)
    with pytest.raises(ResolventSingularError):
        theta_eval(p_triple([[1.0]]), [1.0])
    # |z| ||P|| = 1 - 1e-13: the bound cannot clear I - z P*, so the SVD
    # runs, and finds it singular at CLAMP_TOL
    with pytest.raises(ResolventSingularError):
        theta_eval(p_triple([[1.0]]), [1.0 - 1e-13])
    assert calls["svd", "theta_eval"] == 2


def test_skipped_resolvent_svd_would_have_passed(monkeypatch):
    # theta_eval skips the SVD of I - z P* only where the kept ||P||
    # settles the CLAMP_TOL test; the SVD must then agree, over contractions
    # of dimension 1-6 (generic, nilpotent, scalar and unitary, of norm up to
    # exactly 1) and points of the open disc up to 1 - 1e-13 in modulus,
    # some in the direction of an eigenvalue of P of largest modulus, where
    # I - z P* comes closest to singular
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    calls, _, _ = watch_decompositions(monkeypatch)
    skipped = []

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(1, 6),
        kind=st.sampled_from(["generic", "nilpotent", "scalar", "unitary"]),
        norm=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        radius=st.one_of(st.just(1.0 - 1e-13), st.floats(0.0, 1.0, exclude_max=True)),
        angle=st.one_of(st.none(), st.floats(0.0, 2.0 * np.pi)),
    )
    def skipped_svd_passes(seed, dim, kind, norm, radius, angle):
        gen = np.random.default_rng(seed)
        m = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
        if kind == "nilpotent":
            m = np.triu(m, 1)
        elif kind == "scalar":
            m = np.exp(1j * gen.uniform(0.0, 2.0 * np.pi)) * np.eye(dim)
        elif kind == "unitary":
            m = random_unitary(gen, dim)
        p = norm * m / op_norm(m) if m.any() else m
        if angle is None:  # z P* is closest to I along the top eigenvalue of P
            eig = np.linalg.eigvals(p)
            angle = np.angle(eig[np.argmax(np.abs(eig))])
        z = radius * np.exp(1j * angle)
        calls.clear()
        try:
            theta_eval(p_triple(p), [z])
        except ResolventSingularError:
            assert calls["svd", "theta_eval"] == 1
            return
        if calls["svd", "theta_eval"] == 0:
            skipped.append(z)
            sv = np.linalg.svd(np.eye(dim) - z * p.conj().T, compute_uv=False)
            assert sv[-1] > CLAMP_TOL * max(1.0, sv[0])

    skipped_svd_passes()
    assert skipped


# ---------------------------------------------- tail shortcut for exact zeros


def full_pass_tail(p, n: int) -> tuple[int, float]:
    """power_tail(p, n) by the formula over all the norms of the powers of P."""
    *norms, c = _power_norms(ensure_matrix(p))
    total = sum(nm * nm for nm in norms)
    tails = [c * c * (1.0 + total) / (1.0 - c * c)]
    for nm in reversed(norms):
        tails.append(tails[-1] + nm * nm)
    return n, float(np.sqrt(tails[::-1])[min(n, len(norms))])


def shortcut_cases():
    """(name, P, nilpotency index of is_pure, whether that power is exactly zero)."""
    shift = np.diag(np.ones(3, dtype=complex), -1)
    phases = np.diag(np.exp(1j * np.arange(4.0)))
    c, s = np.cos(0.1), np.sin(0.1)
    rot = np.array([[c, -s], [s, c]])
    yield from ((f"grid{d}", build_grid(d).P, d + 1, True) for d in range(1, 7))
    yield from ((f"symbols{d}", from_symbols(0.3 * np.eye(2), 0.2 * np.eye(2), d).P, d + 1, True) for d in (1, 3, 5))
    yield "symbols_instance", make_instance("symbols", seed=7, index=0, dim=3, degree=3).triple.P, 4, True
    yield "phase_conjugated_shift", phases @ shift @ phases.conj().T, 4, True
    # P^2 = 1e-25 I: nilpotency index 2, but no exact zero
    yield "tiny_square", np.array([[0.0, 1.0], [1e-25, 0.0]]), 2, False
    # u P u* is nilpotent, but its computed powers are rounding noise: here
    # P^2 is below 1e-12, there the computed spectral radius is 1.3e-4
    yield "rotated_shift", rot @ shift[:2, :2] @ rot.T, 2, False
    u = random_unitary(np.random.default_rng(5), 4)
    yield "conjugated_shift", u @ shift @ u.conj().T, None, False


@pytest.mark.parametrize("name, p, index, exact", [pytest.param(*c, id=c[0]) for c in shortcut_cases()])
def test_tail_shortcut_equals_the_full_pass(monkeypatch, name, p, index, exact):
    # an exact zero P^K takes the tail from the purity check for every
    # degree n >= K - 1, and the result equals the full pass bit for bit;
    # below K - 1, or with no exact zero, the full pass runs
    triple = p_triple(p)
    cert = is_pure(triple)
    assert (cert.nilpotency_index, cert.exact_zero) == (index, exact)
    calls = count_calls(monkeypatch, _power_norms)
    for n in range((index or 3) + 2):
        calls["_power_norms"] = 0
        got = power_tail(triple, n)
        expected = full_pass_tail(p, n)
        assert (got[0], got[1].hex()) == (expected[0], expected[1].hex()), (name, n)
        shortcut = exact and n >= index - 1
        assert calls["_power_norms"] == (0 if shortcut else 1), (name, n)


# -------------------------------------------------------- truncation tail


def test_power_tail_monotone_and_default_degree(rng):
    p = p_triple(random_contraction(rng, 4, norm=0.9))
    tails = [power_tail(p, n)[1] for n in (2, 6, 12, 20)]
    assert all(t1 >= t2 for t1, t2 in zip(tails, tails[1:]))
    n, tail = power_tail(p)
    assert power_tail(p, n) == (n, tail)
    assert tail <= TAIL_TARGET == 1e-12 < power_tail(p, n - 1)[1]


def test_tail_zero_for_nilpotent():
    p = p_triple(np.diag([1.0 + 0j] * 2, -1))
    assert power_tail(p, 2) == (2, 0.0)
    assert power_tail(p)[0] <= 3


def test_tail_bounds_the_powers_past_the_cutoff():
    # ||P^m|| = 0.5^m drops below POWER_CUTOFF at m = 47; the tail still
    # bounds (sum_{m > n} 0.25^m)^(1/2) = (0.25^(n+1) / 0.75)^(1/2) beyond it
    p = p_triple([[0.5]])
    for n in range(61):
        assert power_tail(p, n)[1] >= np.sqrt(0.25 ** (n + 1) / 0.75) * (1.0 - 1e-15), n


def test_slow_decay_is_refused_not_truncated(monkeypatch):
    # ||P^k|| = 0.9999^k is still 4.5e-5 after MAX_POWERS powers: a partial
    # sum would understate the tail, so the loop refuses instead
    assert 0.9999**MAX_POWERS > 1e-14
    with pytest.raises(TetralabError, match="decays too slowly"):
        power_tail(p_triple([[0.9999]]), 0)
    # the degree search runs the same loop; a smaller cap keeps this quick
    monkeypatch.setattr(charfn, "MAX_POWERS", 1000)
    with pytest.raises(TetralabError, match="decays too slowly"):
        power_tail(p_triple([[0.99]]))
    assert power_tail(p_triple([[0.9]]))[0] < 1000


# ------------------------------------------------------- functional model


def test_build_model_rejects_non_pure():
    with pytest.raises(NotPureError):
        build_model(p_triple(np.diag([1.0, 0.5])))


def test_build_model_refuses_oversized_grid():
    # the default degree of P = 0.999 is about 30,700: refused before any
    # grid matrix is allocated, as is an explicit degree one past the bound
    with pytest.raises(TetralabError, match="exceeds"):
        build_model(p_triple([[0.999]]))
    with pytest.raises(TetralabError, match="exceeds"):
        build_model(p_triple(0.5 * np.eye(2)), MAX_GRID_DIM // 2)


def model_entries(rep) -> dict:
    return {e.name: e for e in rep.entries}


def test_model_space_gap_is_not_a_rank_decision():
    # at degree 25, T_Theta of diag(0.5, 0.3) has singular values near
    # ||P^26|| ~ 1.5e-8, above RANK_TOL: a complement of its numerical range
    # has the wrong dimension, but range(W) is within rounding of the span of
    # its 2 smallest left singular vectors
    model = build_model(p_triple(np.diag([0.5, 0.3])), 25)
    gap = model_entries(verify_model_decomposition(model))["model_space_gap"]
    assert gap.passed and gap.tolerance == 1e-6 + model.tail
    assert gap.residual < 1e-13


def test_model_space_mismatch_is_detected(monkeypatch, small_suite):
    # Theta_1 moved by 1e-4 where the report forms T_Theta: it no longer
    # matches W.  build_model forms no T_Theta and still returns; the
    # report records the mismatch as failed checks, in the model report and
    # in the instance battery, where every other entry is still recorded
    real = charfn.toeplitz

    def mutated(sym, n):
        coeffs = list(sym.coeffs)
        coeffs[1] = coeffs[1] + 1e-4
        return real(AnalyticSymbol(tuple(coeffs)), n)

    triple = p_triple(random_contraction(np.random.default_rng(5), 3, norm=0.6))
    model = build_model(triple)
    assert verify_model_decomposition(model).overall
    inst = small_suite[2]
    assert inst.family == "scalars"
    clean = run_instance_battery(inst)
    assert clean.overall
    monkeypatch.setattr(charfn, "toeplitz", mutated)
    entries = model_entries(verify_model_decomposition(build_model(triple)))
    assert list(entries) == ["range_partition", "range_partition_interior", "model_space_gap"]
    assert not entries["model_space_gap"].passed
    assert not entries["range_partition"].passed
    battery = run_instance_battery(inst)
    assert [e.name for e in battery.entries] == [e.name for e in clean.entries]
    failed = {e.name for e in battery.failures}
    assert {"dec_model_space_gap", "dec_range_partition"} <= failed
    assert all(name.startswith("dec_range_partition") or name == "dec_model_space_gap" for name in failed)


def test_model_decomposition_forms_the_grid_identity_once(monkeypatch, small_suite):
    # one T_Theta and one R = W W* + T T* - I per report, normed once: the
    # range partition reports rho = ||R||_F, the rho the Davis-Kahan gap
    # reads, and no Hermitian eigensolver runs on R or its interior block
    calls = count_calls(monkeypatch, toeplitz)
    decompositions, _, _ = watch_decompositions(monkeypatch)
    handed = []
    gap = charfn._kernel_gap

    def kernel_gap(rho, w, t, q):
        handed.append(rho)
        return gap(rho, w, t, q)

    monkeypatch.setattr(charfn, "_kernel_gap", kernel_gap)
    for t in [inst.triple for inst in small_suite] + [build_grid(2)]:
        model = build_model(t)
        calls["toeplitz"] = 0
        handed.clear()
        decompositions.clear()
        entries = model_entries(verify_model_decomposition(model))
        assert all(e.passed for e in entries.values())
        assert calls["toeplitz"] == 1
        assert handed == [entries["range_partition"].residual]
        assert entries["range_partition_interior"].residual <= handed[0]
        assert not any(name in ("eigh", "eigvalsh") for name, _ in decompositions)


def test_build_model_decomposes_only_thin_operands(monkeypatch, small_suite):
    # build_model forms no T_Theta and no M x M matrix, and W, whose columns
    # are orthonormal at the default degree, is its own basis of H_P: no
    # operand with a side above dim H is decomposed (the thin SVD of W in
    # range_basis was, for every model with M > dim H)
    seen = []

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            callers = sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name
            seen.append((name, callers, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "eigvals"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    calls = count_calls(monkeypatch, toeplitz)
    wide_calls = []
    for t in [inst.triple for inst in small_suite] + [build_grid(2)]:
        seen.clear()
        model = build_model(t)
        m, dim = model.W.shape
        wide = [(name, callers) for name, callers, shape in seen if max(shape) > dim]
        wide_calls.append(wide)
        assert model.h_basis.basis is model.W
    assert calls["toeplitz"] == 0
    # before: [[], thin, thin, [], thin, thin, thin], thin = [("svd",
    # ("range_basis", "build_model"))] of shape (M, dim); symbols have M = dim H
    assert wide_calls == [[]] * 7


@pytest.mark.parametrize(
    "family,dim", [("symbols", 3), ("compressions", 12), ("scalars", 6), ("bidisc", 4)]
)
def test_model_theta_equals_theta_taylor(family, dim):
    # build_model reads Theta off all N + 1 row blocks of W; the coefficients
    # must be the very numbers theta_taylor computes to degree N + 1
    if family == "bidisc":
        t = build_grid(dim)
    else:
        t = make_instance(family, seed=83, index=0, dim=dim, degree=4).triple
    model = build_model(t)
    direct = theta_taylor(t, model.N + 1)
    assert model.theta.degree == direct.degree == model.N + 1
    for a, b in zip(model.theta.coeffs, direct.coeffs):
        assert np.array_equal(a, b)


def test_model_dimensions_and_tail(rng):
    model = build_model(p_triple(random_contraction(rng, 3, norm=0.8)))
    # W maps the original space isometrically into the truncated grid
    assert model.W.shape[1] == 3
    assert op_norm(model.W.conj().T @ model.W - np.eye(3)) < 1e-10
    assert model.tail <= 1e-12
    rep = verify_model_decomposition(model)
    assert rep.overall, [e.name for e in rep.failures]


@pytest.mark.parametrize("family,dim", [("symbols", 3), ("compressions", 12), ("scalars", 6)])
def test_functional_model_reproduces_triple(family, dim):
    inst = make_instance(family, seed=11, index=1, dim=dim, degree=4)
    triple = inst.triple
    assert is_pure(triple).pure
    model = build_model(triple)
    pair_g = solve_fundamental(triple.adjoint())
    rep = verify_functional_model(triple, model, pair_g)
    assert rep.overall, (inst.label, [e.name for e in rep.failures])


def test_model_operators_are_pencil_toeplitz(rng):
    # the model operators are the Toeplitz matrices of G1* + G2 z, G2* + G1 z
    # and z I; model_pencils gives their coefficients to pencil_apply
    from tetralab.hardy import pencil, pencil_apply, toeplitz

    g1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    g2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    expect = ((g1.conj().T, g2), (g2.conj().T, g1), (np.zeros((2, 2)), np.eye(2)))
    q = np.eye(10, dtype=complex)
    for (c0, c1), (e0, e1) in zip(model_pencils(g1, g2), expect, strict=True):
        assert np.array_equal(c0, e0) and np.array_equal(c1, e1)
        assert np.array_equal(pencil_apply(c0, c1, q), toeplitz(pencil(e0, e1), 4))


def test_model_batteries_apply_pencils_without_forming_them(monkeypatch):
    # every product with a model pencil goes through pencil_apply, block by
    # block: none of these batteries builds a pencil symbol, and so none
    # forms its grid-sized Toeplitz matrix
    from tetralab import bidisc, generate
    from tetralab.blh import extract_symbols
    from tetralab.invariants import unitary_invariant_suite
    from tetralab.triples import validate

    def refuse(*args, **kwargs):
        raise AssertionError("hardy.pencil called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tetralab" and hasattr(module, "pencil"):
            monkeypatch.setattr(module, "pencil", refuse)
    n = 3
    grid = build_grid(n)
    pair_f, pair_g = solve_fundamental(grid), solve_fundamental(grid.adjoint())
    model = build_model(grid, n)
    dec = verify_model_decomposition(model)
    fm = verify_functional_model(grid, model, pair_g)
    assert pure_isometry_model(grid, model, pair_g, dec, fm).overall
    assert bidisc.verify_example(grid, pair_f, pair_g, model).overall
    theta = theta_taylor(grid.adjoint(), n + 1)
    assert extract_symbols(theta, pair_f.F1, pair_f.F2, theta.degree + 3)[2].overall
    inst = make_instance("compressions", seed=43, index=0, dim=6, degree=4)
    t = inst.triple
    u = generate.companion_unitary(inst, t.dim)
    conj = validate(u @ t.A @ u.conj().T, u @ t.B @ u.conj().T, u @ t.P @ u.conj().T)
    assert unitary_invariant_suite(
        t, conj, u,
        pair_f=solve_fundamental(t), pair_g=solve_fundamental(t.adjoint()), model=build_model(t),
    ).overall


def test_pencil_intertwining_battery(small_suite):
    samples = [0.3 + 0.2j, -0.55, 0.1 - 0.6j, 0.72j, 0.0]
    for inst in small_suite:
        pair_f = solve_fundamental(inst.triple)
        pair_g = solve_fundamental(inst.triple.adjoint())
        rep = verify_pencil_intertwining(inst.triple, pair_f, pair_g, samples)
        assert rep.overall, (inst.label, [e.name for e in rep.failures])


def test_pure_isometry_model_on_symbol_instance():
    inst = make_instance("symbols", seed=3, index=0, dim=3, degree=4)
    triple = inst.triple
    model = build_model(triple)
    pair_g = solve_fundamental(triple.adjoint())
    dec = verify_model_decomposition(model)
    fm = verify_functional_model(triple, model, pair_g)
    rep = pure_isometry_model(triple, model, pair_g, dec, fm)
    assert rep.overall, [e.name for e in rep.failures]


@pytest.mark.parametrize(
    "make",
    [pytest.param(lambda n=n: build_grid(n), id=f"grid{n}") for n in range(1, 9)]
    + [pytest.param(lambda n=n: from_symbols(np.diag([1.0, 0.3]), np.diag([0.0, 0.4]), n), id=f"symbols{n}") for n in (1, 4)]
    + [pytest.param(lambda: make_instance("symbols", seed=3, index=0, dim=3, degree=4).triple, id="symbols_instance")],
)
def test_isometric_interior_equals_the_two_step_oracle(make):
    # grid n has an interior of 2n - 1 of its 2n + 1 defect directions of
    # P*; the diagonal symbols one, the generated instance none
    triple = make()
    interior, expected = charfn._isometric_interior(triple), two_step_interior(triple)
    # the plain eigenvector array passes the orthonormality check it skips
    assert interior.shape[1] == expected.rank
    assert subspace_gap(SubspaceBasis(interior), expected) <= 1e-10


@pytest.mark.parametrize("n", [6, 14])
def test_pure_isometry_model_decomposes_only_defect_sized_operands(monkeypatch, n):
    # apart from the norms of its residuals, the isometry model decomposes
    # one dim x rank D_P basis (a complete QR, for ker D_P) and one rank
    # D_{P*} square matrix (an eigh, for the interior)
    triple = build_grid(n)
    model = build_model(triple, n)
    pair_g = solve_fundamental(triple.adjoint())
    dec = verify_model_decomposition(model)
    fm = verify_functional_model(triple, model, pair_g)
    seen = []

    def recording(name, fn):
        def wrapper(a, *args, **kwargs):
            seen.append((name, sys._getframe(1).f_code.co_name, np.shape(a)))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "solve", "pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    assert pure_isometry_model(triple, model, pair_g, dec, fm).overall
    r, rs = triple.dp.rank, triple.dpstar.rank
    assert [s for s in seen if s[1] != "op_norms"] == [
        ("qr", "pure_isometry_model", (triple.dim, r)),
        ("eigh", "_isometric_interior", (rs, rs)),
    ]


def test_functional_model_refuses_a_pair_on_another_defect_basis():
    # the adjoint pair must be expressed in the very basis of D_{P*} the
    # triple keeps: pairs of another triple are refused, whether their basis
    # has the same shape (that of the conjugate u T u*) or not (a wider
    # truncation), and a pair from a fresh validation of (A*, B*, P*) has
    # the same bytes and is accepted
    triple = make_instance("symbols", seed=83, index=0, dim=3, degree=4).triple
    model = build_model(triple)
    u = random_unitary(np.random.default_rng(83), triple.dim)
    for other in (
        validate(*(u @ x @ u.conj().T for x in (triple.A, triple.B, triple.P))),
        make_instance("symbols", seed=83, index=0, dim=3, degree=5).triple,
    ):
        with pytest.raises(ShapeError, match="defect basis"):
            verify_functional_model(triple, model, solve_fundamental(other.adjoint()))
    revalidated = validate(triple.A.conj().T, triple.B.conj().T, triple.P.conj().T)
    assert verify_functional_model(triple, model, solve_fundamental(revalidated)).overall


def test_model_space_residuals_equal_the_dense_formulas(small_suite, rng):
    # co-invariance of range(W) and the pencil on the isometric part are
    # normed on thin factors; they equal the dense M x M formulas, for the
    # solved pair (residuals at rounding) and for a perturbed one (O(0.1))
    isometric = 0
    for inst in small_suite:
        t = inst.triple
        model = build_model(t)
        solved = solve_fundamental(t.adjoint())
        for pair_g in (solved, perturbed(solved, rng)):
            dec = verify_model_decomposition(model)
            fm = verify_functional_model(t, model, pair_g)
            entries = {e.name: e.residual for e in fm.entries}
            assert_residuals_match(entries, dense_coinvariance(model, pair_g), "rangeW_coinvariant_")
            try:
                iso = pure_isometry_model(t, model, pair_g, dec, fm)
            except NotIsometryLikeError:
                continue
            isometric += 1
            entries = {e.name: e.residual for e in iso.entries}
            assert_residuals_match(entries, dense_pencil_on_model(t, model, pair_g), "pencil_on_model_")
    assert isometric == 8


def test_model_space_checks_hand_op_norm_thin_operands(monkeypatch, small_suite):
    # the model-space gap, the co-invariance checks and the pencil-on-model
    # checks hand op_norm only M x k operands, M the side of the model grid
    # and k the rank of the subspace at hand: H_P = range(W) (the Davis-Kahan
    # residual T T* Q_H - Q_H L of the gap, not normed where T* Q_H is
    # exactly zero, as on the grid) or W of the isometric part
    seen = []

    def recording(m):
        seen.append((sys._getframe(1).f_code.co_name, np.shape(m)))
        return op_norm(m)

    for mod in (tetralab.matcore, charfn):
        monkeypatch.setattr(mod, "op_norm", recording)
    thin = 0
    for t in [inst.triple for inst in small_suite] + [build_grid(2)]:
        seen.clear()
        model = build_model(t)
        pair_g = solve_fundamental(t.adjoint())
        dec = verify_model_decomposition(model)
        fm = verify_functional_model(t, model, pair_g)
        m, n, k = model.W.shape[0], t.dim, model.h_basis.rank
        thin += m > max(n, k)
        shapes = lambda caller: {s for c, s in seen if c == caller and s[0] == m}
        assert k == n
        zero = not (toeplitz(model.theta, model.N).conj().T @ model.h_basis.basis).any()
        assert shapes("_kernel_gap") == (set() if zero else {(m, n)})
        assert shapes("verify_functional_model") == {(m, n)}
        iso_rank = t.dim - t.dp.rank
        if iso_rank:
            seen.clear()
            pure_isometry_model(t, model, pair_g, dec, fm)
            assert shapes("pure_isometry_model") == {(m, iso_rank)}
    assert thin == 5  # the symbols instances have M = dim H


def test_theta_on_thin_factors_equals_the_dense_formula(small_suite, rng):
    # theta_eval solves against D_P Q and kernel_identity_check against
    # D_{P*} Q_*; both equal the dense formulas on D_P and D_{P*}, for the
    # triple as validated and with P (and its kept norm) moved by 0.1 under
    # the same defect data, where the kernel identity fails by O(0.1); the
    # last two triples keep an eigenvalue 1e-5 of D_P outside range(Q)
    points = [(0.3 + 0.2j, -0.55), (0.1 - 0.6j, 0.0), (0.62j, 0.45 - 0.1j)]
    for t in [inst.triple for inst in small_suite] + defect_outside_basis_triples():
        e = rng.standard_normal(t.P.shape) + 1j * rng.standard_normal(t.P.shape)
        moved = t.P + 0.1 * e / op_norm(e)
        for triple in (t, dataclasses.replace(t, P=moved, norms=(*t.norms[:2], op_norm(moved)))):
            for z, w in points:
                [th] = theta_eval(triple, [z])
                dense = dense_theta(triple, z)
                assert op_norm(th - dense) <= 1e-13 * (1.0 + op_norm(dense))
                value = kernel_identity_check(triple, z, w)
                assert abs(value - dense_kernel_identity(triple, z, w)) <= 1e-13 * (1.0 + value)
