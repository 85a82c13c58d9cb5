"""Linear-algebra kernel: norms, square roots, defects, rank decisions.

Expected values come from hand-computable matrices (Jordan cells, diagonal
and normal matrices, partial isometries) where the answer is classical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tetralab.matcore import (
    DEFAULT_POLICY,
    RADIUS_BISECTIONS,
    RADIUS_GRID,
    RADIUS_ROUNDING,
    NotContractiveError,
    NotFiniteError,
    NotPSDError,
    ShapeError,
    SubspaceBasis,
    commutator,
    defect,
    ensure_matrix,
    herm_part,
    numerical_radius,
    op_norm,
    range_basis,
    range_complement,
    subspace_gap,
)

from conftest import count_calls, forbid_linalg, projector, random_contraction, watch_decompositions


# ---------------------------------------------------------------- basics


def test_ensure_matrix_rejects_nonfinite():
    with pytest.raises(NotFiniteError):
        ensure_matrix([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(NotFiniteError):
        ensure_matrix([[np.inf]])


def test_ensure_matrix_rejects_wrong_rank_and_nonsquare():
    with pytest.raises(ShapeError):
        ensure_matrix([1.0, 2.0])
    with pytest.raises(ShapeError):
        ensure_matrix([[1.0, 2.0]], square=True)


def test_op_norm_matches_largest_singular_value(rng):
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    assert op_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=0, abs=1e-13)


def test_op_norm_refuses_nonfinite_complex_arrays():
    # whatever the layout of a complex array, the finiteness check of
    # ensure_matrix runs before the zero shortcut and the SVD
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        m = np.zeros((3, 4), dtype=complex)
        m[1, 2] = bad
        for view in (m, np.asfortranarray(m), m.conj().T, m[:, ::2]):
            with pytest.raises(NotFiniteError, match="operand contains non-finite entries"):
                op_norm(view)


def test_op_norm_of_a_zero_matrix_decomposes_nothing(monkeypatch):
    forbid_linalg(monkeypatch)
    for zero in (np.zeros((435, 435), complex), np.zeros((3, 0), complex), np.zeros((2, 2)), [[0, 0]]):
        assert op_norm(zero) == 0.0


def test_herm_part_and_commutator(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = herm_part(m)
    assert op_norm(h - h.conj().T) == 0.0
    a, b = rng.standard_normal((3, 3)), rng.standard_normal((3, 3))
    assert op_norm(commutator(a, b) + commutator(b, a)) < 1e-14


# ------------------------------------------------------ numerical radius

# w([[0, 1], [0, 0]]) = 1/2: the field of values of a 2x2 nilpotent Jordan
# cell is the closed disc of radius 1/2.
JORDAN = np.array([[0.0, 1.0], [0.0, 0.0]])


def test_radius_jordan_cell_is_half():
    w, err = numerical_radius(JORDAN)
    # the disc of radius 1/2 touches every line of the grid, so the lower
    # bound is exact and the gap is the overshoot of the polygon's vertices,
    # (1/cos(pi/256) - 1)/2, plus the rounding allowance
    assert w == pytest.approx(0.5, abs=1e-12)
    assert err == pytest.approx(0.5 * (1.0 / np.cos(np.pi / RADIUS_GRID) - 1.0), abs=1e-12)


def test_radius_at_a_corner_of_the_field_is_exact():
    # W(diag(1, 0)) = [0, 1]: every grid line near theta = 0 passes through
    # the corner 1, so the vertices sit on it up to the rounding allowance
    w, err = numerical_radius(np.diag([1.0, 0.0]))
    assert w == 1.0
    assert 0.0 < err < 1e-13


def test_radius_of_normal_matrix_is_spectral_radius():
    d = np.diag([0.3 + 0.4j, -0.9, 0.2j])
    w, err = numerical_radius(d)
    assert abs(w - 0.9) <= err + 1e-12


def test_radius_homogeneity():
    w1, _ = numerical_radius(JORDAN)
    w2, _ = numerical_radius((2.0 - 1.0j) * JORDAN)
    assert w2 == pytest.approx(abs(2.0 - 1.0j) * w1, abs=1e-10)


def looped_numerical_radius(x, grid_size=RADIUS_GRID):
    """Support values one theta at a time over the whole circle, then the
    vertex moduli of Johnson's outer polygon one vertex at a time."""
    x = ensure_matrix(x)
    if not x.any():
        return 0.0, 0.0
    vals = []
    for k in range(grid_size):
        theta = 2.0 * np.pi * k / grid_size
        half = 0.5 * (np.exp(1j * theta) * x + np.exp(-1j * theta) * x.conj().T)
        vals.append(float(np.linalg.eigvalsh(half).max()))
    slack = RADIUS_ROUNDING * x.shape[0] * np.finfo(float).eps * np.linalg.norm(x)
    h = np.pi / grid_size
    upper = max(
        math.hypot((0.5 * (m + m_next) + slack) / math.cos(h), 0.5 * (m_next - m) / math.sin(h))
        for m, m_next in zip(vals, vals[1:] + vals[:1])
    )
    return max(vals), upper - max(vals)


@pytest.mark.parametrize("dim", [*range(1, 13), 24, 42])
def test_radius_stacked_grid_matches_loop(rng, dim):
    # the stacked half-circle grid and the vectorized polygon give the
    # bracket of the per-theta loop over the whole circle, up to rounding
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    cases = [
        m,
        np.triu(m),
        np.tril(m.real, -1),
        np.zeros((dim, dim)),
        random_contraction(rng, dim, norm=0.7),
        np.diag(m[0]),
    ]
    for x in cases:
        w, err = numerical_radius(x)
        w_loop, err_loop = looped_numerical_radius(x)
        tol = 1e-12 * (1.0 + np.linalg.norm(x))
        assert w == pytest.approx(w_loop, abs=tol)
        assert w + err == pytest.approx(w_loop + err_loop, abs=tol)


def test_radius_runs_one_stacked_eigvalsh_and_no_svd(monkeypatch, rng):
    # a bracket that does not straddle the level is never refined
    level = 1.0 + DEFAULT_POLICY.eq_tol
    cases = []
    for dim in range(1, 9):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        cases += [m, random_contraction(rng, dim, norm=0.7)]
    calls, _, _ = watch_decompositions(monkeypatch)
    for x in cases:
        w, err = numerical_radius(x, level)
        assert not w <= level < w + err
    assert calls == {("eigvalsh", "_field_extremes"): len(cases)}


def test_radius_refinement_budget_runs_out_on_the_unit_disc(monkeypatch):
    # W(2 JORDAN) is the closed unit disc: every vertex of the polygon lies
    # outside it, so each bisection step runs, one single-angle eigvalsh
    # each, and the bracket still straddles the level at the end
    calls, _, _ = watch_decompositions(monkeypatch)
    level = 1.0 + DEFAULT_POLICY.eq_tol
    w, err = numerical_radius(2.0 * JORDAN, level)
    assert w <= level < w + err
    assert calls == {("eigvalsh", "_field_extremes"): 1 + RADIUS_BISECTIONS}


def test_radius_norm_bounds(rng):
    for _ in range(10):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        w, err = numerical_radius(m)
        nrm = op_norm(m)
        assert 0.5 * nrm <= w + err + 1e-12
        assert w <= nrm + err + 1e-12


# ----------------------------------------------------------------- defect


def test_defect_of_truncated_shift_has_rank_one():
    s = np.diag([1.0 + 0j] * 2, -1)  # shift on C^3
    dt = defect(s)
    assert dt.rank == 1
    assert dt.s.tolist() == [1.0]
    assert np.allclose(dt.op, np.diag([0.0, 0.0, 1.0]), atol=1e-14)
    assert np.allclose(np.abs(dt.basis.ravel()), [0.0, 0.0, 1.0], atol=1e-14)


def test_defect_of_unitary_is_zero(rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    dt = defect(q)
    assert dt.rank == 0
    assert op_norm(dt.op) == 0.0


def test_defect_rank_stable_under_conjugation(rng):
    # unitarily equivalent contractions must report equal defect ranks even
    # though conjugation turns exact zero eigenvalues into round-off
    s = np.diag([1.0 + 0j] * 3, -1)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert defect(q @ s @ q.conj().T).rank == defect(s).rank == 1


def test_defect_intertwining_identity(rng):
    # P D_P = D_{P*} P holds for every contraction
    for _ in range(5):
        p = random_contraction(rng, 4)
        dp, ds = defect(p).op, defect(p.conj().T).op
        assert op_norm(p @ dp - ds @ p) < 1e-10


def test_defect_rejects_expansion():
    with pytest.raises(NotContractiveError):
        defect(1.5 * np.eye(2))


def test_defect_rejects_indefinite_gramian_complement():
    # ||T|| = 1 + 1e-11 passes the contraction bound, but the eigenvalue
    # -2e-11 of I - T*T lies below the clamp threshold
    with pytest.raises(NotPSDError):
        defect([[1.0 + 1e-11]])


def test_defect_squares_to_gramian_complement(rng):
    t = random_contraction(rng, 5, norm=0.9)
    d = defect(t).op
    assert op_norm(d @ d - (np.eye(5) - t.conj().T @ t)) < 1e-12
    assert op_norm(d - d.conj().T) == 0.0


def test_defect_snaps_noise_eigenvalues(rng):
    # sqrt is not Lipschitz at 0: an eigenvalue of 1e-16 in I - T*T would
    # surface as 1e-8 in D_T unless it is clamped to zero first
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    t = (q * np.sqrt(np.array([0.0, 1.0 - 1e-16, 1.0]))) @ q.conj().T
    dt = defect(t)
    evals = np.sort(np.linalg.eigvalsh(dt.op))
    assert evals[0] >= -1e-15
    assert evals[1] < 1e-12  # not 1e-8
    assert evals[2] == pytest.approx(1.0, abs=1e-10)
    assert dt.rank == 1


# ------------------------------------------------------- rank decisions


def test_range_and_null_basis_oracle():
    m = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    rb = range_basis(m)
    nb = range_complement(m.conj().T)  # ker M = (range M*)^perp
    assert rb.rank == 1 and nb.rank == 1
    assert range_complement(m).rank == 2
    # null vector proportional to (2, -1)/sqrt(5)
    v = nb.basis[:, 0]
    assert op_norm(m @ v.reshape(-1, 1)) < 1e-12


def test_scale_anchor_zeroes_noise_matrices(rng):
    noise = 1e-15 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    # the cutoff RANK_TOL * max(sigma_max, 1) is anchored at the contraction
    # scale: a pure-noise matrix is rank 0 / all-null, not "full rank"
    assert range_basis(noise).rank == 0
    assert range_complement(noise).rank == 4
    # above the anchor the cutoff is relative: 1e-4 is noise next to 1e6
    big = np.diag([1e6, 1e-4])
    assert range_basis(big).rank == 1
    assert range_complement(big).rank == 1


def test_null_basis_orthogonal_to_row_space(rng):
    m = rng.standard_normal((3, 5))
    nb = range_complement(m.conj().T)
    assert nb.rank == 2
    assert op_norm(m @ nb.basis) < 1e-12


def test_orth_complement_roundtrip(rng):
    m = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    sub = range_basis(m)
    comp = range_complement(sub.basis)
    assert sub.rank + comp.rank == 5
    assert op_norm(sub.basis.conj().T @ comp.basis) < 1e-12
    proj_sum = projector(sub) + projector(comp)
    assert op_norm(proj_sum - np.eye(5)) < 1e-12


def test_subspace_gap_oracles(rng):
    e01 = SubspaceBasis(np.eye(3, dtype=complex)[:, :2])
    # same space, rotated basis
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rotated = SubspaceBasis(e01.basis @ q)
    assert subspace_gap(e01, rotated) < 1e-13
    e2 = SubspaceBasis(np.eye(3, dtype=complex)[:, 2:])
    assert subspace_gap(e01, e2) == pytest.approx(1.0, abs=1e-13)


def test_basis_prescreen_keeps_the_spectral_decision(monkeypatch):
    # the Frobenius norm of the Gram defect bounds its spectral norm: only
    # above 1e-12 does the SVD run and decide.  Four columns 0.9e-12 too
    # long have Frobenius defect 1.8e-12 and spectral defect 0.9e-12: kept
    calls = count_calls(monkeypatch, op_norm)
    b = np.eye(6, 4, dtype=complex) * np.sqrt(1 + 0.9e-12)
    gram_defect = b.conj().T @ b - np.eye(4)
    assert np.linalg.norm(gram_defect) > 1e-12 >= np.linalg.norm(gram_defect, 2)
    SubspaceBasis(b)
    assert calls["op_norm"] == 1
    # a spectral defect of 1.1e-12 is refused, with the message it always had
    b = np.eye(6, 1, dtype=complex) * np.sqrt(1 + 1.1e-12)
    with pytest.raises(ShapeError, match=r"^basis columns not orthonormal \(Gram defect 1\.100e-12\)$"):
        SubspaceBasis(b)
    # an orthonormal basis passes the screen without an SVD
    calls["op_norm"] = 0
    SubspaceBasis(np.eye(6, 4, dtype=complex))
    assert calls["op_norm"] == 0


@pytest.mark.parametrize("shape", [(4,), (4, 2, 1)])
def test_basis_must_be_two_dimensional(shape):
    # ambient_dim and rank are read off the shape, so its dimension count is
    # the one shape rule left
    with pytest.raises(ShapeError, match=r"^basis must be 2-D"):
        SubspaceBasis(np.ones(shape, dtype=complex))


def test_basis_acceptance_is_the_spectral_rule(rng):
    # perturbed orthonormal bases around the threshold: accepted exactly when
    # the spectral norm of the Gram defect is within 1e-12
    outcomes = set()
    for size in np.geomspace(1e-13, 1e-11, 40):
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        b = q + size * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) / 4
        spectral_ok = np.linalg.norm(b.conj().T @ b - np.eye(4), 2) <= 1e-12
        try:
            SubspaceBasis(b)
            accepted = True
        except ShapeError:
            accepted = False
        assert accepted == spectral_ok, size
        outcomes.add(accepted)
    assert outcomes == {True, False}


def test_projector_idempotent(rng):
    sub = range_basis(rng.standard_normal((6, 3)))
    p = projector(sub)
    assert op_norm(p @ p - p) < 1e-12
    assert op_norm(p - p.conj().T) < 1e-12


def test_policy_scaled_eq():
    pol = DEFAULT_POLICY
    assert pol.scaled_eq() == pytest.approx(pol.eq_tol)
    assert pol.scaled_eq(3.0, 7.0) == pytest.approx(pol.eq_tol * 8.0)
