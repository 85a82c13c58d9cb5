"""Linear-algebra kernel: norms, square roots, defects, rank decisions.

Expected values come from hand-computable matrices (Jordan cells, diagonal
and normal matrices, partial isometries) where the answer is classical.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from tetralab.charfn import theta_taylor
from tetralab.generate import symbol_pair
from tetralab.hardy import AnalyticSymbol, toeplitz
from tetralab.io import FormatError, symbol_from_obj
from tetralab.matcore import (
    CLAMP_TOL,
    DEFAULT_POLICY,
    RADIUS_BISECTIONS,
    RADIUS_GRID,
    RADIUS_ROUNDING,
    NotContractiveError,
    NotFiniteError,
    NotPSDError,
    ShapeError,
    commutator,
    defect,
    ensure_matrix,
    herm_part,
    numerical_radius,
    op_norm,
    op_norms,
    range_basis,
    subspace_gap,
)

from conftest import (
    count_calls,
    forbid_linalg,
    p_triple,
    projector,
    random_contraction,
    range_complement,
    watch_decompositions,
)


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


@pytest.mark.parametrize(
    "call, exc, message",
    [
        (lambda: theta_taylor(p_triple(np.zeros((2, 2))), -1), ValueError, "Taylor degree must be >= 0"),
        (lambda: toeplitz(AnalyticSymbol((np.eye(2),)), -1), ValueError, "truncation degree must be >= 0"),
        (lambda: AnalyticSymbol(()), ValueError, "symbol needs at least one coefficient"),
        (lambda: symbol_from_obj({"coeffs": []}), FormatError, "symbol object must have at least one coefficient"),
        (lambda: symbol_from_obj({}), FormatError, 'symbol object must contain a list field "coeffs"'),
        (lambda: op_norms(np.zeros((2, 2))), ShapeError, "operands must be a 3-D stack of matrices, got ndim=2"),
        (
            lambda: commutator(np.eye(2), np.eye(3)),
            ShapeError,
            r"commutator needs equal shapes, got \(2, 2\) and \(3, 3\)",
        ),
        (lambda: symbol_pair(np.random.default_rng(0), 2, "skew"), ValueError, "unknown symbol pair kind 'skew'"),
    ],
    ids=["theta_taylor", "toeplitz", "empty_symbol", "symbol_no_coeffs", "symbol_no_list", "op_norms", "commutator",
         "symbol_pair"],
)
def test_argument_checks_refuse_bad_input(call, exc, message):
    with pytest.raises(exc, match=f"^{message}$"):
        call()


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


# ------------------------------------------------------------ dtype rule

# real input (bool, integer or float) stays real as float64, and anything
# complex becomes complex128, even when every imaginary part is 0.0
RULE_INPUTS = [
    (np.array([[True, False], [True, True]]), np.float64),
    (np.array([[1, 2], [3, 4]], dtype=np.int32), np.float64),
    ([[1, 0], [2, 5]], np.float64),
    (np.array([[0.5, 0.25], [0.0, 1.0]], dtype=np.float32), np.float64),
    (np.array([[0.5, 0.25], [0.0, 1.0]]), np.float64),
    (np.array([[0.5, 0.25j], [0.0, 1.0]]), np.complex128),
    (np.array([[1, 2], [3, 4]], dtype=np.complex64), np.complex128),
    (np.array([[0.5, 0.0], [0.0, 1.0]], dtype=complex), np.complex128),
]


@pytest.mark.parametrize("a, dtype", RULE_INPUTS)
def test_ensure_matrix_follows_the_dtype_rule(a, dtype):
    arr = ensure_matrix(a)
    assert arr.dtype == dtype and arr.flags.c_contiguous and arr is not a
    assert np.array_equal(arr, np.asarray(a))


@pytest.mark.parametrize("a, dtype", RULE_INPUTS)
def test_op_norms_decompose_in_the_dtype_of_the_rule(monkeypatch, a, dtype):
    a = np.asarray(a)
    want = np.linalg.norm(a.astype(complex), 2)
    _, _, _, dtypes = watch_decompositions(monkeypatch)
    norms = op_norms([a, 3 * a])
    assert op_norm(a) == norms[0] == pytest.approx(want, rel=1e-14)
    assert norms.dtype == np.float64
    assert dtypes == {("svd", "op_norms", np.dtype(dtype).name): 2}
    # a stack with one complex member is complex
    dtypes.clear()
    op_norms([a, 1j * a])
    assert dtypes == {("svd", "op_norms", "complex128"): 1}


def test_range_basis_follows_the_dtype_rule(monkeypatch):
    calls, _, _, _ = watch_decompositions(monkeypatch)
    for dtype, unit in ((np.float64, 1.0), (np.complex128, 1j)):
        # the two shortcuts, without an SVD: the empty basis of a zero
        # matrix, and orthonormal columns as the caller's own object
        empty = range_basis(np.zeros((4, 3), dtype))
        assert empty.shape == (4, 0) and empty.dtype == dtype
        ortho = unit * np.eye(4, 2)
        assert range_basis(ortho) is ortho
        assert not calls
        deficient = range_basis(unit * np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))
        assert deficient.shape == (3, 1) and deficient.dtype == dtype
        # its Gram defect is normed, then the thin SVD decides
        assert calls == {("svd", "op_norms"): 1, ("svd", "range_basis"): 1}
        calls.clear()
    # integer and boolean input is copied to float64 by ensure_matrix, so
    # neither shortcut can hand back the caller's object
    for a in (np.zeros((4, 3), int), np.eye(4, 2, dtype=int), np.eye(4, 2, dtype=bool)):
        basis = range_basis(a)
        assert basis.dtype == np.float64 and basis is not a
        assert np.array_equal(basis, a[:, : basis.shape[1]])
    assert not calls


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
    calls, _, _, _ = watch_decompositions(monkeypatch)
    for x in cases:
        w, err = numerical_radius(x, level)
        assert not w <= level < w + err
    assert calls == {("eigvalsh", "_field_extremes"): len(cases)}


def test_radius_refinement_budget_runs_out_on_the_unit_disc(monkeypatch):
    # W(2 JORDAN) is the closed unit disc: every vertex of the polygon lies
    # outside it, so each bisection step runs, one single-angle eigvalsh
    # each, and the bracket still straddles the level at the end
    calls, _, _, _ = watch_decompositions(monkeypatch)
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


@pytest.mark.parametrize("excess", [2.0, 1.01, 0.99, 0.5, 0.1])
def test_defect_decides_on_the_contraction_bound(excess):
    # ||T|| = 1 + excess * eq_tol: past the contraction bound T is refused as
    # non-contractive; within it, the eigenvalue 1 - ||T||^2 of I - T*T lies
    # between 1 - (1 + eq_tol)^2 and -CLAMP_TOL and is snapped to zero, so
    # every T that validate admits has a defect
    c = 1.0 + excess * DEFAULT_POLICY.eq_tol
    t = c * np.diag([1.0, 0.5, 0.0])
    if excess > 1.0:
        with pytest.raises(NotContractiveError):
            defect(t)
        return
    assert 1.0 - c * c < -CLAMP_TOL
    dt = defect(t)
    assert dt.rank == 2
    assert np.allclose(dt.op, np.diag([0.0, np.sqrt(1.0 - 0.25 * c * c), 1.0]), rtol=0.0, atol=1e-15)
    assert dt.op[0, 0] == 0.0


def test_defect_refuses_an_eigenvalue_below_what_its_norm_allows(monkeypatch):
    # a T with ||T|| <= 1 + eq_tol has the eigenvalues of I - T*T above
    # 1 - (1 + eq_tol)^2; one an eigensolver put below that, past CLAMP_TOL,
    # would be refused rather than snapped
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: (eigh(h)[0] - 3.0 * DEFAULT_POLICY.eq_tol, eigh(h)[1]))
    with pytest.raises(NotPSDError, match="below clamp threshold"):
        defect([[1.0]])


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
# range_complement is the dense SVD oracle of conftest that the kernel
# tests compare against


def test_range_and_null_basis_oracle():
    m = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]])
    rb = range_basis(m)
    nb = range_complement(m.conj().T)  # ker M = (range M*)^perp
    assert rb.shape[1] == 1 and nb.shape[1] == 1
    assert range_complement(m).shape[1] == 2
    # null vector proportional to (2, -1)/sqrt(5)
    v = nb[:, 0]
    assert op_norm(m @ v.reshape(-1, 1)) < 1e-12


def test_scale_anchor_zeroes_noise_matrices(rng):
    noise = 1e-15 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    # the cutoff RANK_TOL * max(sigma_max, 1) is anchored at the contraction
    # scale: a pure-noise matrix is rank 0 / all-null, not "full rank"
    assert range_basis(noise).shape == (4, 0)
    assert range_complement(noise).shape[1] == 4
    # above the anchor the cutoff is relative: 1e-4 is noise next to 1e6
    big = np.diag([1e6, 1e-4])
    assert range_basis(big).shape[1] == 1
    assert range_complement(big).shape[1] == 1


def test_null_basis_orthogonal_to_row_space(rng):
    m = rng.standard_normal((3, 5))
    nb = range_complement(m.conj().T)
    assert nb.shape[1] == 2
    assert op_norm(m @ nb) < 1e-12


def test_orth_complement_roundtrip(rng):
    m = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
    sub = range_basis(m)
    comp = range_complement(sub)
    assert sub.shape[1] + comp.shape[1] == 5
    assert op_norm(sub.conj().T @ comp) < 1e-12
    proj_sum = projector(sub) + projector(comp)
    assert op_norm(proj_sum - np.eye(5)) < 1e-12


def test_subspace_gap_oracles(rng):
    e01 = np.eye(3, dtype=complex)[:, :2]
    # same space, rotated basis
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    assert subspace_gap(e01, e01 @ q) < 1e-13
    e2 = np.eye(3, dtype=complex)[:, 2:]
    assert subspace_gap(e01, e2) == pytest.approx(1.0, abs=1e-13)
    with pytest.raises(ShapeError, match=r"^subspaces live in different ambient spaces$"):
        subspace_gap(e01, np.eye(4, 2, dtype=complex))


def test_basis_prescreen_keeps_the_spectral_decision(monkeypatch):
    # the Frobenius norm of the Gram defect bounds its spectral norm: only
    # above 1e-12 does the spectral norm decide.  Four columns 0.9e-12 too
    # long have Frobenius defect 1.8e-12 and spectral defect 0.9e-12: range_basis
    # keeps them as the basis after one op_norm, and no SVD
    calls = count_calls(monkeypatch, op_norm)
    b = np.eye(6, 4, dtype=complex) * np.sqrt(1 + 0.9e-12)
    gram_defect = b.conj().T @ b - np.eye(4)
    assert np.linalg.norm(gram_defect) > 1e-12 >= np.linalg.norm(gram_defect, 2)
    assert range_basis(b) is b
    assert calls["op_norm"] == 1
    assert subspace_gap(b, b) < 1e-11
    # at a spectral defect of 1.1e-12 range_basis takes the thin SVD in place
    # of the columns, and subspace_gap measures the column spaces it spans:
    # the same space as e_0, so the gap is that of the SVD basis, 0
    b = np.eye(6, 1, dtype=complex) * np.sqrt(1 + 1.1e-12)
    q = range_basis(b)
    assert q is not b and np.abs(np.abs(q) - np.eye(6, 1)).max() < 1e-15
    for pair in ((b, np.eye(6, 1)), (np.eye(6, 1), b)):
        assert subspace_gap(*pair) == 0.0
    # an orthonormal basis passes the screen without a spectral norm
    calls["op_norm"] = 0
    eye = np.eye(6, 4, dtype=complex)
    assert range_basis(eye) is eye
    assert calls["op_norm"] == 0


@pytest.mark.parametrize("shape", [(4,), (4, 2, 1)])
def test_basis_must_be_two_dimensional(shape):
    # the ambient dimension and the rank are read off the shape, so its
    # dimension count is the one shape rule; range_basis refuses such an M
    # as every matrix input is refused, and subspace_gap bases both of its
    # operands with it
    for pair in ((np.ones(shape, dtype=complex), np.eye(4, 1)), (np.eye(4, 1), np.ones(shape, dtype=complex))):
        with pytest.raises(ShapeError, match=r"^M must be 2-D"):
            subspace_gap(*pair)
    with pytest.raises(ShapeError, match=r"^M must be 2-D"):
        range_basis(np.ones(shape, dtype=complex))


def test_basis_acceptance_is_the_spectral_rule(rng):
    # perturbed orthonormal bases around the threshold: range_basis keeps M as
    # the basis exactly when the spectral norm of the Gram defect is within
    # 1e-12, and subspace_gap gives the gap of the basis range_basis decides,
    # whether that is M or its thin SVD
    outcomes = set()
    for size in np.geomspace(1e-13, 1e-11, 40):
        q, _ = np.linalg.qr(rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        b = q + size * (rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))) / 4
        kept = range_basis(b) is b
        assert kept == (np.linalg.norm(b.conj().T @ b - np.eye(4), 2) <= 1e-12), size
        assert subspace_gap(b, q) == subspace_gap(range_basis(b), q), size
        outcomes.add(kept)
    assert outcomes == {True, False}
    # far from orthonormal: the columns of q times an invertible factor span
    # range(q), so the gap is that of q to itself
    b = q @ (np.eye(4) + np.triu(np.ones((4, 4)), 1))
    assert range_basis(b) is not b
    assert subspace_gap(b, q) < 1e-14 and subspace_gap(q, b) < 1e-14


def test_projector_idempotent(rng):
    sub = range_basis(rng.standard_normal((6, 3)))
    p = projector(sub)
    assert op_norm(p @ p - p) < 1e-12
    assert op_norm(p - p.conj().T) < 1e-12


def test_policy_scaled_eq():
    pol = DEFAULT_POLICY
    assert pol.scaled_eq() == pytest.approx(pol.eq_tol)
    assert pol.scaled_eq(3.0, 7.0) == pytest.approx(pol.eq_tol * 8.0)
