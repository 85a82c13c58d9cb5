"""Property checks over random contractions and matrices, drawn by hypothesis.

``TetrablockTriple.adjoint`` swaps the cached defect data instead of
recomputing it, and every Theta_{P*} in the package is computed from that
swapped data.  This is sound only if the swap equals a fresh validation of
P* bit for bit, which is checked here over contractions of dimension 1-8:
generic, nilpotent, unitary, zero and scalar multiples of the identity.  The
adjoint keeps the norms and commutator norms of its triple, which must
agree with those of that validation to 1e-14 relative (the commutator norms,
rounding residuals, to 1e-14 of the largest norm).

``is_pure`` finds the nilpotency index from the squares P^(2^j) and a
bisection, which needs ||P^(k+1)||_F <= ||P|| ||P^k||_F for a contraction; it
must give the index and ``exact_zero`` of the linear scan over the powers,
over grid shifts, generated compressions, scaled strictly triangular
contractions and pure diagonal P.

``pure_isometry_model`` takes the isometric interior, the directions of
D_{P*} on which A and B are isometric, from one ``eigh`` of a rank D_{P*}
square matrix; over triples (X, X, X/2) with planted isometric directions of
X it must equal the two-step dense construction of ``conftest``: the same
rank and a gap of at most 1e-10.  Where I - A*A (and possibly I - B*B on the
same direction) has an eigenvalue between 0.5 RANK_TOL and RANK_TOL, it must
keep that direction as the construction does: the same rank, and a gap of at
most 1e-6 beside an eigenvalue 1e-7 of I - A*A.

``op_norm`` skips the SVD of a zero matrix and takes the first singular
value itself; every residual of a report is one of its values, so it must
give the bits of ``norm(ensure_matrix(m), 2)`` whatever the layout or dtype.
``op_norms`` norms a stack of equal-shape residuals by one stacked SVD; each
of its values must be the bits of ``op_norm`` of that member, over m x n
stacks (m, n = 0-12) of random, rank-deficient and all-zero members, no
all-zero member may reach the SVD, and a non-finite entry anywhere is refused.

``numerical_radius`` certifies a bracket [w, w + err] of the numerical
radius from a grid of 256 angles; it must contain the largest support value
on a 16 times denser grid, over matrices of dimension 1-8: generic, normal,
nilpotent and scalar multiples of the identity.

``solve_fundamental`` divides Q* R_i Q by s s^T, s the spectrum of D_P on
its range basis Q that ``defect`` keeps, in place of the pseudoinverse of
Q* D_P Q; over generated triples, their adjoints and the triples with a
small eigenvalue of D_P outside Q, F_i must equal the dense sandwich
pinv(Q* D_P Q) Q* R_i Q pinv(Q* D_P Q) within 1e-12 (1 + ||F_i||), and the
kept factor D_P Q = Q diag(s) must equal the product D_P Q within 1e-14.

For a unimodular omega, (omega A, omega B, omega^2 P) is a tetrablock
contraction with fundamental operators (omega F1, omega F2).  On random
suite instances the rotated solve must give those operators in ambient
coordinates (the defect bases of omega^2 P may differ from those of P inside
degenerate eigenspaces), numerical-radius brackets that overlap, and the
same verdict on every check of the fundamental batteries.

``subspace_gap`` takes ||P_A - P_B|| on thin factors through the identity
||P_A - P_B|| = max(||(I - P_A) Q_B||, ||(I - P_B) Q_A||); it must equal
the norm of the projector difference for subspaces of C^m, m = 1-40, of
any ranks: equal, unequal, zero, the whole space, and nearly equal.

The range partition entries report the Frobenius norm of the grid residual
R = W W* + T T* - I and of its leading block.  Over pure contractions of
dimension 1-4 at default and small degrees, with T_Theta as built or moved
by up to 1e-3, each must not fall below the spectral norm of the same
residual formed densely (beyond 1e-13 of rounding), nor exceed sqrt(M)
times it: a sound bound that is not vacuous.

``build_model`` takes H_P = range(W) and bounds its gap to the span of the
dim H smallest left singular vectors of T_Theta by a Davis-Kahan residual,
without a decomposition of T_Theta.  Over pure contractions of dimension
1-4 (generic, nilpotent, scalar, zero) at default and small degrees, with
T_Theta as built or moved by up to 1e-7 inside ``build_model``, that bound
must not fall below the gap to the trailing left singular vectors of a full
SVD of the same T_Theta (beyond 1e-13, the rounding of the dense SVD), nor
exceed twice it (plus 1e-13): it is sound and not vacuous.

The power pass of the model degree, the points of Theta_P and the blocks of
a Toeplitz matrix are computed in bulk: the powers of P are normed in one
stacked SVD per stack (cut where their Frobenius norm falls below the
cutoff, or where the stack fills), the resolvents in one stacked solve, the
blocks in one gather.  Each must give the bits of the loop it replaced,
kept in ``conftest``: over zero, nilpotent, scalar, generic and unitary P of
dimension 1-6 with the cap on powers and the stack size lowered (so the
refusal and the flush of a full stack both run), over 0-12 points of the
disc, and over symbols with rectangular or empty blocks.

By the dtype rule of ``matcore`` a real contraction X is decomposed in
float64 and its complex copy in complex128; over real contractions of
dimension 1-6 (generic, nilpotent, diagonal, orthogonal, zero) ``op_norm``,
the defect spectrum and the ``numerical_radius`` bracket of the two must
agree within 16 eps ||X|| (16 eps for the spectrum, of scale 1), with the
same defect rank.

Conjugating a generated triple by a unitary U gives a unitarily equivalent
triple, so the whole instance battery must reach the same verdict on every
check, and each residual may move only by rounding, below its tolerance;
the model-space residuals are the ones this guards most.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    defect_outside_basis_triples,
    linear_scan_nilpotency,
    p_triple,
    power_norms_one_at_a_time,
    projector,
    spectral_kernel_gap,
    theta_eval_per_point,
    toeplitz_slice_loop,
    triples_agree,
    two_step_interior,
    watch_decompositions,
)
from tetralab import charfn  # noqa: E402
from tetralab.fundamental import (  # noqa: E402
    solve_fundamental,
    verify_commutator_transfer,
    verify_cross_relations,
    verify_difference_identity,
    verify_tetra_characterization,
)
from tetralab.cli import run_instance_battery  # noqa: E402
from tetralab.generate import FAMILIES, make_instance, random_unitary  # noqa: E402
from tetralab.hardy import AnalyticSymbol, toeplitz  # noqa: E402
from tetralab.matcore import (  # noqa: E402
    DEFAULT_POLICY,
    MAX_GRID_DIM,
    RANK_TOL,
    NotFiniteError,
    ShapeError,
    TetralabError,
    defect,
    ensure_matrix,
    numerical_radius,
    op_norm,
    op_norms,
    subspace_gap,
)
from tetralab.bidisc import build as build_grid  # noqa: E402
from tetralab.triples import is_pure, validate  # noqa: E402

KINDS = ("generic", "nilpotent", "unitary", "zero", "scalar")


def contraction(kind: str, dim: int, seed: int, norm: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "zero":
        return np.zeros((dim, dim), dtype=complex)
    if kind == "scalar":
        return norm * np.exp(2j * np.pi * rng.uniform()) * np.eye(dim)
    if kind == "unitary":
        return np.linalg.qr(m)[0]
    if kind == "nilpotent":
        m = np.triu(m, 1)
        if not m.any():  # dimension 1: the only nilpotent is zero
            return m
    return norm * m / np.linalg.norm(m, 2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    norm=st.floats(0.05, 1.0),
)
def test_adjoint_equals_validation_of_the_adjoint(kind, dim, seed, norm):
    # the adjoint keeps the norms of its triple, as ||X*|| = ||X||; they
    # agree with those validate computes for the adjoints only to rounding
    # (||P*|| reads 0x1.0000000000000p+0 against 0x1.0000000000001p+0 on the
    # generic kind, dim 2, seed 1)
    p = contraction(kind, dim, seed, norm)
    triple = p_triple(p)
    adj, expected = triple.adjoint(), p_triple(p.conj().T)
    assert (adj.norms, adj.commutators) == (triple.norms, triple.commutators)
    assert triples_agree(adj, expected)


@st.composite
def nilpotency_inputs(draw) -> np.ndarray:
    """A contraction P: a grid shift, a generated compression, a scaled
    strictly triangular matrix, with or without a tiny diagonal, or a pure
    diagonal."""
    kind = draw(st.sampled_from(("grid", "compression", "triangular", "diagonal")))
    if kind == "grid":
        return build_grid(draw(st.integers(1, 8))).P
    seed, dim = draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 12))
    if kind == "compression":
        return make_instance("compressions", seed=seed, index=0, dim=dim, degree=draw(st.integers(1, 6))).triple.P
    if kind == "diagonal":
        moduli = draw(st.lists(st.sampled_from((0.0, 1e-14, 1e-12, 1e-10, 5e-10, 0.3, 0.99)), min_size=dim, max_size=dim))
        return np.diag(np.asarray(moduli) * np.exp(2j * np.pi * np.random.default_rng(seed).uniform(size=dim)))
    # a Jordan-like block: strictly triangular plus eigenvalues 1e-10
    shift = draw(st.sampled_from((0.0, 1e-10))) * np.eye(dim)
    return contraction("nilpotent", dim, seed, draw(st.sampled_from((1.0, 0.5, 1e-3, 3e-4, 1e-4, 1e-7)))) + shift


@settings(derandomize=True, max_examples=200, deadline=None)
@given(p=nilpotency_inputs())
# P^3 is below 1e-12 but not zero, P^4 is exactly zero
@example(p=np.triu(contraction("generic", 4, 0, 1.0), 1) * 3e-4)
def test_is_pure_bisection_equals_the_linear_scan(p):
    cert = is_pure(p_triple(p))
    expected = linear_scan_nilpotency(p) if cert.spectral_radius < RANK_TOL else (None, False)
    assert (cert.nilpotency_index, cert.exact_zero) == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    dim=st.integers(1, 10),
    planted=st.integers(0, 10),
    seed=st.integers(0, 2**32 - 1),
    top=st.floats(0.0, 0.99),
)
def test_isometric_interior_on_planted_contractions(dim, planted, seed, top):
    # X = U diag(s) V* with min(planted, dim) singular values exactly 1 and
    # the rest in [0, top]: on (X, X, X/2), whose D_{P*} has full rank, the
    # interior is the coordinates of ker(I - X*X), spanned by those columns of V
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, top, dim)
    s[: min(planted, dim)] = 1.0
    x = random_unitary(rng, dim) @ np.diag(s) @ random_unitary(rng, dim).conj().T
    triple = validate(x, x, 0.5 * x)
    interior, expected = charfn._isometric_interior(triple), two_step_interior(triple)
    assert interior.shape[1] == expected.shape[1] == min(planted, dim)
    assert subspace_gap(interior, expected) <= 1e-10


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    scale=st.floats(0.5, 0.999),
    seed=st.integers(0, 2**32 - 1),
    both=st.booleans(),
)
@example(scale=0.1, seed=0, both=False)
def test_isometric_interior_rank_at_the_threshold(scale, seed, both):
    # I - A*A has the eigenvalues 0, scale * RANK_TOL and 1e-7 on the first
    # three directions of U, and I - B*B has 0, the same or 0, and 0 there:
    # the two-step construction keeps the first two directions, and the
    # interior must be no smaller.  The eigenvalue 1e-7 next to the cut
    # leaves both constructions about rounding / 1e-7 ~ 1e-8 off the exact span
    u = random_unitary(np.random.default_rng(seed), 4)
    planted = 1.0 - scale * RANK_TOL
    a = u @ np.diag(np.sqrt([1.0, planted, 1.0 - 1e-7, 0.25])) @ u.conj().T
    b = u @ np.diag(np.sqrt([1.0, planted if both else 1.0, 1.0, 0.36])) @ u.conj().T
    triple = validate(a, b, u @ np.diag([0.0, 0.3, 0.2, 0.1]) @ u.conj().T)
    interior, expected = charfn._isometric_interior(triple), two_step_interior(triple)
    assert interior.shape[1] == expected.shape[1] == 2
    assert subspace_gap(interior, expected) <= 1e-6


LAYOUTS = ("c_order", "f_order", "conj_transpose", "strided", "float64", "int", "nested_list", "zero")


def operand(layout: str, rows: int, cols: int, seed: int):
    """A rows x cols operand of op_norm in the given layout or dtype."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    if layout == "f_order":
        return np.asfortranarray(m)
    if layout == "conj_transpose":
        return operand("c_order", cols, rows, seed).conj().T
    if layout == "strided":
        big = rng.standard_normal((2 * rows + 1, 3 * cols + 2)) + 0j
        return big[1::2, ::3][:rows, :cols]
    if layout == "float64":
        return m.real.copy()
    if layout == "int":
        return rng.integers(-9, 10, size=(rows, cols))
    if layout == "nested_list":
        return m.tolist()
    if layout == "zero":
        return np.zeros((rows, cols), dtype=complex)
    return m


def reference_norm(m) -> float:
    """The spectral norm of the validated copy, 0.0 for an empty matrix."""
    m = ensure_matrix(m, name="operand")
    return 0.0 if m.size == 0 else float(np.linalg.norm(m, 2))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    layout=st.sampled_from(LAYOUTS),
    rows=st.integers(0, 40),
    cols=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_op_norm_is_bit_equal_to_the_spectral_norm(layout, rows, cols, seed):
    m = operand(layout, rows, cols, seed)
    if rows == 0 and layout == "nested_list":  # [] is 1-D: both refuse it
        for norm in (op_norm, reference_norm):
            with pytest.raises(ShapeError):
                norm(m)
        return
    assert np.shape(m) == (rows, cols)
    assert op_norm(m).hex() == reference_norm(m).hex()


MEMBER_KINDS = ("random", "rank_deficient", "zero")


def stack_member(kind: str, rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """A rows x cols member of an op_norms stack: a product of random factors
    of full rank, of rank one less (when that is positive), or all zero."""
    if kind == "zero":
        return np.zeros((rows, cols), dtype=complex)
    inner = max(min(rows, cols) - (kind == "rank_deficient"), 0)
    left = rng.standard_normal((rows, inner)) + 1j * rng.standard_normal((rows, inner))
    right = rng.standard_normal((inner, cols)) + 1j * rng.standard_normal((inner, cols))
    return left @ right


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.sampled_from(MEMBER_KINDS), max_size=6),
    rows=st.integers(0, 12),
    cols=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    poison=st.sampled_from((None, np.nan, np.inf, complex(0.0, -np.inf))),
)
def test_op_norms_is_bit_equal_to_op_norm_of_each_member(kinds, rows, cols, seed, poison):
    rng = np.random.default_rng(seed)
    stack = np.array([stack_member(k, rows, cols, rng) for k in kinds], dtype=complex)
    stack = stack.reshape(len(kinds), rows, cols)
    if poison is not None and stack.size:
        stack[rng.integers(len(kinds)), rng.integers(rows), rng.integers(cols)] = poison
        with pytest.raises(NotFiniteError, match="operand contains non-finite entries"):
            op_norms(stack)
        return
    with pytest.MonkeyPatch.context() as mp:
        _, zeros, _, _ = watch_decompositions(mp)
        norms = op_norms(stack)
    assert zeros == []  # no all-zero member reaches the stacked SVD
    assert norms.shape == (len(kinds),)
    assert [x.hex() for x in norms.tolist()] == [op_norm(m).hex() for m in stack]


RADIUS_KINDS = ("generic", "normal", "nilpotent", "scalar")
DENSE_THETAS = 2.0 * np.pi * np.arange(16 * 256) / (16 * 256)


def radius_operand(kind: str, dim: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = scale * (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    if kind == "normal":
        q = np.linalg.qr(m)[0]
        return (q * np.diag(m)) @ q.conj().T
    if kind == "nilpotent":
        return np.triu(m, 1)
    if kind == "scalar":
        return m[0, 0] * np.eye(dim)
    return m


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(RADIUS_KINDS),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 1e3),
)
def test_radius_bracket_contains_the_dense_grid_maximum(kind, dim, seed, scale):
    x = radius_operand(kind, dim, seed, scale)
    w, err = numerical_radius(x)
    half = np.exp(1j * DENSE_THETAS)[:, None, None] * x
    half = 0.5 * (half + half.conj().transpose(0, 2, 1))
    dense = float(np.linalg.eigvalsh(half).max())
    # the dense grid contains the coarse one, so w may exceed it by rounding only
    assert w <= dense + 1e-13 * (1.0 + np.linalg.norm(x))
    assert dense <= w + err


REAL_KINDS = ("generic", "nilpotent", "diagonal", "orthogonal", "zero")
# the real and complex LAPACK paths agree within this many units of
# eps ||X|| (eps for the defect spectrum, whose scale is 1); 3.1 and 3.6 are
# the largest seen over 3000 seeded real contractions of these kinds
RULE_ULPS = 16


def real_contraction(kind: str, dim: int, seed: int, norm: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    if kind == "zero":
        return np.zeros((dim, dim))
    if kind == "orthogonal":
        return np.linalg.qr(m)[0]
    if kind == "nilpotent":
        m = np.triu(m, 1)
    if kind == "diagonal":
        m = np.diag(np.diag(m))
    return norm * m / np.linalg.norm(m, 2) if m.any() else m


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(REAL_KINDS),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    norm=st.floats(0.05, 0.9),
)
def test_real_contraction_agrees_with_its_complex_copy(kind, dim, seed, norm):
    # by the dtype rule a real X is decomposed in float64 and X.astype(complex)
    # in complex128: the norm, the defect spectrum and the radius bracket
    # agree to rounding, and the defect keeps the same rank
    x = real_contraction(kind, dim, seed, norm)
    xc = x.astype(complex)
    bound = RULE_ULPS * np.finfo(float).eps * op_norm(xc)
    assert abs(op_norm(x) - op_norm(xc)) <= bound
    d, dc = defect(x), defect(xc)
    assert (d.basis.dtype, d.op.dtype, dc.op.dtype) == (np.float64, np.float64, np.complex128)
    assert d.s.shape == dc.s.shape
    assert np.all(np.abs(d.s - dc.s) <= RULE_ULPS * np.finfo(float).eps)
    (w, gap), (wc, gapc) = numerical_radius(x), numerical_radius(xc)
    assert abs(w - wc) <= bound and abs(gap - gapc) <= bound


def fundamental_verdicts(triple) -> tuple[list, object]:
    """(name, passed, skipped) of every check of the four fundamental batteries."""
    pair_f, pair_g = solve_fundamental(triple), solve_fundamental(triple.adjoint())
    reports = (
        verify_tetra_characterization(triple, pair_f),
        verify_difference_identity(triple, pair_f),
        verify_cross_relations(triple, pair_f, pair_g),
        verify_commutator_transfer(triple, pair_f, pair_g),
    )
    return [(e.name, e.passed, e.skipped) for rep in reports for e in rep.entries], pair_f


@st.composite
def solver_triples(draw):
    """A generated triple or one of ``defect_outside_basis_triples``, or its adjoint."""
    edge = draw(st.sampled_from((None, 0, 1)))
    if edge is None:
        family, seed = draw(st.sampled_from(FAMILIES)), draw(st.integers(0, 2**32 - 1))
        index, dim = draw(st.integers(0, 5)), draw(st.sampled_from((3, 6)))
        triple = make_instance(family, seed, index, dim, degree=3).triple
    else:
        triple = defect_outside_basis_triples()[edge]
    return triple.adjoint() if draw(st.booleans()) else triple


@settings(derandomize=True, max_examples=100, deadline=None)
@given(triple=solver_triples())
def test_fundamental_solve_equals_the_pseudoinverse_sandwich(triple):
    q, dp = triple.dp.basis, triple.dp.op
    qh = q.conj().T
    dinv = np.linalg.pinv(qh @ dp @ q)
    pair = solve_fundamental(triple)
    for f, r in (
        (pair.F1, triple.A - triple.B.conj().T @ triple.P),
        (pair.F2, triple.B - triple.A.conj().T @ triple.P),
    ):
        assert op_norm(f - dinv @ (qh @ r @ q) @ dinv) <= 1e-12 * (1.0 + op_norm(f))
    assert op_norm(triple.dp.factor - dp @ q) <= 1e-14


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 5),
    dim=st.sampled_from((3, 6)),
    angle=st.floats(0.0, 2.0 * np.pi),
)
def test_unimodular_rotation_rotates_the_fundamental_operators(family, seed, index, dim, angle):
    t = make_instance(family, seed, index, dim, degree=3).triple
    omega = np.exp(1j * angle)
    rotated = validate(omega * t.A, omega * t.B, omega**2 * t.P)
    verdicts, pair = fundamental_verdicts(t)
    rotated_verdicts, rotated_pair = fundamental_verdicts(rotated)
    assert rotated_verdicts == verdicts
    for f, rf in ((pair.F1, rotated_pair.F1), (pair.F2, rotated_pair.F2)):
        q, rq = pair.basis.basis, rotated_pair.basis.basis
        diff = rq @ rf @ rq.conj().T - omega * (q @ f @ q.conj().T)
        assert op_norm(diff) <= DEFAULT_POLICY.scaled_eq(op_norm(f))
    # both brackets contain w(F_i) = w(omega F_i)
    slack = DEFAULT_POLICY.scaled_eq(1.0)
    level = 1.0 + DEFAULT_POLICY.eq_tol
    for f, rf in ((pair.F1, rotated_pair.F1), (pair.F2, rotated_pair.F2)):
        (w, err), (rw, rerr) = numerical_radius(f, level), numerical_radius(rf, level)
        assert rw <= w + err + slack and w <= rw + rerr + slack


def orthonormal(z: np.ndarray) -> np.ndarray:
    return np.linalg.qr(z)[0] if z.shape[1] else z


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    m=st.integers(1, 40),
    frac_a=st.floats(0.0, 1.0),
    frac_b=st.floats(0.0, 1.0),
    nearness=st.sampled_from((None, 0.0, 1e-9, 1e-4)),
    seed=st.integers(0, 2**32 - 1),
)
def test_subspace_gap_equals_the_projector_difference(m, frac_a, frac_b, nearness, seed):
    # nearness None draws B independently, with its own rank; otherwise B is
    # A moved by that much.  The gap is that of the column spaces, so it is
    # the same for orthonormal bases and for them times invertible factors,
    # here with singular values in [1, 3]
    rng = np.random.default_rng(seed)

    def gaussian(r, rows=m):
        return rng.standard_normal((rows, r)) + 1j * rng.standard_normal((rows, r))

    def invertible(q):
        r = q.shape[1]
        if not r:
            return q
        g = gaussian(r, rows=r)
        return q @ (2.0 * np.eye(r) + g / op_norm(g))

    ra = round(frac_a * m)
    a = orthonormal(gaussian(ra))
    if nearness is None:
        b = orthonormal(gaussian(round(frac_b * m)))
    else:
        b = orthonormal(a + nearness * gaussian(ra))
    gap = op_norm(projector(a) - projector(b))
    assert abs(subspace_gap(a, b) - gap) <= 1e-13
    assert abs(subspace_gap(invertible(a), invertible(b)) - gap) <= 1e-13


def moved_toeplitz(rng, delta, built):
    """``charfn.toeplitz`` with its result moved by ``delta`` in norm and kept in ``built``."""
    real = charfn.toeplitz

    def moved(sym, n):
        t = real(sym, n)
        e = rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape)
        built.append(t + delta * e / op_norm(e))
        return built[-1]

    return moved


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("generic", "nilpotent", "scalar", "zero")),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    norm=st.floats(0.05, 0.7),
    degree=st.one_of(st.none(), st.integers(0, 10)),
    delta=st.one_of(st.just(0.0), st.floats(1e-10, 1e-3)),
)
def test_range_partition_bounds_the_dense_residual_norm(kind, dim, seed, norm, degree, delta):
    p = contraction(kind, dim, seed, norm)
    built = []
    model = charfn.build_model(p_triple(p), degree)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charfn, "toeplitz", moved_toeplitz(np.random.default_rng(seed), delta, built))
        rep = charfn.verify_model_decomposition(model)
    entries = {e.name: e.residual for e in rep.entries}
    w, t = model.W, built[-1]
    dense = w @ w.conj().T + t @ t.conj().T - np.eye(len(w))
    top = model.N * model.theta.d_out
    for name, r in (("range_partition", dense), ("range_partition_interior", dense[:top, :top])):
        exact = op_norm(r)
        assert exact - 1e-13 <= entries[name] <= np.sqrt(max(len(r), 1)) * exact + 1e-13, name


def conjugated(inst, u):
    t = inst.triple
    return dataclasses.replace(
        inst, triple=validate(u @ t.A @ u.conj().T, u @ t.B @ u.conj().T, u @ t.P @ u.conj().T)
    )


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(("generic", "nilpotent", "scalar", "zero")),
    dim=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    norm=st.floats(0.05, 0.7),
    degree=st.one_of(st.none(), st.integers(0, 10)),
    delta=st.one_of(st.just(0.0), st.floats(1e-10, 1e-7)),
)
def test_model_space_gap_bounds_the_dense_gap(kind, dim, seed, norm, degree, delta):
    p = contraction(kind, dim, seed, norm)
    built = []
    model = charfn.build_model(p_triple(p), degree)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charfn, "toeplitz", moved_toeplitz(np.random.default_rng(seed), delta, built))
        rep = charfn.verify_model_decomposition(model)
    [gap] = [e.residual for e in rep.entries if e.name == "model_space_gap"]
    dense = spectral_kernel_gap(model.W, built[-1])
    assert dense - 1e-13 <= gap <= 2.0 * dense + 1e-13


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 5),
    dim=st.integers(2, 4),
)
def test_unitary_conjugation_keeps_every_verdict_of_the_battery(family, seed, index, dim):
    inst = make_instance(family, seed, index, dim, degree=3)
    u = random_unitary(np.random.default_rng(seed), inst.triple.dim)
    entries = run_instance_battery(inst).entries
    moved = run_instance_battery(conjugated(inst, u)).entries
    assert [(e.name, e.passed, e.skipped) for e in moved] == [
        (e.name, e.passed, e.skipped) for e in entries
    ]
    for e, e_moved in zip(entries, moved):
        if not e.skipped:
            assert abs(e_moved.residual - e.residual) <= e.tolerance, e.name


def outcome(fn, *args):
    """("ok", value) or (exception type, message) of fn(*args)."""
    try:
        return "ok", fn(*args)
    except TetralabError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    norm=st.floats(0.05, 0.95),
    max_powers=st.integers(1, 120),
    grid=st.sampled_from((1, 2, 3, 5, MAX_GRID_DIM)),
)
@example(kind="scalar", dim=1, seed=0, norm=0.5, max_powers=100000, grid=MAX_GRID_DIM)
@example(kind="zero", dim=3, seed=0, norm=0.5, max_powers=100000, grid=MAX_GRID_DIM)
@example(kind="nilpotent", dim=5, seed=1, norm=0.9, max_powers=100000, grid=4)
@example(kind="unitary", dim=2, seed=2, norm=0.5, max_powers=50, grid=3)
def test_power_pass_is_bit_equal_to_one_norm_per_power(kind, dim, seed, norm, max_powers, grid):
    # the same norms, bit for bit, cut at the same power, or the same
    # refusal; a lowered MAX_GRID_DIM flushes the stack every
    # grid^2 / dim^2 powers (at least every power), and a lowered MAX_POWERS
    # refuses the unitary and slowly decaying P
    p = contraction(kind, dim, seed, norm)
    stacks, svd = [], np.linalg.svd
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charfn, "MAX_POWERS", max_powers)
        mp.setattr(charfn, "MAX_GRID_DIM", grid)
        expected = outcome(power_norms_one_at_a_time, p)
        mp.setattr(np.linalg, "svd", lambda a, *args, **kw: stacks.append(len(a)) or svd(a, *args, **kw))
        got = outcome(charfn._power_norms, p)
    # a stack never holds more than grid^2 entries, or one power
    assert all(depth * dim * dim <= max(grid * grid, dim * dim) for depth in stacks)
    assert got[0] == expected[0]
    if got[0] == "ok":
        assert [x.hex() for x in got[1]] == [x.hex() for x in expected[1]]
    else:
        assert got[1] == expected[1]


def test_power_pass_of_a_half_cuts_at_the_47th_power():
    # 0.5^46 = 1.4e-14 is above the cutoff 1e-14, 0.5^47 = 7.1e-15 is not;
    # with P exactly zero the pass is one zero member and no SVD
    assert charfn._power_norms(np.array([[0.5 + 0j]])) == [0.5**k for k in range(1, 48)]
    with pytest.MonkeyPatch.context() as mp:
        calls, zeros, _, _ = watch_decompositions(mp)
        assert charfn._power_norms(np.zeros((3, 3), complex)) == [0.0]
    assert (sum(calls.values()), zeros) == (0, [])


@st.composite
def disc_points(draw) -> list[complex]:
    radii = draw(st.lists(st.floats(0.0, 0.95), max_size=12))
    return [r * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0))) for r in radii]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    norm=st.floats(0.05, 1.0),
    points=disc_points(),
)
@example(kind="generic", dim=3, seed=0, norm=0.9, points=[])
@example(kind="zero", dim=2, seed=0, norm=0.5, points=[0.5, -0.3j])
def test_stacked_theta_eval_is_bit_equal_to_one_solve_per_point(kind, dim, seed, norm, points):
    triple = p_triple(contraction(kind, dim, seed, norm))
    got, expected = outcome(charfn.theta_eval, triple, points), outcome(theta_eval_per_point, triple, points)
    assert got[0] == expected[0]
    if got[0] == "ok":
        assert len(got[1]) == len(expected[1]) == len(points)
        assert all(x.shape == y.shape and np.array_equal(x, y) for x, y in zip(*(got[1], expected[1])))
    else:
        assert got[1] == expected[1]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    degree=st.integers(0, 6),
    n=st.integers(0, 8),
    d_out=st.integers(0, 4),
    d_in=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_toeplitz_gather_is_bit_equal_to_the_slice_loop(degree, n, d_out, d_in, seed):
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((degree + 1, d_out, d_in)) + 1j * rng.standard_normal((degree + 1, d_out, d_in))
    sym = AnalyticSymbol(tuple(coeffs))
    t = toeplitz(sym, n)
    expected = toeplitz_slice_loop(sym, n)
    assert t.shape == expected.shape and np.array_equal(t, expected)
    assert t.flags.c_contiguous and t.flags.writeable


def test_stacked_theta_eval_refuses_the_first_singular_point_as_the_loop_does():
    # I - z P* for P = I is singular at CLAMP_TOL at z = 1 - 1e-13, which
    # Weyl's bounds leave open, so the SVD gate runs there and refuses
    triple = p_triple(np.eye(2))
    points = [0.3, 1.0 - 1e-13, -0.2, 1.0 - 1e-14]
    got = outcome(charfn.theta_eval, triple, points)
    assert got == outcome(theta_eval_per_point, triple, points)
    assert got == (charfn.ResolventSingularError, f"I - z P* singular at z = {complex(1.0 - 1e-13)!r}")
