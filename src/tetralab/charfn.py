"""Characteristic function and functional model of a pure contraction.

The characteristic function of a contraction P,

    Theta_P(z) = [-P + z D_{P*} (I - z P*)^{-1} D_P] restricted to D_P,

maps the defect space of P into the defect space of P*.  For pure P the map
W h = sum_n z^n (x) D_{P*} P*^n h is an isometry into the D_{P*}-valued Hardy
space, the ranges of W and of multiplication by Theta_P are complementary,
and the compression of the pencil pair built from the adjoint fundamental
operators (G1, G2) to H_P = (Theta_P H^2)^perp reproduces the original
triple.  Everything here is computed on the truncated grid of degrees <= N
with a certified tail bound.  There H_P is taken as range(W), the space W is
unitary onto.  The grid identity W W* + T_Theta T_Theta* = I is formed once,
by ``verify_model_decomposition``, which reports its residual and the gap it
bounds from range(W) to the spectral kernel of T_Theta*, without a
decomposition of T_Theta.

Every function here takes the validated ``TetrablockTriple`` of P and reads
D_P, D_{P*} and their range bases from it; Theta_{P*} is computed from
``triple.adjoint()``, which swaps the cached data.  All defect-space
operators are therefore expressed in the bases the triple owns, so
coefficients produced by different functions of the same triple are
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .fundamental import FundamentalPair
from .hardy import AnalyticSymbol, model_pencils, pencil_apply, toeplitz
from .matcore import (
    CLAMP_TOL,
    DEFAULT_POLICY,
    MAX_GRID_DIM,
    RANK_TOL,
    Defect,
    GridSizeError,
    ShapeError,
    TetralabError,
    TolerancePolicy,
    commutator,
    op_norm,
    op_norms,
    range_basis,
)
from .report import CheckReport
from .triples import TetrablockTriple

__all__ = [
    "NotPureError",
    "RestrictionLeakError",
    "ResolventSingularError",
    "NotIsometryLikeError",
    "ModelData",
    "disc_samples",
    "theta_taylor",
    "theta_eval",
    "power_tail",
    "build_model",
    "verify_model_decomposition",
    "verify_functional_model",
    "verify_pencil_intertwining",
    "pure_isometry_model",
]


class NotPureError(TetralabError):
    """P^n does not tend to zero (spectral radius >= 1 - RANK_TOL)."""


class RestrictionLeakError(TetralabError):
    """An operator expected to map one defect space into another leaks out."""


class ResolventSingularError(TetralabError):
    """(I - z P*) is numerically singular at the requested point."""


class NotIsometryLikeError(TetralabError):
    """Triple has no isometric part to anchor a truncated-isometry model."""


# powers of P below POWER_CUTOFF count as zero in the tail sums; a P whose
# first MAX_POWERS powers do not get there is refused; TAIL_TARGET is the
# tail that fixes the default truncation degree
POWER_CUTOFF = 1e-14
MAX_POWERS = 100000
TAIL_TARGET = 1e-12


def disc_samples(samples) -> tuple[list[complex], float]:
    """The samples as complex numbers and the divisor max(1 - max |z|, 1e-3) of
    sampled tolerances; ResolventSingularError unless all lie in the open disc."""
    samples = [complex(z) for z in samples]
    for z in samples:
        if abs(z) >= 1.0:
            raise ResolventSingularError(f"sample |z| = {abs(z):.3f} not inside the open disc")
    return samples, max(1.0 - max(map(abs, samples), default=0.0), 1e-3)


def _theta_zero(triple: TetrablockTriple, pol: TolerancePolicy):
    """Theta_0 = -P restricted to D_P, after checking P maps D_P into D_{P*}."""
    qs = triple.dpstar.basis
    image = triple.P @ triple.dp.basis
    coords = qs.conj().T @ image
    leak = op_norm(image - qs @ coords)
    allowance = RANK_TOL * (1.0 + triple.norm("P")) + pol.eq_tol
    if leak > allowance:
        raise RestrictionLeakError(
            f"P(D_P) leaks out of D_P* by {leak:.3e} (> {allowance:.3e})"
        )
    return -coords


def _w_rows(triple: TetrablockTriple):
    """Row blocks Q*^* D_{P*} P*^k of W, k = 0, 1, 2, ..., Q* the basis of D_{P*}.

    The one loop over the powers of P*, from (D_{P*} Q*)^*: Theta_k = (row
    block k-1) D_P Q for k >= 1, Q the basis of D_P.
    """
    pd = triple.P.conj().T
    cur = triple.dpstar.factor.conj().T
    while True:
        yield cur
        cur = cur @ pd


def _taylor(triple: TetrablockTriple, rows, pol: TolerancePolicy) -> AnalyticSymbol:
    """Theta_0 and Theta_k = (row block k-1 of W) D_P Q, one k per block of ``rows``."""
    return AnalyticSymbol((_theta_zero(triple, pol), *(row @ triple.dp.factor for row in rows)))


def theta_taylor(triple: TetrablockTriple, n: int, pol: TolerancePolicy = DEFAULT_POLICY) -> AnalyticSymbol:
    """Taylor coefficients 0..n of Theta_P as an AnalyticSymbol, in the defect bases.

    Theta_0 = -P restricted to D_P, Theta_k = D_{P*} P*^{k-1} D_P for k >= 1;
    ``build_model`` keeps the same numbers to k = N + 1.  Theta_0 checks that
    P maps D_P into D_{P*} (it must, because P D_P = D_{P*} P) and raises
    RestrictionLeakError otherwise.
    """
    if n < 0:
        raise ValueError("Taylor degree must be >= 0")
    return _taylor(triple, islice(_w_rows(triple), n), pol)


def theta_eval(triple: TetrablockTriple, points) -> list[np.ndarray]:
    """Theta_P(z) in the defect bases, one per z in ``points``: -Q*^* P Q + z (D_{P*} Q*)^* (I - z P*)^{-1} D_P Q,
    Q and Q* the bases of D_P and D_{P*}, solved against D_P Q in stacks of at most MAX_GRID_DIM^2 entries, bit
    for bit one stack.  The SVD refusing I - z P* at CLAMP_TOL runs only where Weyl's bounds 1 -+ |z| s on its
    singular values leave the test open, s >= ||P|| the kept ||P|| rounded up by 1e-12, past the error of the SVD
    that computed it.  No tolerance enters: Theta_0 is taken without the leak check of ``theta_taylor``."""
    p, dq, dsq = triple.P, triple.dp.factor, triple.dpstar.factor
    theta_0 = -(triple.dpstar.basis.conj().T @ (p @ triple.dp.basis))
    eye = np.eye(p.shape[0])
    s = triple.norm("P") * (1 + 1e-12)
    points = [complex(z) for z in points]
    out, per = [], max(1, MAX_GRID_DIM**2 // p.size)
    for batch in (points[k : k + per] for k in range(0, len(points), per)):
        res = np.empty((len(batch), *p.shape), complex)
        for k, z in enumerate(batch):
            res[k] = eye - z * p.conj().T
            if not 1.0 - abs(z) * s > CLAMP_TOL * (1.0 + abs(z) * s):
                sv = np.linalg.svd(res[k], compute_uv=False)
                if sv[-1] <= CLAMP_TOL * max(1.0, sv[0]):
                    raise ResolventSingularError(f"I - z P* singular at z = {z!r}")
        out += [theta_0 + z * (dsq.conj().T @ x) for z, x in zip(batch, np.linalg.solve(res, dq))]
    return out


def _power_norms(p: np.ndarray) -> list[float]:
    """||P||, ||P^2||, ... up to (and including) the first norm <= POWER_CUTOFF.

    Powers are formed while their Frobenius norm (an upper bound) is above the cutoff, at most MAX_GRID_DIM^2
    entries at a time, and normed in one ``op_norms`` call per stack.  Raises TetralabError when MAX_POWERS
    norms do not get there, rather than let a caller sum a partial list.
    """
    norms, powers, m = [], [], p
    for k in range(1, MAX_POWERS + 1):
        powers.append(m)
        if np.vdot(m, m).real <= POWER_CUTOFF**2 or (len(powers) + 1) * m.size > MAX_GRID_DIM**2 or k == MAX_POWERS:
            for nm in op_norms(powers).tolist():
                norms.append(nm)
                if nm <= POWER_CUTOFF:
                    return norms
            powers = []
        m = m @ p
    raise TetralabError(f"||P^k|| still {norms[-1]:.3e} after {MAX_POWERS} powers; P decays too slowly")


def power_tail(triple: TetrablockTriple, n: int | None = None) -> tuple[int, float]:
    """Truncation degree n and an upper bound on (sum_{m > n} ||P^m||^2)^(1/2) for the P of ``triple``.

    Reads purity from ``triple.purity`` (NotPureError unless pure) and forms ||P^k||, k = 1, 2, ..., until
    the first c = ||P^K|| <= POWER_CUTOFF.
    Since ||P^(K+j)|| <= c ||P^j||, the remainder sum_{m >= K} ||P^m||^2 is at most c^2 (1 + T) / (1 - c^2),
    T the sum of ||P^m||^2 for m < K.  That bound is added to every suffix sum, so the tail is an upper
    bound; it is zero for an exact nilpotent P (c = 0) past its index.  When ``n`` is omitted it is the
    smallest degree whose tail is <= TAIL_TARGET.  When ``n`` is given and the purity check found its
    nilpotency index K <= n + 1 with P^K exactly zero (``PurityCertificate.exact_zero``), the tail is 0.0
    without a norm: every earlier ||P^k|| >= ||P^k||_F / sqrt(dim) > 1e-12 / sqrt(dim) > POWER_CUTOFF
    while dim < 10^4, so the norms would stop at the same K with c = 0.
    """
    if n is not None and n < 0:
        raise ValueError("model degree must be >= 0")
    p, cert = triple.P, triple.purity
    if not cert.pure:
        raise NotPureError(f"P is not pure (rho = {cert.spectral_radius:.6f})")
    if n is not None and cert.exact_zero and cert.nilpotency_index <= n + 1 and p.shape[0] < 10**4:
        return n, 0.0
    *norms, c = _power_norms(p)
    total = sum(nm * nm for nm in norms)
    # tails[k]^2 bounds sum_{m > k} ||P^m||^2; norms[k] = ||P^(k+1)||
    tails = [c * c * (1.0 + total) / (1.0 - c * c)]
    for nm in reversed(norms):
        tails.append(tails[-1] + nm * nm)
    tails = np.sqrt(tails[::-1])
    if n is None:
        n = next((k for k, t in enumerate(tails) if t <= TAIL_TARGET), len(norms))
    return n, float(tails[min(n, len(norms))])


@dataclass(frozen=True)
class ModelData:
    """Truncated functional model of a pure contraction.

    W maps the original space into the truncated D_{P*}-valued Hardy grid;
    theta holds Theta_0..Theta_{N+1}, one more than the grid reads, with
    ||Theta_k|| <= ||P^(k-1)|| <= tail for k > N + 1; h_basis is an
    orthonormal M x dim H basis of H_P = range(W), W itself at the default
    degree; tail bounds the truncation error.
    """

    N: int
    theta: AnalyticSymbol
    W: np.ndarray
    h_basis: np.ndarray
    tail: float


def _kernel_gap(rho: float, w: np.ndarray, t: np.ndarray, q: np.ndarray) -> float:
    """Davis-Kahan bound ||T T* Q - Q L|| / (1 - e - 2 rho), L = (T* Q)* T* Q, on the gap
    from range(Q) to the span of the dim H smallest left singular vectors of T, given
    rho = ||W W* + T T* - I||_F; see ``verify_model_decomposition``.  1.0 when Q has
    fewer than dim H columns or e + 2 rho >= 1."""
    e = float(np.linalg.norm(w.conj().T @ w - np.eye(w.shape[1])))
    sep = 1.0 - e - 2.0 * rho
    if q.shape[1] < w.shape[1] or sep <= 0.0:
        return 1.0
    y = t.conj().T @ q
    if not y.any():
        return 0.0
    return min(op_norm(t @ y - q @ (y.conj().T @ y)) / sep, 1.0)


def build_model(triple: TetrablockTriple, n: int | None = None, pol: TolerancePolicy = DEFAULT_POLICY) -> ModelData:
    """Assemble the truncated model of the pure contraction P of ``triple``.

    When ``n`` is omitted the smallest degree with tail <= TAIL_TARGET is
    used.  Purity is checked by the tail computation (NotPureError) on
    ``triple.purity``, which the triple computes once, before anything of
    grid size exists.  A grid of more than MAX_GRID_DIM coordinates is refused
    before it is allocated.  Theta_0..Theta_{N+1} are read off the N + 1 row
    blocks of W as ``theta_taylor`` reads them.  H_P is range(W), with
    ``range_basis(W)`` as its basis: W itself when its columns are
    orthonormal, as at the default degree, where ||W*W - I|| =
    ||P^(N+1) P*^(N+1)|| <= tail^2, else the thin SVD of W.  Its agreement
    with Theta is checked by ``verify_model_decomposition``.
    """
    n, tail = power_tail(triple, n)
    rank = triple.dpstar.rank
    if (n + 1) * rank > MAX_GRID_DIM:
        raise GridSizeError(
            f"model grid of degree {n} over a rank-{rank} defect space "
            f"exceeds {MAX_GRID_DIM} coordinates"
        )
    blocks = list(islice(_w_rows(triple), n + 1))
    w = np.vstack(blocks)
    return ModelData(N=n, theta=_taylor(triple, blocks, pol), W=w, h_basis=range_basis(w), tail=tail)


def verify_model_decomposition(model: ModelData, pol: TolerancePolicy = DEFAULT_POLICY) -> CheckReport:
    """Check W W* + M_theta M_theta* = I on the truncated grid, and that H_P = range(W)
    is the model space Theta defines.

    Blockwise this identity involves only finitely many Taylor coefficients,
    all of which the grid retains, so it holds to rounding for every
    contraction and every N, and both entries meet eq_tol with no tail
    allowance; the interior entry (the leading block of degrees < N) is
    reported separately.  Both are Frobenius norms, upper bounds on the
    spectral norms, of the residual R = W W* + T T* - I, T = toeplitz(theta).
    R is formed once, and rho = ||R||_F also bounds ``model_space_gap``
    without a decomposition of T: with e = ||W* W - I||_F, Weyl's
    inequalities give T T* exactly dim H eigenvalues <= e + rho and the rest
    >= 1 - rho, while L = Q* T T* Q, Q the M x dim H basis of range(W), has
    its eigenvalues in [0, e + rho].  So when range(W) has rank dim H and
    e + 2 rho < 1, the Davis-Kahan sin-theta theorem bounds the gap from
    range(W) to the span of the dim H smallest left singular vectors of T by
    ||T T* Q - Q L|| / (1 - e - 2 rho), an M x dim H operand; otherwise the
    gap is reported as 1.
    """
    rep = CheckReport(title="model range partition")
    w = model.W
    t = toeplitz(model.theta, model.N)
    resid = t @ t.conj().T
    resid += w @ w.conj().T
    resid[np.diag_indices_from(resid)] -= 1.0
    rho = float(np.linalg.norm(resid))
    tol = pol.scaled_eq(1.0)
    rep.check("range_partition", rho, tol)
    top = model.N * model.theta.d_out
    rep.check("range_partition_interior", float(np.linalg.norm(resid[:top, :top])), tol)
    rep.check("model_space_gap", _kernel_gap(rho, w, t, model.h_basis), 1e-6 + model.tail)
    return rep


def _check_basis_match(pair: FundamentalPair, expected: Defect, label: str) -> None:
    if not np.array_equal(pair.basis.basis, expected.basis):
        raise ShapeError(
            f"{label}: fundamental pair expressed in a different defect basis; "
            "solve it from triple.adjoint() so bases line up"
        )


def verify_functional_model(
    triple: TetrablockTriple,
    model: ModelData,
    pair_g: FundamentalPair,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Check that W carries the model pencils back to the original triple:

        W* (I (x) G1* + M_z (x) G2) W = A,  W* (I (x) G2* + M_z (x) G1) W = B,
        W* (M_z (x) I) W = P,

    where (G1, G2) is the fundamental pair of (A*, B*, P*), plus
    co-invariance of range(W) under the model operators, normed on the thin
    factor Y - Q (Q* Y), Y = X* Q, of the M x n basis Q = ``model.h_basis``
    of range(W); where Q is W, Q* Y is (W* X W)*, the compression just formed.
    """
    _check_basis_match(pair_g, triple.dpstar, "verify_functional_model")
    rep = CheckReport(title="functional model intertwining")
    pencils = tuple(zip("ABP", model_pencils(pair_g.F1, pair_g.F2)))
    w = model.W
    c_tail = 4.0 * (1.0 + sum(pair_g.norms))
    tol = pol.scaled_eq(triple.max_norm()) + c_tail * model.tail
    q = model.h_basis
    coinvariance = []
    for name, (c0, c1) in pencils:
        compression = w.conj().T @ pencil_apply(c0, c1, w)
        rep.check(f"model_reproduces_{name}", op_norm(compression - getattr(triple, name)), tol)
        y = pencil_apply(c0, c1, q, adjoint=True)
        coinvariance.append(op_norm(y - q @ (compression.conj().T if q is w else q.conj().T @ y)))
    rep.check("W_isometry", op_norm(w.conj().T @ w - np.eye(w.shape[1])), pol.scaled_eq(1.0) + model.tail)
    for name, value in zip("ABP", coinvariance):
        rep.check(f"rangeW_coinvariant_{name}", value, tol)
    return rep


def verify_pencil_intertwining(
    triple: TetrablockTriple,
    pair_f: FundamentalPair,
    pair_g: FundamentalPair,
    samples,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Check that Theta_{P*} intertwines the two fundamental pencils:

        (F1* + F2 z) Theta_{P*}(z) = Theta_{P*}(z) (G1 + G2* z)
        (F2* + F1 z) Theta_{P*}(z) = Theta_{P*}(z) (G2 + G1* z)

    at each sample point z in the open disc.
    """
    rep = CheckReport(title="characteristic-function pencil intertwining")
    f1, f2 = pair_f.F1, pair_f.F2
    g1, g2 = pair_g.F1, pair_g.F2
    samples, denom = disc_samples(samples)
    resid = np.empty((2 * len(samples), f1.shape[0], g1.shape[0]), complex)
    for k, (z, th) in enumerate(zip(samples, theta_eval(triple.adjoint(), samples))):
        resid[2 * k] = (f1.conj().T + z * f2) @ th - th @ (g1 + z * g2.conj().T)
        resid[2 * k + 1] = (f2.conj().T + z * f1) @ th - th @ (g2 + z * g1.conj().T)
    worst = op_norms(resid).reshape(-1, 2).max(axis=0, initial=0.0)
    tol = pol.scaled_eq(*pair_f.norms, *pair_g.norms) / denom
    for k, value in enumerate(worst, start=1):
        rep.check(f"pencil_intertwine_{k}", value, tol, note=f"{len(samples)} sample points")
    return rep


def _isometric_interior(triple: TetrablockTriple) -> np.ndarray:
    """The c with Q_* c in ker(I - A*A) and ker(I - B*B), Q_* the basis of D_{P*}: the eigenvectors of
    H = 2I - (A Q_*)^* A Q_* - (B Q_*)^* B Q_* = Q_*^* (I - A*A) Q_* + Q_*^* (I - B*B) Q_* whose |eigenvalue|
    is at most 2 RANK_TOL max(lambda_max(H), 1).  For contractions both terms are positive semidefinite, so
    c*Hc = 0 exactly when Q_* c lies in both kernels.  The two-step construction (each kernel from I - X*X
    at RANK_TOL, then the c whose Q_* c both contain, at RANK_TOL again) keeps only unit c on which each
    term of c*Hc is at most RANK_TOL, up to a cross term below 1e-13 of sqrt(RANK_TOL) times the second cut.
    By Courant-Fischer H then has at least as many eigenvalues within the cut as that construction keeps
    directions: this interior is never smaller, and the checks restricted to it never looser.  The eigenvectors
    of ``eigh`` are orthonormal."""
    qs = triple.dpstar.basis
    ya, yb = triple.A @ qs, triple.B @ qs
    w, v = np.linalg.eigh(2.0 * np.eye(qs.shape[1]) - ya.conj().T @ ya - yb.conj().T @ yb)
    return v[:, np.abs(w) <= 2.0 * RANK_TOL * max(w.max(initial=0.0), 1.0)]


def pure_isometry_model(
    triple: TetrablockTriple,
    model: ModelData,
    pair_g: FundamentalPair,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Model battery for truncations of pure tetrablock isometries.

    The triple must have a nonempty isometric part ker(I - P*P) (so P = 0 or
    any strict contraction without isometric directions is rejected with
    NotIsometryLikeError).  Verifies that P is isometric on ker D_P, that the
    compressed model operators agree with the raw symbol pencils on the
    image of the isometric part, and that the adjoint pair
    satisfies [G1, G2] = 0 and [G1, G1*] = [G2, G2*]; the last two balance
    checks are restricted to defect directions supported on the isometric
    parts of A and B when such directions exist (for wide-border truncations
    the balance defect provably lives on the truncation edge).  ``model`` and
    ``pair_g`` (solved from ``triple.adjoint()``) come from ``triple`` under
    ``pol``.
    The pencil-on-model residual ||(I - P_H) X W_iso|| is normed on the thin
    factor Y - Q_H (Q_H* Y), Y = X W_iso, Q_H the orthonormal basis of H_P.
    ker D_P is the trailing columns of one complete QR of the orthonormal
    dim x rank D_P basis of D_P, whose rank needs no decision; the QR makes
    them orthonormal.
    """
    q = triple.dp.basis
    iso = np.linalg.qr(q, mode="complete")[0][:, q.shape[1] :]
    if iso.shape[1] == 0:
        raise NotIsometryLikeError("P has no isometric directions (D_P has full rank)")
    rep = CheckReport(title="truncated isometry model")
    dim = triple.dim
    eye = np.eye(dim)
    rep.check(
        "isometric_part",
        op_norm((triple.P.conj().T @ triple.P - eye) @ iso),
        pol.scaled_eq(1.0),
        note=f"dim {iso.shape[1]} of {dim}",
    )
    # compression acts as the raw pencil on the image of the isometric part
    g1, g2 = pair_g.F1, pair_g.F2
    qh = model.h_basis
    w_iso = model.W @ iso
    tol = pol.scaled_eq(1.0, *pair_g.norms) + 8.0 * model.tail
    for name, (c0, c1) in zip("ABP", model_pencils(g1, g2)):
        y = pencil_apply(c0, c1, w_iso)
        rep.check(f"pencil_on_model_{name}", op_norm(y - qh @ (qh.conj().T @ y)), tol)
    # adjoint-pair symbol conditions, gated to the isometric interior when
    # available
    interior = _isometric_interior(triple)
    k, rank = interior.shape[1], triple.dpstar.rank
    comm = commutator(g1, g2)
    balance = commutator(g1, g1.conj().T) - commutator(g2, g2.conj().T)
    gtol = pol.scaled_eq(*pair_g.norms)
    if k:
        note = f"interior dim {k} of {rank}; full residuals {op_norm(comm):.2e}/{op_norm(balance):.2e}"
        rep.check("adjoint_pair_commute", op_norm(comm @ interior), gtol, note=note)
        rep.check("adjoint_pair_balance", op_norm(balance @ interior), gtol, note=note)
    else:
        rep.check("adjoint_pair_commute", op_norm(comm), gtol)
        rep.check("adjoint_pair_balance", op_norm(balance), gtol)
    return rep
