"""Commuting contractive triples (A, B, P) and their defect data.

A triple here models the coordinates of a tetrablock contraction.  Only
necessary conditions are machine-checkable (pairwise commutation and the
coordinate norm bounds); actual spectral-set membership for the tetrablock
is not finitely decidable from matrix data, and every report produced from
this module says so in its header.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hardy import pencil, toeplitz
from .matcore import (
    DEFAULT_POLICY,
    RANK_TOL,
    Defect,
    NotContractiveError,
    ShapeError,
    SubspaceBasis,
    TetralabError,
    TolerancePolicy,
    commutator,
    defect,
    ensure_matrix,
    op_norm,
    op_norms,
)
from .report import NECESSARY_HEADER, CheckReport

__all__ = [
    "NonCommutingError",
    "NotCoinvariantError",
    "TetrablockTriple",
    "PurityCertificate",
    "validate",
    "necessary_report",
    "is_pure",
    "from_symbols",
    "compress",
]


class NonCommutingError(TetralabError):
    """A pair of coordinates fails to commute within eq_tol."""


class NotCoinvariantError(TetralabError):
    """Subspace is not co-invariant (invariant under the adjoints) within eq_tol."""


@dataclass(frozen=True)
class TetrablockTriple:
    """Validated commuting triple with the cached defect data of P.

    dp / dpstar are the ``Defect`` of P and of P*: D_P and D_{P*}, the
    orthonormal bases Q, Q_* of their ranges, their spectra on them and the
    dim x rank factors D_P Q, D_{P*} Q_* through which every defect-space
    identity applies them.  All downstream batteries express operators on
    the defect spaces in these bases, so a triple is the single source of
    basis conventions for its own checks.  It also owns ``norms`` =
    (||A||, ||B||, ||P||), which tolerances scale with, and ``commutators`` =
    (||[A,B]||, ||[A,P]||, ||[B,P]||), both as ``validate`` checked them, and
    the ``purity`` certificate of P, computed on first read.
    """

    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    dp: Defect
    dpstar: Defect
    norms: tuple[float, float, float]
    commutators: tuple[float, float, float]

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def adjoint(self) -> "TetrablockTriple":
        """The triple (A*, B*, P*) with the cached defect data of P swapped.

        Nothing is recomputed: ``validate`` derived D_{P*} from the same
        bytes as P*, and the adjoints keep the norms and commutator norms
        already checked, as ||X*|| = ||X|| and ||[X*, Y*]|| = ||[X, Y]||.
        The result equals ``validate(A*, B*, P*)`` field by field, the kept
        numbers to rounding.
        """
        a, b, p = (np.ascontiguousarray(m.conj().T) for m in (self.A, self.B, self.P))
        return TetrablockTriple(a, b, p, self.dpstar, self.dp, self.norms, self.commutators)

    @cached_property
    def purity(self) -> PurityCertificate:
        """``is_pure(P)``, computed on first read and kept."""
        return is_pure(self.P)

    def norm(self, name: str) -> float:
        """||A||, ||B|| or ||P|| by name."""
        return self.norms["ABP".index(name)]

    def max_norm(self) -> float:
        return max(self.norms)


COMMUTATOR_PAIRS = ("AB", "AP", "BP")


def validate(a, b, p, pol: TolerancePolicy = DEFAULT_POLICY) -> TetrablockTriple:
    """Check necessary conditions and build the triple with cached defects.

    Checks: equal square nonempty shapes; pairwise commutation within eq_tol
    (relative); ||A||, ||B||, ||P|| <= 1 + eq_tol.  The ``Defect`` of P and
    of P* is computed once here and cached.
    """
    a = ensure_matrix(a, square=True, name="A")
    b = ensure_matrix(b, square=True, name="B")
    p = ensure_matrix(p, square=True, name="P")
    if not (a.shape == b.shape == p.shape):
        raise ShapeError(f"coordinate shapes differ: {a.shape}, {b.shape}, {p.shape}")
    if p.shape[0] == 0:
        raise ShapeError("A, B, P are 0 x 0: the triple acts on a zero-dimensional space")
    norms = tuple(op_norms([a, b, p]).tolist())
    for name, value in zip("ABP", norms):
        if value > 1.0 + pol.eq_tol:
            raise NotContractiveError(f"||{name}|| = {value:.12g} exceeds 1 + eq_tol")
    scale = pol.scaled_eq(*norms)
    commutators = tuple(op_norms([commutator(a, b), commutator(a, p), commutator(b, p)]).tolist())
    for pair, res in zip(COMMUTATOR_PAIRS, commutators):
        if res > scale:
            raise NonCommutingError(f"[{pair[0]},{pair[1]}] has norm {res:.3e} > {scale:.3e}")
    return TetrablockTriple(a, b, p, defect(p, pol), defect(p.conj().T, pol), norms, commutators)


def necessary_report(triple: TetrablockTriple, pol: TolerancePolicy = DEFAULT_POLICY) -> CheckReport:
    """Residual-level record of the necessary conditions on a built triple."""
    rep = CheckReport(title="triple necessary conditions", header=NECESSARY_HEADER)
    scale = pol.scaled_eq(*triple.norms)
    for pair, res in zip(COMMUTATOR_PAIRS, triple.commutators):
        rep.check(f"commute_{pair}", res, scale)
    for name, value in zip("ABP", triple.norms):
        rep.check(f"norm_{name}", max(value - 1.0, 0.0), pol.eq_tol)
    return rep


@dataclass(frozen=True)
class PurityCertificate:
    """Purity verdict for a contraction P (P^n -> 0).

    nilpotency_index, when set, is the least K with ||P^K||_F <= 1e-12; exact_zero, whether P^K is 0.
    """

    pure: bool
    spectral_radius: float
    nilpotency_index: int | None = None
    exact_zero: bool = False

    def __bool__(self) -> bool:
        return self.pure


def is_pure(p) -> PurityCertificate:
    """Pure iff rho(P) < 1 - RANK_TOL; below RANK_TOL the powers of P give the nilpotency index and ``exact_zero``.

    P must be a contraction, ||P|| <= 1 + eq_tol as ``validate`` checks, so
    that ||P^(k+1)||_F <= ||P|| ||P^k||_F: the least K <= dim with ||P^K||_F <=
    1e-12 (the Frobenius norm bounds the spectral norm from above) is then
    found from the squares P^(2^j) and a bisection over the bits below the
    last, and ``exact_zero`` is decided on P^K itself.  Where that search
    runs, ``NotContractiveError`` refuses a P with ||P|| > 1 + eq_tol; the
    SVD deciding it runs only when Schur's bound sqrt(||P||_1 ||P||_inf)
    exceeds 1 + eq_tol.
    """
    p = ensure_matrix(p, square=True, name="P")
    n = p.shape[0]
    if n == 0:
        return PurityCertificate(pure=True, spectral_radius=0.0, nilpotency_index=1)
    rho = float(np.abs(np.linalg.eigvals(p)).max())
    if rho >= 1.0 - RANK_TOL:
        return PurityCertificate(pure=False, spectral_radius=rho)
    nil_index, exact_zero = None, False
    if rho < RANK_TOL:
        bound = 1.0 + DEFAULT_POLICY.eq_tol
        if np.sqrt(np.abs(p).sum(0).max() * np.abs(p).sum(1).max()) > bound and (pnorm := op_norm(p)) > bound:
            raise NotContractiveError(f"||P|| = {pnorm:.12g} exceeds 1 + eq_tol")
        squares = [p]  # squares[j] = P^(2^j), up to the first at or below 1e-12
        while np.linalg.norm(squares[-1]) > 1e-12 and 2 ** len(squares) <= n:
            squares.append(squares[-1] @ squares[-1])
        # k: the largest power <= n above 1e-12, bit by bit; power = P^k
        k, power = 0, None
        for j in reversed(range(len(squares))):
            if k + 2**j <= n:
                step = squares[j] if power is None else power @ squares[j]
                if np.linalg.norm(step) > 1e-12:
                    k, power = k + 2**j, step
        if k < n:
            power = p if power is None else power @ p
            nil_index, exact_zero = k + 1, not power.any()
    return PurityCertificate(True, rho, nil_index, exact_zero)


def from_symbols(f1, f2, n: int, pol: TolerancePolicy = DEFAULT_POLICY) -> TetrablockTriple:
    """Triple of truncated multiplication operators

        A = M_{F1* + F2 z},  B = M_{F2* + F1 z},  P = M_z

    on the degree <= n Hardy grid with fiber C^d.  Validation failures
    propagate: commutation requires [F1, F2] = 0 together with the balance
    [F1, F1*] = [F2, F2*] (those are exactly the coefficients multiplying
    z^2 and z in [A, B]), and the norm check requires the pencil multiplier
    sup_{|z|=1} ||F2* + F1 z|| <= 1; numerical radii <= 1 alone do not
    suffice.
    """
    f1 = ensure_matrix(f1, square=True, name="F1")
    f2 = ensure_matrix(f2, square=True, name="F2")
    if f1.shape != f2.shape:
        raise ShapeError(f"F1, F2 shapes differ: {f1.shape}, {f2.shape}")
    a = toeplitz(pencil(f1.conj().T, f2), n)
    b = toeplitz(pencil(f2.conj().T, f1), n)
    p = toeplitz(pencil(np.zeros_like(f1), np.eye(f1.shape[0])), n)
    return validate(a, b, p, pol)


def compress(triple: TetrablockTriple, subspace: SubspaceBasis) -> TetrablockTriple:
    """Compression of the triple to a co-invariant subspace.

    Co-invariance (invariance of the subspace under A*, B*, P*) makes the
    compression multiplicative on polynomials, which is what preserves
    commutation and the contraction bounds; it is checked here via
    ||X* V - V (V* X* V)|| <= eq_tol relative, V the orthonormal basis, under
    ``DEFAULT_POLICY``, which also validates the result.
    """
    if subspace.ambient_dim != triple.dim:
        raise ShapeError("subspace ambient dimension does not match the triple")
    if subspace.rank == 0:
        raise ShapeError("cannot compress to the zero subspace")
    v = subspace.basis
    for name, x in (("A", triple.A), ("B", triple.B), ("P", triple.P)):
        image = x.conj().T @ v
        leak = op_norm(image - v @ (v.conj().T @ image))
        if leak > DEFAULT_POLICY.scaled_eq(triple.norm(name)):
            raise NotCoinvariantError(
                f"subspace not invariant under {name}*: leak {leak:.3e}"
            )
    return validate(
        v.conj().T @ triple.A @ v,
        v.conj().T @ triple.B @ v,
        v.conj().T @ triple.P @ v,
    )
