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
    basis conventions for its own checks.  It also owns ||A||, ||B||, ||P||
    (``norm``), which tolerances scale with, the commutator norms
    ``validate`` checked, which ``necessary_report`` records, and the
    ``purity`` certificate of P, computed on first read.
    """

    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    dp: Defect
    dpstar: Defect

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def adjoint(self) -> "TetrablockTriple":
        """The triple (A*, B*, P*) with the cached defect data of P swapped.

        Nothing is recomputed: ``validate`` derived D_{P*} from the same
        bytes as P*, and the adjoints have the norms and commutators already
        checked.  The result equals ``validate(A*, B*, P*)`` field by field.
        """
        a, b, p = (np.ascontiguousarray(m.conj().T) for m in (self.A, self.B, self.P))
        adj = TetrablockTriple(a, b, p, dp=self.dpstar, dpstar=self.dp)
        # the adjoints of one triple share one norm cache, so each norm is
        # computed once; keeping the adjoint itself would hold three matrices
        adj.__dict__["_norms"] = self.__dict__.setdefault("_adjoint_norms", {})
        return adj

    @cached_property
    def purity(self) -> PurityCertificate:
        """``is_pure(P)``, computed on first read and kept."""
        return is_pure(self.P)

    @cached_property
    def _norms(self) -> dict[str, float]:
        return {}  # validate() fills it; norm() adds what is missing

    def norm(self, name: str) -> float:
        """||A||, ||B|| or ||P|| by name: kept by ``validate``, else (an
        adjoint) computed once on first read of that name, since ||X*|| may
        differ from ||X|| in the last bit."""
        if name not in self._norms:
            self._norms[name] = op_norm(getattr(self, name))
        return self._norms[name]

    def max_norm(self) -> float:
        return max(map(self.norm, "ABP"))

    @cached_property
    def _commutators(self) -> dict[str, float]:
        """||[A,B]||, ||[A,P]||, ||[B,P]||: kept by ``validate``, else (an
        adjoint) computed on first read."""
        return _commutation_residuals(self.A, self.B, self.P)


def _commutation_residuals(a, b, p) -> dict[str, float]:
    norms = op_norms([commutator(a, b), commutator(a, p), commutator(b, p)])
    return dict(zip(("AB", "AP", "BP"), norms.tolist()))


def validate(a, b, p, pol: TolerancePolicy = DEFAULT_POLICY) -> TetrablockTriple:
    """Check necessary conditions and build the triple with cached defects.

    Checks: equal square shapes; pairwise commutation within eq_tol
    (relative); ||A||, ||B||, ||P|| <= 1 + eq_tol.  The ``Defect`` of P and
    of P* is computed once here and cached.
    """
    a = ensure_matrix(a, square=True, name="A")
    b = ensure_matrix(b, square=True, name="B")
    p = ensure_matrix(p, square=True, name="P")
    if not (a.shape == b.shape == p.shape):
        raise ShapeError(f"coordinate shapes differ: {a.shape}, {b.shape}, {p.shape}")
    norms = dict(zip("ABP", op_norms([a, b, p]).tolist()))
    for name, value in norms.items():
        if value > 1.0 + pol.eq_tol:
            raise NotContractiveError(f"||{name}|| = {value:.12g} exceeds 1 + eq_tol")
    scale = pol.scaled_eq(*norms.values())
    commutators = _commutation_residuals(a, b, p)
    for pair, res in commutators.items():
        if res > scale:
            raise NonCommutingError(f"[{pair[0]},{pair[1]}] has norm {res:.3e} > {scale:.3e}")
    triple = TetrablockTriple(a, b, p, dp=defect(p, pol), dpstar=defect(p.conj().T, pol))
    triple._norms.update(norms)
    triple.__dict__["_commutators"] = commutators
    return triple


def necessary_report(triple: TetrablockTriple, pol: TolerancePolicy = DEFAULT_POLICY) -> CheckReport:
    """Residual-level record of the necessary conditions on a built triple."""
    rep = CheckReport(title="triple necessary conditions", header=NECESSARY_HEADER)
    norms = {name: triple.norm(name) for name in "ABP"}
    scale = pol.scaled_eq(*norms.values())
    for pair, res in triple._commutators.items():
        rep.check(f"commute_{pair}", res, scale)
    for name, value in norms.items():
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
    """Pure iff rho(P) < 1 - RANK_TOL; below RANK_TOL the powers of P give the nilpotency index and ``exact_zero``."""
    p = ensure_matrix(p, square=True, name="P")
    n = p.shape[0]
    if n == 0:
        return PurityCertificate(pure=True, spectral_radius=0.0, nilpotency_index=1)
    rho = float(np.abs(np.linalg.eigvals(p)).max())
    if rho >= 1.0 - RANK_TOL:
        return PurityCertificate(pure=False, spectral_radius=rho)
    nil_index, exact_zero = None, False
    if rho < RANK_TOL:
        power = np.eye(n, dtype=complex)
        for k in range(1, n + 1):
            power = power @ p
            # the Frobenius norm bounds the spectral norm from above
            if np.linalg.norm(power) <= 1e-12:
                nil_index, exact_zero = k, not power.any()
                break
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
