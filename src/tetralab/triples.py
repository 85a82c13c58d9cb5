"""Commuting contractive triples (A, B, P) and their defect data.

A triple here models the coordinates of a tetrablock contraction.  Only
necessary conditions are machine-checkable (pairwise commutation and the
coordinate norm bounds); actual spectral-set membership for the tetrablock
is not finitely decidable from matrix data, and every report produced from
this module says so in its header.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property

import numpy as np

from .hardy import AnalyticSymbol, model_pencils, toeplitz
from .matcore import (
    DEFAULT_POLICY,
    RANK_TOL,
    Defect,
    NotContractiveError,
    ShapeError,
    TetralabError,
    TolerancePolicy,
    commutator,
    defect,
    ensure_matrix,
    op_norms,
)
from .report import NECESSARY_HEADER, CheckReport

__all__ = [
    "NonCommutingError",
    "TetrablockTriple",
    "PurityCertificate",
    "validate",
    "necessary_report",
    "is_pure",
    "from_symbols",
]


class NonCommutingError(TetralabError):
    """A pair of coordinates fails to commute within eq_tol."""


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
    the ``purity`` certificate of P, computed on first read.  Only ``validate``
    and ``adjoint`` build one: a ``dataclasses.replace`` copy raises TypeError.
    """

    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    dp: Defect
    dpstar: Defect
    norms: tuple[float, float, float]
    commutators: tuple[float, float, float]
    key: InitVar[object] = None

    def __post_init__(self, key) -> None:
        if key is not _BUILD:
            raise TypeError("a TetrablockTriple is built only by validate() or adjoint()")

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
        return TetrablockTriple(a, b, p, self.dpstar, self.dp, self.norms, self.commutators, _BUILD)

    @cached_property
    def purity(self) -> PurityCertificate:
        """``is_pure`` of this triple, computed on first read and kept."""
        return is_pure(self)

    def norm(self, name: str) -> float:
        """||A||, ||B|| or ||P|| by name."""
        return self.norms["ABP".index(name)]

    def max_norm(self) -> float:
        return max(self.norms)


COMMUTATOR_PAIRS = ("AB", "AP", "BP")
_BUILD = object()  # the key of validate and adjoint


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
    return TetrablockTriple(a, b, p, defect(p, pol), defect(p.conj().T, pol), norms, commutators, _BUILD)


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


def is_pure(triple: TetrablockTriple) -> PurityCertificate:
    """Pure iff rho(P) < 1 - RANK_TOL; below RANK_TOL the powers of P give the nilpotency index and ``exact_zero``.

    P is that of the validated ``triple``, so a nonempty contraction, ||P|| <=
    1 + eq_tol, and ||P^(k+1)||_F <= ||P|| ||P^k||_F: the least K <= dim with
    ||P^K||_F <= 1e-12 (the Frobenius norm bounds the spectral norm from
    above) is then found from the squares P^(2^j) and a bisection over the
    bits below the last, and ``exact_zero`` is decided on P^K itself.
    """
    p = triple.P
    n = p.shape[0]
    rho = float(np.abs(np.linalg.eigvals(p)).max())
    if rho >= 1.0 - RANK_TOL:
        return PurityCertificate(pure=False, spectral_radius=rho)
    nil_index, exact_zero = None, False
    if rho < RANK_TOL:
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

    on the degree <= n Hardy grid with fiber C^d, the Toeplitz matrices of
    the pencil triple of ``model_pencils``, which validates (F1, F2).
    Validation failures propagate: commutation requires [F1, F2] = 0
    together with the balance [F1, F1*] = [F2, F2*] (those are exactly the
    coefficients multiplying z^2 and z in [A, B]), and the norm check
    requires the pencil multiplier sup_{|z|=1} ||F2* + F1 z|| <= 1;
    numerical radii <= 1 alone do not suffice.
    """
    return validate(*(toeplitz(AnalyticSymbol(c), n) for c in model_pencils(f1, f2)), pol)
