"""Dense linear algebra kernel.

Everything downstream (defect operators, characteristic functions, model
spaces) is built from the handful of primitives in this module: validated
matrices, defect operators of contractions with their spectrum on
their range (the one place where eigenvalues are clamped before a square
root), rank-revealing range bases, the operator norm (of one matrix or of a
stack of equal-shape ones), and a certified numerical-radius bracket.

Conventions
-----------
* The dtype rule: real input (bool, integer or float) stays ``float64``, and
  anything complex becomes ``complex128``; the same functions serve both.
  Matrices are row-major and validated to be finite on entry to every
  public function.
* Equality checks are relative: a residual ``r`` passes at tolerance ``tol``
  when ``r <= tol * (1 + max operand norm)``.
* Rank decisions are relative to the largest singular value (or eigenvalue)
  at ``RANK_TOL``; eigenvalues of I - T*T from 1 - (1 + eq_tol)^2 up to
  ``CLAMP_TOL`` are snapped to zero before a square root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TetralabError",
    "ShapeError",
    "NotFiniteError",
    "NotPSDError",
    "NotContractiveError",
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "RANK_TOL",
    "CLAMP_TOL",
    "MAX_GRID_DIM",
    "GridSizeError",
    "Defect",
    "ensure_matrix",
    "op_norm",
    "op_norms",
    "commutator",
    "herm_part",
    "defect",
    "range_basis",
    "subspace_gap",
    "numerical_radius",
]


class TetralabError(ValueError):
    """Base class for numerical-contract violations raised by this package."""


class ShapeError(TetralabError):
    """Operand has the wrong dimensions for the requested operation."""


class NotFiniteError(TetralabError):
    """Matrix contains NaN or infinite entries."""


class NotPSDError(TetralabError):
    """Hermitian matrix has an eigenvalue below the clamping threshold."""


class NotContractiveError(TetralabError):
    """Operator norm exceeds 1 beyond the equality tolerance."""


class GridSizeError(TetralabError):
    """A dense grid matrix would have more than MAX_GRID_DIM coordinates."""


# relative rank-decision threshold, and the eigenvalue clamping threshold
# below it; no caller sets either, so they are fixed here
RANK_TOL = 1e-9
CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class TolerancePolicy:
    """The relative equality / residual tolerance eq_tol, the one tolerance a
    caller sets (the CLI's ``--tol``)."""

    eq_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (self.eq_tol > 0.0 and np.isfinite(self.eq_tol)):
            raise ValueError(f"eq_tol must be a positive finite float, got {self.eq_tol!r}")

    def scaled_eq(self, *norms: float) -> float:
        """Absolute equality tolerance for operands of the given norms."""
        return self.eq_tol * (1.0 + max(norms, default=0.0))


DEFAULT_POLICY = TolerancePolicy()

# largest side of a dense grid matrix (a truncated model space, the bidisc
# grid) that is allocated; a larger request raises GridSizeError up front.
# One matrix of this side takes 64 MiB complex, 32 MiB real.
MAX_GRID_DIM = 2048


def ensure_matrix(a, *, square: bool = False, name: str = "matrix") -> np.ndarray:
    """Validate and return a C-ordered copy of ``a`` as a finite 2-D array,
    float64 or complex128 by the dtype rule."""
    arr = np.array(a, dtype=np.float64 if np.asarray(a).dtype.kind in "biuf" else np.complex128, copy=True, order="C")
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise NotFiniteError(f"{name} contains non-finite entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be square, got shape {arr.shape}")
    return arr


def op_norms(mats) -> np.ndarray:
    """Operator (spectral) norms of a stack of equal-shape matrices, a 3-D
    array or a sequence of 2-D ones, taken in float64 or complex128 by the
    dtype rule: one finiteness check, 0.0 for each all-zero (or empty) member
    without an SVD, and one stacked SVD for the rest, which under one BLAS
    thread equals the SVD of each member alone."""
    stack = np.asarray(mats)
    stack = stack.astype(np.float64 if stack.dtype.kind in "biuf" else np.complex128, copy=False)
    if stack.ndim != 3:
        raise ShapeError(f"operands must be a 3-D stack of matrices, got ndim={stack.ndim}")
    if not np.isfinite(stack).all():
        raise NotFiniteError("operand contains non-finite entries")
    norms = np.zeros(stack.shape[0])
    nonzero = stack.any(axis=(1, 2))
    if nonzero.any():
        norms[nonzero] = np.linalg.svd(stack if nonzero.all() else stack[nonzero], compute_uv=False)[:, 0]
    return norms


def op_norm(m) -> float:
    """Operator (spectral) norm: the largest singular value, by ``op_norms``
    on a stack of one.  An all-zero or empty matrix is 0.0 without an SVD."""
    m = np.asarray(m)
    if m.ndim != 2:
        raise ShapeError(f"operand must be 2-D, got ndim={m.ndim}")
    return float(op_norms(m[None])[0])


def commutator(x, y) -> np.ndarray:
    """XY - YX for square operands of equal size."""
    x = ensure_matrix(x, square=True, name="X")
    y = ensure_matrix(y, square=True, name="Y")
    if x.shape != y.shape:
        raise ShapeError(f"commutator needs equal shapes, got {x.shape} and {y.shape}")
    return x @ y - y @ x


def herm_part(m: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M*)/2."""
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class Defect:
    """The defect data of a contraction T: ``basis`` is the orthonormal
    eigenvector basis Q (dim x rank) of the range of ``op`` = D_T, ``s`` the
    eigenvalues of D_T on Q and ``factor`` = D_T Q = Q diag(s), the dim x rank
    operand through which every defect-space identity applies D_T."""

    basis: np.ndarray
    op: np.ndarray
    s: np.ndarray
    factor: np.ndarray

    @property
    def rank(self) -> int:
        return self.basis.shape[1]


def defect(t, pol: TolerancePolicy = DEFAULT_POLICY) -> Defect:
    """The ``Defect`` of T: D_T = (I - T*T)^(1/2), a basis Q of its range, the
    eigenvalues s of D_T on Q and the factor D_T Q = Q diag(s).

    Raises ``NotContractiveError`` when ||T|| > 1 + eq_tol; any other T has
    the eigenvalues of I - T*T at or above 1 - (1 + eq_tol)^2, and
    ``NotPSDError`` is raised only CLAMP_TOL below that.  The range basis
    keeps the eigenvectors whose eigenvalue of I - T*T exceeds RANK_TOL
    times the largest one (deciding on I - T*T rather than on its square
    root keeps round-off noise below the threshold), ordered by decreasing
    eigenvalue; every kept s is above sqrt(RANK_TOL) s_max.
    """
    t = ensure_matrix(t, square=True, name="T")
    tnorm = op_norm(t)
    if tnorm > 1.0 + pol.eq_tol:
        raise NotContractiveError(f"||T|| = {tnorm:.12g} exceeds 1 + eq_tol")
    n = t.shape[0]
    h = herm_part(np.eye(n) - t.conj().T @ t)
    w, v = np.linalg.eigh(h)
    # I - T*T has natural scale 1 for a contraction; eigenvalues within
    # CLAMP_TOL of zero, or down to 1 - (1 + eq_tol)^2, are snapped to exactly
    # zero BEFORE the square root, which is not Lipschitz at 0 and would
    # lift 1e-16 noise to 1e-8; the product, unlike ** 2, saturates to inf
    # on a huge eq_tol instead of raising OverflowError
    floor = CLAMP_TOL + (1.0 + pol.eq_tol) * (1.0 + pol.eq_tol) - 1.0
    if w.size and w.min() < -floor:
        raise NotPSDError(f"I - T*T has eigenvalue {w.min():.3e} below clamp threshold")
    w = np.where(w <= CLAMP_TOL, 0.0, w)
    s = np.sqrt(w)
    d = herm_part((v * s) @ v.conj().T)
    # rank decision on I - T*T against its natural unit scale, so that a
    # numerically unitary T gets an exactly empty defect space
    mask = w > RANK_TOL * max(float(w.max()) if w.size else 0.0, 1.0)
    order = np.argsort(s[mask])[::-1]
    q, s = v[:, mask][:, order], s[mask][order]
    return Defect(basis=q, op=d, s=s, factor=q * s)


def range_basis(m) -> np.ndarray:
    """Orthonormal basis (rows x rank) of the column space: the left singular
    vectors whose singular value exceeds RANK_TOL * max(sigma_max, 1).  The
    floor 1 is the natural norm of the contractions and isometries ranked
    here; without it a matrix of pure round-off noise would be reported as
    full rank.  An all-zero (or empty) matrix has the zero subspace without
    an SVD.  This is the one orthonormality rule: M itself (the caller's
    object, when it is an array already in the dtype of the rule) is the
    basis, without an SVD, when ||M*M - I|| <= 1e-12 in the spectral norm,
    which is taken only when the Frobenius norm, an upper bound, exceeds
    1e-12.  Such columns span the range, and the rule above would keep every
    one of them.  LAPACK factors (``eigh``, the thin SVD) are not checked.
    The basis has the rule's dtype."""
    arr = ensure_matrix(m, name="M")
    if not arr.any():
        return np.zeros((arr.shape[0], 0), arr.dtype)
    gram = arr.conj().T @ arr - np.eye(arr.shape[1])
    if np.linalg.norm(gram) <= 1e-12 or op_norm(gram) <= 1e-12:
        return m if isinstance(m, np.ndarray) and m.dtype == arr.dtype else arr
    u, s, _ = np.linalg.svd(arr, full_matrices=False)
    return u[:, : int(np.count_nonzero(s > RANK_TOL * max(float(s[0]), 1.0)))]


def subspace_gap(a, b) -> float:
    """Gap ||P_A - P_B|| between the column spaces of A and B, two matrices
    on the same ambient space (``ShapeError`` otherwise).

    Both are based by ``range_basis`` (which refuses input that is not 2-D)
    as Q_A and Q_B.  The gap equals the sine of the largest principal angle
    when the ranks agree, and reaches 1 when they differ.  On the thin
    factors, ||P_A - P_B|| = max(||(I - P_A) Q_B||, ||(I - P_B) Q_A||) (Kato,
    Perturbation Theory for Linear Operators, ch. I sec. 6.8).
    """
    qa, qb = range_basis(a), range_basis(b)
    if qa.shape[0] != qb.shape[0]:
        raise ShapeError("subspaces live in different ambient spaces")
    return max(op_norm(qb - qa @ (qa.conj().T @ qb)), op_norm(qa - qb @ (qb.conj().T @ qa)))


# theta-grid size of ``numerical_radius``, its bisection budget near a level,
# and its rounding allowance in units of n * eps * ||X||_F
RADIUS_GRID = 256
RADIUS_BISECTIONS = 64
RADIUS_ROUNDING = 32.0


def _field_extremes(x: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalues of Re(e^{i theta} X) at every theta, from
    one stacked eigvalsh call; the sum and the halving run in place."""
    half = np.exp(1j * thetas)[:, None, None] * x
    half += np.exp(-1j * thetas)[:, None, None] * x.conj().T
    half *= 0.5
    eigs = np.linalg.eigvalsh(half)
    return eigs[:, 0], eigs[:, -1]


def _vertex_moduli(vals: np.ndarray, half_gaps, slack: float) -> np.ndarray:
    """|vertex k| of Johnson's polygon, where Re(e^{i theta_j} z) = M_j + slack
    meet for j = k, k + 1 (cyclically): turned to the bisecting normal, with h
    half their gap, it is ((M_k + M_k+1)/2 + slack)/cos h + i (M_k+1 - M_k)/(2 sin h)."""
    nxt = np.append(vals[1:], vals[0])
    return np.hypot(
        (0.5 * (vals + nxt) + slack) / np.cos(half_gaps), 0.5 * (nxt - vals) / np.sin(half_gaps)
    )


def numerical_radius(x, level: float | None = None) -> tuple[float, float]:
    """Certified bracket (value, gap) of the numerical radius: value <= w(X) <= value + gap.

    value is the largest support value M_k = lambda_max(Re(e^{i theta_k} X))
    over RADIUS_GRID uniform angles, from one stacked ``eigvalsh`` over half
    the circle, as Re(e^{i (theta + pi)} X) = -Re(e^{i theta} X).  The field
    of values lies in each half-plane Re(e^{i theta_k} z) <= M_k + slack, so
    value + gap is the largest vertex modulus of the polygon they cut out
    (C. R. Johnson, SIAM J. Numer. Anal. 15 (1978) 595-602), at most
    (value + slack) / cos(pi/RADIUS_GRID).  slack = RADIUS_ROUNDING * n * eps
    * ||X||_F covers the rounding; the Frobenius norm needs no SVD.  While
    the bracket straddles ``level``, up to RADIUS_BISECTIONS steps bisect the
    edge of the farthest vertex, one single-angle ``eigvalsh`` each.
    """
    x = ensure_matrix(x, square=True, name="X")
    if not x.any():
        return 0.0, 0.0
    slack = RADIUS_ROUNDING * x.shape[0] * np.finfo(float).eps * float(np.linalg.norm(x))
    thetas = np.pi * np.arange(RADIUS_GRID // 2) / (RADIUS_GRID // 2)
    low, high = _field_extremes(x, thetas)
    thetas, vals = np.concatenate((thetas, thetas + np.pi)), np.concatenate((high, -low))
    moduli = _vertex_moduli(vals, np.pi / RADIUS_GRID, slack)
    for _ in range(RADIUS_BISECTIONS if level is not None else 0):
        if not vals.max() <= level < moduli.max():
            break
        k = int(np.argmax(moduli))
        theta = 0.5 * (thetas[k] + np.append(thetas, 2.0 * np.pi)[k + 1])
        thetas = np.insert(thetas, k + 1, theta)
        vals = np.insert(vals, k + 1, _field_extremes(x, np.array([theta]))[1])
        moduli = _vertex_moduli(vals, 0.5 * np.diff(thetas, append=2.0 * np.pi), slack)
    return float(vals.max()), float(moduli.max() - vals.max())
