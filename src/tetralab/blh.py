"""Symbol extraction from invariant subspaces of the pencil triple.

On the D-valued Hardy space, a closed subspace M that is jointly invariant
under (M_{F1*+F2 z}, M_{F2*+F1 z}, M_z) and of Beurling form M = Theta H^2
for an inner Theta forces the compressions

    Phi = M_Theta* M_{F1*+F2 z} M_Theta,   Psi = M_Theta* M_{F2*+F1 z} M_Theta

to be multiplication operators with degree-one symbols Phi = G1 + G2* z and
Psi = G2 + G1* z; conversely those intertwinings restate the invariance.
At truncation degree N only the coefficient blocks with row/column degree
<= N - deg(Theta) are faithful to the infinite operators, so extraction and
uniqueness are asserted on that interior region.  A subspace is always given
by its inner symbol Theta; ``extract_symbols`` is the one place that checks
Theta is inner there.
"""

from __future__ import annotations

import numpy as np

from .charfn import theta_taylor
from .fundamental import FundamentalPair
from .hardy import AnalyticSymbol, model_pencils, pencil_apply, toeplitz
from .matcore import (
    DEFAULT_POLICY,
    MAX_GRID_DIM,
    GridSizeError,
    ShapeError,
    TetralabError,
    TolerancePolicy,
    ensure_matrix,
    op_norm,
    op_norms,
)
from .report import CheckReport
from .triples import TetrablockTriple, from_symbols, necessary_report

__all__ = [
    "NotInnerError",
    "NotDegreeOneError",
    "extract_symbols",
    "extraction_roundtrip",
    "verify_isometry_propagation",
]


# grid degrees kept beyond deg(Theta) in ``extraction_roundtrip`` and by default in the CLI's ``blh``
EXTRACTION_MARGIN = 3


class NotInnerError(TetralabError):
    """Toeplitz matrix of the symbol is not isometric on the interior degrees."""


class NotDegreeOneError(TetralabError):
    """Compressed symbol has interior Taylor mass beyond degree one.

    This is the numerical signature of a subspace that is NOT jointly
    invariant under the pencil operators.
    """


def extract_symbols(
    theta: AnalyticSymbol,
    f1,
    f2,
    n: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, np.ndarray, CheckReport]:
    """Recover (G1, G2) from the compressions of the pencils to range(M_theta).

    Requires nonempty fibers and square F1, F2 of one shape matching the
    output fiber of theta (ShapeError otherwise) and toeplitz(theta)
    isometric on degrees <= n - deg(theta) (NotInnerError otherwise).  The
    compressed operators Phi, Psi must be block Toeplitz with only degree-0
    and degree-1 diagonals on the interior region; interior mass at degree
    >= 2 raises NotDegreeOneError, which signals that the subspace is not
    invariant under the pencil pair.
    Returns G1 = Phi_0, G2 = Psi_0 together with a report asserting the
    Toeplitz structure, the degree bound, and the cross-consistency
    Phi_1 = G2*, Psi_1 = G1*.  A grid of more than MAX_GRID_DIM coordinates
    per side is refused with GridSizeError before it is allocated.
    """
    if not (theta.d_in and theta.d_out):
        raise ShapeError(f"theta has an empty fiber: input dimension {theta.d_in}, output dimension {theta.d_out}")
    # the z-coefficients of F1* + F2 z and F2* + F1 z are the validated F2 and F1
    (a0, f2), (b0, f1), _ = model_pencils(f1, f2)
    if theta.d_out != f1.shape[0]:
        raise ShapeError("theta output fiber must match the symbol dimension")
    # largest block index faithful to the infinite compression
    cut = n - theta.degree
    if cut < 1:
        raise ShapeError(
            f"truncation degree {n} too small for theta of degree {theta.degree}; "
            "need at least deg(theta) + 1"
        )
    side = (n + 1) * max(theta.d_in, theta.d_out)
    if side > MAX_GRID_DIM:
        raise GridSizeError(f"extraction grid of degree {n} has side {side} > {MAX_GRID_DIM}")
    scale = pol.scaled_eq(op_norm(f1), op_norm(f2))
    # only the columns of degree <= cut are read: inner there means isometric
    d_in = theta.d_in
    k = (cut + 1) * d_in
    t_th = toeplitz(theta, n)[:, :k]
    inner_resid = op_norm(t_th.conj().T @ t_th - np.eye(k))
    if inner_resid > pol.scaled_eq(1.0):
        raise NotInnerError(
            f"toeplitz(theta) not isometric on degrees <= {cut} (residual {inner_resid:.3e})"
        )
    phi = t_th.conj().T @ pencil_apply(a0, f2, t_th)
    psi = t_th.conj().T @ pencil_apply(b0, f1, t_th)
    rep = CheckReport(title="symbol extraction from invariant subspace")
    rep.check("inner_on_interior", inner_resid, pol.scaled_eq(1.0))

    # blocks[m, i, j] is block (i, j) of phi (m = 0) or psi (m = 1)
    blocks = np.stack((phi, psi)).reshape(2, cut + 1, d_in, cut + 1, d_in).transpose(0, 1, 3, 2, 4)
    # Toeplitz structure on the interior region: each block (i, j), i, j >= 1,
    # against the first block (i - m, j - m), m = min(i, j), of its diagonal
    i, j = np.indices((cut, cut)) + 1
    m = np.minimum(i, j)
    toep = blocks[:, i, j] - blocks[:, i - m, j - m]
    rep.check("toeplitz_on_interior", float(op_norms(toep.reshape(-1, d_in, d_in)).max()), scale)
    # upper-triangular interior mass (the compressions are analytic)
    rep.check("analytic_on_interior", float(op_norms(blocks[:, 0, 1:].reshape(-1, d_in, d_in)).max()), scale)
    high_resid = float(op_norms(blocks[:, 2:, 0].reshape(-1, d_in, d_in)).max(initial=0.0))
    ok = rep.check("degree_le_one_on_interior", high_resid, scale)
    if not ok:
        raise NotDegreeOneError(
            f"interior Taylor mass at degree >= 2 is {high_resid:.3e}; "
            "subspace is not invariant under the pencil pair"
        )
    g1, g2 = blocks[0, 0, 0], blocks[1, 0, 0]
    rep.check("cross_consistency_1", op_norm(blocks[0, 1, 0] - g2.conj().T), scale)
    rep.check("cross_consistency_2", op_norm(blocks[1, 1, 0] - g1.conj().T), scale)
    return g1, g2, rep


def extraction_roundtrip(
    triple: TetrablockTriple, pair_f: FundamentalPair, pair_g: FundamentalPair, degree: int, tail: float,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> tuple[np.ndarray, np.ndarray, CheckReport]:
    """Extract (G1, G2) from Theta_{P*} and compare with the direct solver.

    The characteristic function of P* maps D_P* to D_P, its Toeplitz range
    is invariant under the F-pencils, and the compressed symbols must be the
    G-pencils ``pair_g``.  ``pair_f``, ``pair_g`` are solved from ``triple``
    and its adjoint under ``pol``; ``(degree, tail)`` is a ``power_tail`` pair
    of P, such as a model's ``(N, tail)``.  Theta_{P*} is taken to degree + 1
    with the tail in the match tolerance, on a grid EXTRACTION_MARGIN degrees
    longer."""
    theta = theta_taylor(triple.adjoint(), degree + 1, pol)
    n = theta.degree + EXTRACTION_MARGIN
    g1, g2, rep = extract_symbols(theta, pair_f.F1, pair_f.F2, n, pol)
    out = CheckReport(title="symbol extraction round trip")
    out.extend(rep, prefix="ext_")
    tol = pol.scaled_eq(*pair_g.norms) + 8.0 * tail
    out.check("match_G1", op_norm(g1 - pair_g.F1), tol)
    out.check("match_G2", op_norm(g2 - pair_g.F2), tol)
    return g1, g2, out


def verify_isometry_propagation(
    f1,
    f2,
    g1,
    g2,
    n: int,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """If the source pencil triple passes the necessary isometry battery,
    the extracted-target pencil triple must pass it too.

    Source: (M_{F1*+F2 z}, M_{F2*+F1 z}, M_z).  Target: the same construction
    carrying (G1 + G2* z, G2 + G1* z, z), i.e. from_symbols(G1*, G2*, n).
    The battery is: pairwise commutation, coordinate norms <= 1, and P
    isometric on interior degrees.  When the source battery fails, the
    implication is untested and one ``propagation`` entry is recorded as a
    skip, with the reason, in place of the target entries.
    """
    rep = CheckReport(title="isometry propagation to extracted symbols")

    def battery(a1, a2) -> tuple[CheckReport, str]:
        sub = CheckReport(title="battery")
        try:
            trip = from_symbols(a1, a2, n, pol)
        except TetralabError as exc:
            return sub, str(exc)
        sub.extend(necessary_report(trip, pol))
        interior = n * trip.dim // (n + 1)  # the columns of degrees < n
        iso = op_norm((trip.P.conj().T @ trip.P - np.eye(trip.dim))[:, :interior])
        sub.check("shift_isometric_interior", iso, pol.scaled_eq(1.0))
        return sub, ""

    src_rep, src_err = battery(f1, f2)
    if src_err or not src_rep.overall:
        reason = src_err or "; ".join(e.name for e in src_rep.failures)
        rep.skip(
            "propagation",
            f"source pencil triple fails its own battery at this truncation ({reason})",
        )
        return rep
    rep.extend(src_rep, prefix="source_")
    g1 = ensure_matrix(g1, square=True, name="G1")
    g2 = ensure_matrix(g2, square=True, name="G2")
    tgt_rep, tgt_err = battery(g1.conj().T, g2.conj().T)
    if tgt_err:
        rep.check("target_battery", float("inf"), pol.scaled_eq(1.0), note=tgt_err)
        return rep
    rep.extend(tgt_rep, prefix="target_")
    return rep
