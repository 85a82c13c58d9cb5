"""Fundamental operators of a tetrablock contraction.

For a commuting contractive triple (A, B, P) the fundamental equations

    A - B* P = D_P F1 D_P,      B - A* P = D_P F2 D_P

have unique solutions F1, F2 acting on the defect space of P.  This module
solves them numerically, certifies the solve residual, and verifies the
algebraic identities the pair must satisfy: the defect intertwining
characterization, the Gramian-difference transfer, the mixed relations
coupling (F1, F2) with the adjoint pair (G1, G2) of (A*, B*, P*), and the
commutator-transfer property with its converse for invertible P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matcore import (
    DEFAULT_POLICY,
    RANK_TOL,
    Defect,
    TetralabError,
    TolerancePolicy,
    commutator,
    numerical_radius,
    op_norm,
)
from .report import CheckReport
from .triples import TetrablockTriple

__all__ = [
    "SolveFailedError",
    "FundamentalPair",
    "solve_fundamental",
    "verify_tetra_characterization",
    "verify_difference_identity",
    "verify_cross_relations",
    "verify_commutator_transfer",
]


class SolveFailedError(TetralabError):
    """Fundamental equations admit no defect-supported solution at tolerance."""


@dataclass(frozen=True)
class FundamentalPair:
    """Solved pair on the defect space of P, expressed in ``basis``, the
    ``Defect`` of P it was solved on.

    ``norms`` = (||F1||, ||F2||) is computed on first use and kept;
    ``dataclasses.replace`` starts afresh.  The numerical radii are bracketed
    only by ``verify_tetra_characterization``, the one check that reads them.
    """

    F1: np.ndarray
    F2: np.ndarray
    basis: Defect
    solve_residual: float

    @cached_property
    def norms(self) -> tuple[float, float]:
        return op_norm(self.F1), op_norm(self.F2)


def solve_fundamental(
    triple: TetrablockTriple,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> FundamentalPair:
    """Solve both fundamental equations on the defect space of P.

    With Q the defect-range basis, D_P Q = Q diag(s) for the spectrum s the
    triple keeps, so the compressed solution is F_i = S^-1 Q* R_i Q S^-1,
    S = diag(s), for R_1 = A - B*P, R_2 = B - A*P.  The solve residual is
    measured on the full ambient space,

        max_i || D_P (Q F_i Q*) D_P - R_i || = max_i || (D_P Q) F_i (D_P Q)* - R_i ||,

    which certifies both that R_i maps into the defect space and vanishes on
    its complement.  Raises SolveFailedError beyond eq_tol * (1+||A||+||B||).
    """
    q, dq = triple.dp.basis, triple.dp.factor
    qh = q.conj().T
    r1 = triple.A - triple.B.conj().T @ triple.P
    r2 = triple.B - triple.A.conj().T @ triple.P
    ss = np.outer(triple.dp.s, triple.dp.s)
    f1 = (qh @ r1 @ q) / ss
    f2 = (qh @ r2 @ q) / ss
    res = 0.0
    for f, rhs in ((f1, r1), (f2, r2)):
        res = max(res, op_norm(dq @ f @ dq.conj().T - rhs))
    limit = pol.eq_tol * (1.0 + triple.norm("A") + triple.norm("B"))
    if res > limit:
        raise SolveFailedError(
            f"fundamental equations unsolvable at tolerance: residual {res:.3e} > {limit:.3e}"
        )
    return FundamentalPair(F1=f1, F2=f2, basis=triple.dp, solve_residual=res)


def verify_tetra_characterization(
    triple: TetrablockTriple,
    pair: FundamentalPair,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Check the intertwining pair that characterizes the fundamental operators:

        D_P A = F1 D_P + F2* D_P P,      D_P B = F2 D_P + F1* D_P P.

    Conversely, any pair satisfying these with numerical radii <= 1 must be
    the fundamental pair, so this doubles as a uniqueness certificate.  With
    Q the basis of D_P the right-hand sides are Q (F1 (D_P Q)* + F2* (D_P Q)* P)
    and the same with F1, F2 swapped.
    """
    rep = CheckReport(title="fundamental characterization")
    q, dqh = triple.dp.basis, triple.dp.factor.conj().T
    dqh_p = dqh @ triple.P
    scale = pol.scaled_eq(triple.max_norm())
    for name, x, f, g in (("A", triple.A, pair.F1, pair.F2), ("B", triple.B, pair.F2, pair.F1)):
        resid = triple.dp.op @ x - q @ (f @ dqh + g.conj().T @ dqh_p)
        rep.check(f"defect_intertwine_{name}", op_norm(resid), scale)
    # w <= w(F) <= w + err decides only when the bracket is on one side of
    # 1 + eq_tol; numerical_radius refines it while it straddles that level
    for name, f in (("radius_F1", pair.F1), ("radius_F2", pair.F2)):
        w, err = numerical_radius(f, 1.0 + pol.eq_tol)
        if w - 1.0 <= pol.eq_tol < w + err - 1.0:
            rep.skip(name, f"undecided: {w:.6f} <= w <= {w + err:.6f} straddles 1 + eq_tol")
        else:
            rep.check(name, max(w + err - 1.0, 0.0), pol.eq_tol, note=f"w={w:.6f} (+{err:.1e})")
    return rep


def verify_difference_identity(
    triple: TetrablockTriple,
    pair: FundamentalPair,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Check A*A - B*B = D_P (F1*F1 - F2*F2) D_P, the right-hand side taken as
    (D_P Q) (F1*F1 - F2*F2) (D_P Q)*, Q the basis of D_P.

    The identity needs [F1, F2] = 0; when that hypothesis fails the check is
    recorded as skipped, never as a silent pass.
    """
    rep = CheckReport(title="Gramian difference transfer")
    fscale = pol.scaled_eq(*pair.norms)
    comm = op_norm(commutator(pair.F1, pair.F2))
    if comm > fscale:
        rep.skip(
            "gramian_difference",
            f"hypothesis [F1,F2]=0 violated (norm {comm:.3e} > {fscale:.3e})",
        )
        return rep
    rep.check("hypothesis_F_commute", comm, fscale)
    f1, f2, dq = pair.F1, pair.F2, triple.dp.factor
    lhs = triple.A.conj().T @ triple.A - triple.B.conj().T @ triple.B
    rhs = dq @ (f1.conj().T @ f1 - f2.conj().T @ f2) @ dq.conj().T
    rep.check("gramian_difference", op_norm(lhs - rhs), pol.scaled_eq(triple.max_norm()))
    return rep


def verify_cross_relations(
    triple: TetrablockTriple,
    pair_f: FundamentalPair,
    pair_g: FundamentalPair,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Relations coupling (F1, F2) with the adjoint-triple pair (G1, G2).

    All six residuals vanish for genuine tetrablock contractions:

      mixed_defect_1:   D_P F1 = (A D_P - D_{P*} G2 P) restricted to D_P
      mixed_defect_2:   D_P F2 = (B D_P - D_{P*} G1 P) restricted to D_P
      cross_P_F1:       P F1 = G1* P on D_P
      cross_P_F2:       P F2 = G2* P on D_P
      product_rel_1:    (F1* D_P D_{P*} - F2 P*) = D_P D_{P*} G1 - P* G2* on D_{P*}
      product_rel_2:    (F2* D_P D_{P*} - F1 P*) = D_P D_{P*} G2 - P* G1* on D_{P*}

    F_i and G_i stand for their ambient extensions Q F_i Q* and Q_* G_i Q_*^*,
    Q and Q_* the bases of D_P and D_{P*}.  Each residual is the ambient one
    applied to Q (or Q_*) from the right, associated into dim x rank
    products of the factors D_P Q and D_{P*} Q_* the triple keeps.
    """
    rep = CheckReport(title="cross relations (F vs adjoint G)")
    f1, f2, g1, g2 = pair_f.F1, pair_f.F2, pair_g.F1, pair_g.F2
    qp, qs = triple.dp.basis, triple.dpstar.basis
    dq, dsq = triple.dp.factor, triple.dpstar.factor
    p = triple.P
    pq = p @ qp  # P Q
    qs_pq = qs.conj().T @ pq  # Q_*^* P Q
    dd = triple.dp.op @ dsq  # D_P D_{P*} Q_*
    dq_dd = dq.conj().T @ dsq  # Q* D_P D_{P*} Q_*
    pq_qs = pq.conj().T @ qs  # Q* P* Q_*
    ps = p.conj().T @ qs  # P* Q_*
    scale = pol.scaled_eq(triple.max_norm(), *pair_f.norms, *pair_g.norms)
    for k, x, f, g in ((1, triple.A, f1, g2), (2, triple.B, f2, g1)):
        rep.check(f"mixed_defect_{k}", op_norm(dq @ f - (x @ dq - dsq @ (g @ qs_pq))), scale)
    for k, f, g in ((1, f1, g1), (2, f2, g2)):
        rep.check(f"cross_P_F{k}", op_norm(pq @ f - qs @ (g.conj().T @ qs_pq)), scale)
    for k, f, f_other, g, g_other in ((1, f1, f2, g1, g2), (2, f2, f1, g2, g1)):
        lhs = qp @ (f.conj().T @ dq_dd - f_other @ pq_qs)
        rep.check(f"product_rel_{k}", op_norm(lhs - (dd @ g - ps @ g_other.conj().T)), scale)
    return rep


def verify_commutator_transfer(
    triple: TetrablockTriple,
    pair_f: FundamentalPair,
    pair_g: FundamentalPair,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Commutator transfer: if [F1, F2] = 0 and P has dense range then

        [F1, F1*] = [F2, F2*],   [G1, G2] = 0,   [G1, G1*] = [G2, G2*].

    When P is invertible the converse runs too (swap the roles of F and G):
    [G1, G2] = 0 forces [F1, F2] = 0 back, making F-commutation and
    G-commutation equivalent.  Hypothesis violations are reported as skips.
    """
    rep = CheckReport(title="commutator transfer")
    f1, f2 = pair_f.F1, pair_f.F2
    g1, g2 = pair_g.F1, pair_g.F2
    fscale = pol.scaled_eq(*pair_f.norms)
    gscale = pol.scaled_eq(*pair_g.norms)
    smax = triple.norm("P")
    smin = float(np.linalg.svd(triple.P, compute_uv=False)[-1]) if smax > 0.0 else 0.0
    dense_range = smax > 0.0 and smin > RANK_TOL * smax
    comm_f = op_norm(commutator(f1, f2))
    comm_g = op_norm(commutator(g1, g2))
    hyp_f, hyp_g = comm_f <= fscale, comm_g <= gscale
    if dense_range and (hyp_f or hyp_g):
        balance_f = op_norm(commutator(f1, f1.conj().T) - commutator(f2, f2.conj().T))
    if not hyp_f:
        rep.skip("forward_transfer", f"hypothesis [F1,F2]=0 violated (norm {comm_f:.3e})")
    elif not dense_range:
        rep.skip("forward_transfer", f"hypothesis range(P) dense violated (sigma_min {smin:.3e})")
    else:
        rep.check("hypothesis_F_commute", comm_f, fscale)
        rep.check("balance_F", balance_f, fscale)
        rep.check("transfer_G_commute", comm_g, gscale)
        rep.check(
            "balance_G",
            op_norm(commutator(g1, g1.conj().T) - commutator(g2, g2.conj().T)),
            gscale,
        )
    if not dense_range:
        rep.skip("converse_transfer", "P not invertible at rank_tol")
    elif not hyp_g:
        rep.skip("converse_transfer", f"hypothesis [G1,G2]=0 violated (norm {comm_g:.3e})")
    else:
        rep.check("hypothesis_G_commute", comm_g, gscale)
        rep.check("converse_F_commute", comm_f, fscale)
        rep.check("converse_balance_F", balance_f, fscale)
    return rep
