"""Characteristic functions as complete unitary invariants.

Two contractions P, P' have coinciding characteristic functions when there
are unitaries u: D_P -> D_P' and u*: D_P* -> D_P'* with

    u_star Theta_P(z) = Theta_P'(z) u     for all z in the disc.

A unitary equivalence U of triples induces such witnesses together with
equivalences of the fundamental pairs; conversely, coincidence plus
fundamental-pair equivalence lets I (x) u_star carry the model space H_P
onto H_P' and intertwine the model operators, recovering the equivalence of
pure triples.  This module checks both directions at truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charfn import ModelData, _disc_samples, build_model, model_pencils, theta_eval, theta_taylor
from .fundamental import FundamentalPair, solve_fundamental
from .hardy import pencil_apply
from .matcore import (
    DEFAULT_POLICY,
    ShapeError,
    TetralabError,
    TolerancePolicy,
    ensure_matrix,
    op_norm,
    op_norms,
    range_basis,
    subspace_gap,
)
from .report import CheckReport
from .triples import TetrablockTriple

__all__ = [
    "NotIntertwiningError",
    "CoincidenceWitness",
    "verify_coincidence",
    "induced_defect_unitary",
    "verify_fundamental_equivalence",
    "unitary_invariant_suite",
]


# Taylor coefficients compared by ``verify_coincidence``, and the disc points
# at which ``unitary_invariant_suite`` compares characteristic functions
COINCIDENCE_DEGREE = 12
INVARIANT_SAMPLES = (0.3 + 0.2j, -0.55, 0.1 - 0.6j, 0.72j)


class NotIntertwiningError(TetralabError):
    """Candidate equivalence fails to intertwine the triples within eq_tol."""


@dataclass(frozen=True)
class CoincidenceWitness:
    """Pair of defect-space maps (u on D_P, u_star on D_P*), unitary when valid."""

    u: np.ndarray
    u_star: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", ensure_matrix(self.u, name="u"))
        object.__setattr__(self, "u_star", ensure_matrix(self.u_star, name="u_star"))

    def unitarity_residual(self) -> float:
        res = 0.0
        for m in (self.u, self.u_star):
            rows, cols = m.shape
            if rows != cols:
                return float("inf")
            if rows:
                res = max(res, op_norm(m.conj().T @ m - np.eye(cols)))
        return res


def verify_coincidence(
    triple: TetrablockTriple,
    triple_prime: TetrablockTriple,
    wit: CoincidenceWitness,
    samples,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Check u_star Theta_P(z) = Theta_P'(z) u at sample points of the open
    disc (ResolventSingularError outside it) and on Taylor coefficients up to
    COINCIDENCE_DEGREE, P and P' the contractions of the two triples.

    Zero-dimensional defect spaces make the statement vacuous; that is
    reported explicitly rather than silently passed.
    """
    samples, denom = _disc_samples(samples)
    rep = CheckReport(title="characteristic function coincidence")
    rep.check("witness_unitary", wit.unitarity_residual(), pol.scaled_eq(1.0))
    if wit.u.shape[1] == 0 and wit.u_star.shape[1] == 0:
        rep.vacuous("coincidence", "both defect spaces are zero-dimensional")
        return rep
    degrees = range(COINCIDENCE_DEGREE + 1)
    thetas = [
        *zip(theta_eval(triple, samples), theta_eval(triple_prime, samples)),
        *zip(theta_taylor(triple, degrees, pol), theta_taylor(triple_prime, degrees, pol)),
    ]
    norms = op_norms([wit.u_star @ th - th_p @ wit.u for th, th_p in thetas])
    rep.check(
        "coincidence_at_samples",
        norms[: len(samples)].max(initial=0.0),
        pol.scaled_eq(1.0) / denom,
        note=f"{len(samples)} sample points",
    )
    rep.check(
        "coincidence_taylor",
        norms[len(samples) :].max(initial=0.0),
        pol.scaled_eq(1.0),
        note=f"coefficients 0..{COINCIDENCE_DEGREE}",
    )
    return rep


def induced_defect_unitary(
    u,
    triple: TetrablockTriple,
    triple_prime: TetrablockTriple,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CoincidenceWitness:
    """Witness induced by a unitary equivalence U of triples.

    Requires U A = A' U, U B = B' U, U P = P' U and U unitary
    (NotIntertwiningError otherwise).  Then U D_P = D_P' U, so compressing U
    to the defect bases yields unitaries u, u_star; their unitarity is
    re-certified before returning.
    """
    u = ensure_matrix(u, square=True, name="U")
    if u.shape[0] != triple.dim or triple.dim != triple_prime.dim:
        raise ShapeError("dimension mismatch between U and the triples")
    scale = pol.scaled_eq(1.0)
    if op_norm(u.conj().T @ u - np.eye(triple.dim)) > scale:
        raise NotIntertwiningError("U is not unitary within eq_tol")
    for name in "ABP":
        res = op_norm(u @ getattr(triple, name) - getattr(triple_prime, name) @ u)
        if res > pol.scaled_eq(triple.norm(name)):
            raise NotIntertwiningError(f"U does not intertwine {name} (residual {res:.3e})")
    small_u = triple_prime.dp.basis.conj().T @ u @ triple.dp.basis
    small_ustar = triple_prime.dpstar.basis.conj().T @ u @ triple.dpstar.basis
    wit = CoincidenceWitness(u=small_u, u_star=small_ustar)
    res = wit.unitarity_residual()
    if res > scale:
        raise NotIntertwiningError(
            f"induced defect maps are not unitary (residual {res:.3e}); "
            "defect ranks probably disagree"
        )
    return wit


def verify_fundamental_equivalence(
    witness_map,
    pair: FundamentalPair,
    pair_prime: FundamentalPair,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Check u F_i u* = F_i' for a defect-space unitary u."""
    u = ensure_matrix(witness_map, name="witness map")
    rep = CheckReport(title="fundamental pair equivalence")
    if u.shape != (pair_prime.basis.rank, pair.basis.rank):
        raise ShapeError(
            f"witness map shape {u.shape} does not connect defect ranks "
            f"{pair.basis.rank} -> {pair_prime.basis.rank}"
        )
    if u.shape[0] == 0:
        rep.vacuous("pair_equivalence", "defect spaces are zero-dimensional")
        return rep
    scale = pol.scaled_eq(*pair.norms)
    rep.check("equivalence_F1", op_norm(u @ pair.F1 @ u.conj().T - pair_prime.F1), scale)
    rep.check("equivalence_F2", op_norm(u @ pair.F2 @ u.conj().T - pair_prime.F2), scale)
    return rep


def _model_transport(
    model: ModelData,
    model_prime: ModelData,
    wit: CoincidenceWitness,
    pair_g: FundamentalPair,
    pair_g_prime: FundamentalPair,
    pol: TolerancePolicy,
) -> CheckReport:
    """Converse direction: U_star = I (x) u_star carries H_P onto H_P' (the gap
    ``model_space_transport``) and, with V = Q_H'* U_star Q_H, Q_H and Q_H' the
    bases of H_P and H_P', makes the model operators X, X' compressed to them
    equivalent: ``model_intertwine_X`` norms the dim H sided V X_H - X'_H' V,
    X_H = Q_H* X Q_H, X Q_H from ``pencil_apply``."""
    rep = CheckReport(title="model transport")
    if model.N != model_prime.N:
        raise ShapeError("models must be built at the same truncation degree")
    us, h, h_p = wit.u_star, model.h_basis.basis, model_prime.h_basis.basis
    transported = (us @ h.reshape(model.N + 1, us.shape[1], h.shape[1])).reshape(-1, h.shape[1])
    gap = subspace_gap(range_basis(transported), model_prime.h_basis)
    tails = model.tail + model_prime.tail
    rep.check("model_space_transport", gap, 1e-6 + 4.0 * tails)
    v = h_p.conj().T @ transported
    scale = pol.scaled_eq(1.0, *pair_g.norms) + 8.0 * tails
    pencils = model_pencils(pair_g.F1, pair_g.F2), model_pencils(pair_g_prime.F1, pair_g_prime.F2)
    for name, (c0, c1), (c0_p, c1_p) in zip("ABP", *pencils):
        x_h = h.conj().T @ pencil_apply(c0, c1, h)
        x_h_p = h_p.conj().T @ pencil_apply(c0_p, c1_p, h_p)
        rep.check(f"model_intertwine_{name}", op_norm(v @ x_h - x_h_p @ v), scale)
    return rep


def unitary_invariant_suite(
    triple: TetrablockTriple,
    triple_prime: TetrablockTriple,
    u,
    pol: TolerancePolicy = DEFAULT_POLICY,
    *,
    pair_f: FundamentalPair,
    pair_g: FundamentalPair,
    model: ModelData,
) -> CheckReport:
    """Round trip of the complete-unitary-invariant property for pure triples.

    Forward: U induces defect witnesses, which must exhibit coincidence of
    characteristic functions (at INVARIANT_SAMPLES) and equivalence of both
    fundamental pairs.  Converse: from those witnesses alone, I (x) u_star must carry
    H_P onto H_P' and make the model operator triples compressed to them equivalent.

    ``pair_f``, ``pair_g`` and ``model`` are the objects of ``triple``:
    ``solve_fundamental(triple, pol)``, ``solve_fundamental(triple.adjoint(),
    pol)`` and ``build_model(triple, N, pol)``.  The objects of
    ``triple_prime`` are computed here; its model takes the degree of ``model``.
    """
    rep = CheckReport(title="unitary invariant suite")
    wit = induced_defect_unitary(u, triple, triple_prime, pol)
    rep.extend(
        verify_coincidence(triple, triple_prime, wit, INVARIANT_SAMPLES, pol), prefix="fwd_"
    )
    pair_f_prime = solve_fundamental(triple_prime, pol)
    pair_g_prime = solve_fundamental(triple_prime.adjoint(), pol)
    rep.extend(verify_fundamental_equivalence(wit.u, pair_f, pair_f_prime, pol), prefix="fwd_F_")
    rep.extend(
        verify_fundamental_equivalence(wit.u_star, pair_g, pair_g_prime, pol), prefix="fwd_G_"
    )
    model_prime = build_model(triple_prime, model.N, pol)
    rep.extend(
        _model_transport(model, model_prime, wit, pair_g, pair_g_prime, pol), prefix="cnv_"
    )
    return rep
