"""Worked finite-dimensional example: commuting shifts on a truncated bidisc grid.

The grid C^{(n+1) x (n+1)} carries coordinate shifts

    A e_(i,j) = e_(i+1,j),   B e_(i,j) = e_(i,j+1),   P = AB,

all truncating to zero past index n.  The defect of P* is the orthogonal
projection onto the "near border" {i = 0 or j = 0}, the defect of P the
projection onto the "far border" {i = n or j = n}, and every structural
identity of the theory holds *exactly* at this truncation: the fundamental
equations have explicit single-shift solutions on the borders, and an
explicit permutation embedding U realizes the functional model.

Everything here is integer combinatorics; residuals are pinned at 1e-13
rather than the looser policy tolerances.
"""

from __future__ import annotations

import numpy as np

from .charfn import ModelData
from .fundamental import FundamentalPair
from .hardy import model_pencils, pencil_apply
from .matcore import DEFAULT_POLICY, TolerancePolicy, op_norm
from .report import CheckReport
from .triples import TetrablockTriple, validate

__all__ = [
    "EXACT_TOL",
    "grid_dim",
    "flat_index",
    "border_points",
    "border_embedding",
    "shifts",
    "build",
    "fundamental_ops",
    "model_embedding",
    "model_embedding_series",
    "verify_example",
]

EXACT_TOL = 1e-13


def _require_size(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"grid size must be an integer >= 1, got {n!r}")


def grid_dim(n: int) -> int:
    _require_size(n)
    return (n + 1) ** 2


def flat_index(n: int, i: int, j: int) -> int:
    """Row-major position of grid point (i, j) in C^((n+1)^2)."""
    if not (0 <= i <= n and 0 <= j <= n):
        raise ValueError(f"grid point ({i}, {j}) outside [0, {n}]^2")
    return i * (n + 1) + j


def border_points(n: int, far: bool = False) -> list[tuple[int, int]]:
    """Near border {i = 0 or j = 0}, or with ``far`` the far border {i = n or
    j = n}: for the corner c = 0 or n, the point (c, c) first, then (k, c)
    and then (c, k) for the other k in increasing order."""
    _require_size(n)
    c = n if far else 0
    ks = [k for k in range(n + 1) if k != c]
    return [(c, c)] + [(k, c) for k in ks] + [(c, k) for k in ks]


def border_embedding(n: int, far: bool = False) -> np.ndarray:
    """Isometric embedding C^(2n+1) -> grid with columns the points of
    ``border_points(n, far)``; B B* is the diagonal projection onto that border."""
    pts = border_points(n, far)
    # the ones set in place: columns of np.eye(grid_dim(n)) would allocate a grid-sized temporary
    m = np.zeros((grid_dim(n), len(pts)))
    m[[flat_index(n, i, j) for i, j in pts], np.arange(len(pts))] = 1.0
    return m


def shifts(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The truncated coordinate shifts (A, B, P) on the (n+1)^2 grid, not validated."""
    _require_size(n)
    s, i = np.eye(n + 1, k=-1), np.eye(n + 1)
    return np.kron(s, i), np.kron(i, s), np.kron(s, s)


def build(n: int, pol: TolerancePolicy = DEFAULT_POLICY) -> TetrablockTriple:
    """The validated triple of ``shifts(n)``."""
    return validate(*shifts(n), pol)


def fundamental_ops(n: int, far: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(G1, G2) = (E* A* E, E* B* E) on the near border, or with ``far``
    (F1, F2) = (E* A E, E* B E) on the far one, E = ``border_embedding(n, far)``.

    G1 back-shifts the horizontal edge, e_(k,0) -> e_(k-1,0) for k >= 1, and
    G2 the vertical edge; then A* - B P* = D_P* G1 D_P* and
    B* - A P* = D_P* G2 D_P*.  F1 shifts the j = n edge forward and F2 the
    i = n edge; then A - B* P = D_P F1 D_P and B - A* P = D_P F2 D_P.  Every
    entry is 0 or 1, so these residuals are exactly zero.
    """
    a, b = (m if far else m.T for m in shifts(n)[:2])
    # E has one 1 per column, in row rows[k]: E* X E is the block X[rows, rows]
    rows = border_embedding(n, far).argmax(axis=0)
    return a[np.ix_(rows, rows)], b[np.ix_(rows, rows)]


def model_embedding(n: int) -> np.ndarray:
    """Permutation embedding of the grid into C^(n+1) (x) C^(2n+1).

    e_(i,j) goes to e_m (x) e_beta where m = min(i,j) is the diagonal depth
    and beta indexes the border fiber (i-m, j-m).  Columns are orthonormal,
    and the adjoints of the model operator pencil intertwine exactly:
    X_A* U = U A*, X_B* U = U B*, (S* (x) I) U = U P*.
    """
    idx = {pt: k for k, pt in enumerate(border_points(n))}
    fiber = 2 * n + 1
    u = np.zeros(((n + 1) * fiber, grid_dim(n)))
    for i in range(n + 1):
        for j in range(n + 1):
            m = min(i, j)
            u[m * fiber + idx[(i - m, j - m)], flat_index(n, i, j)] = 1.0
    return u


def model_embedding_series(n: int) -> np.ndarray:
    """Same embedding assembled analytically: row block m is B_b* D_P* (P*)^m,
    block m + 1 the product of block m with P*; no power of P* is formed."""
    pstar = shifts(n)[2].conj().T
    bb = border_embedding(n)
    blocks = [bb.conj().T @ (bb @ bb.conj().T)]
    for _ in range(n):
        blocks.append(blocks[-1] @ pstar)
    return np.vstack(blocks)


def verify_example(
    triple: TetrablockTriple, pair_f: FundamentalPair, pair_g: FundamentalPair, model: ModelData,
    pol: TolerancePolicy = DEFAULT_POLICY,
) -> CheckReport:
    """Full battery on the grid example; structural identities pinned at 1e-13.

    ``triple`` is ``build(n, pol)``; ``pair_f``, ``pair_g`` and ``model`` are
    its pairs and its degree-n model, all under ``pol``, so n is ``model.N``;
    ``pure_nilpotent`` reads the triple's purity certificate."""
    n = model.N
    rep = CheckReport(
        title=f"bidisc shift example (n={n})",
        header="all identities hold exactly at this truncation",
    )
    cert = triple.purity
    rep.check(
        "pure_nilpotent",
        0.0 if (cert.pure and cert.nilpotency_index == n + 1) else float("inf"),
        0.0,
        note=f"nilpotency index {cert.nilpotency_index}",
    )

    bb = border_embedding(n)
    bf = border_embedding(n, far=True)
    near = bb @ bb.conj().T
    far = bf @ bf.conj().T
    rep.check("defect_projector_near", op_norm(triple.dpstar.op @ triple.dpstar.op - near), EXACT_TOL)
    rep.check("defect_projector_far", op_norm(triple.dp.op @ triple.dp.op - far), EXACT_TOL)

    a, b, p = triple.A, triple.B, triple.P
    g1, g2 = fundamental_ops(n)
    res_g1 = a.conj().T - b @ p.conj().T - bb @ g1 @ bb.conj().T
    res_g2 = b.conj().T - a @ p.conj().T - bb @ g2 @ bb.conj().T
    rep.check("adjoint_eq_1", op_norm(res_g1), EXACT_TOL)
    rep.check("adjoint_eq_2", op_norm(res_g2), EXACT_TOL)
    # the border projector and its complement are diagonal: column masks
    mask = near.diagonal()
    rep.check(
        "adjoint_eq_border_columns",
        max(op_norm(res_g1 * mask), op_norm(res_g2 * mask)),
        EXACT_TOL,
    )
    rep.check(
        "adjoint_eq_interior_columns",
        max(op_norm(res_g1 * (1.0 - mask)), op_norm(res_g2 * (1.0 - mask))),
        EXACT_TOL,
    )

    f1, f2 = fundamental_ops(n, far=True)
    rep.check(
        "forward_eq_1",
        op_norm(a - b.conj().T @ p - bf @ f1 @ bf.conj().T),
        EXACT_TOL,
    )
    rep.check(
        "forward_eq_2",
        op_norm(b - a.conj().T @ p - bf @ f2 @ bf.conj().T),
        EXACT_TOL,
    )

    conv = pair_g.basis.basis.conj().T @ bb
    rep.check(
        "border_basis_change_unitary",
        op_norm(conv.conj().T @ conv - np.eye(2 * n + 1)),
        pol.scaled_eq(1.0),
    )
    rep.check("solver_G1_pattern", op_norm(pair_g.F1 - conv @ g1 @ conv.conj().T), pol.scaled_eq(1.0))
    rep.check("solver_G2_pattern", op_norm(pair_g.F2 - conv @ g2 @ conv.conj().T), pol.scaled_eq(1.0))

    conv_f = pair_f.basis.basis.conj().T @ bf
    rep.check("solver_F1_pattern", op_norm(pair_f.F1 - conv_f @ f1 @ conv_f.conj().T), pol.scaled_eq(1.0))
    rep.check("solver_F2_pattern", op_norm(pair_f.F2 - conv_f @ f2 @ conv_f.conj().T), pol.scaled_eq(1.0))

    u = model_embedding(n)
    rep.check("embedding_constructions_agree", op_norm(u - model_embedding_series(n)), EXACT_TOL)
    rep.check(
        "embedding_isometry",
        op_norm(u.conj().T @ u - np.eye(grid_dim(n))),
        EXACT_TOL,
    )

    # U has one entry 1 per column, in row rows[j] of column j, and is 0
    # elsewhere: U X places the rows of X there and U* Y gathers them
    rows = np.abs(u).argmax(axis=0)
    for name, (c0, c1), grid_op in zip("ABP", model_pencils(g1, g2), (a, b, p)):
        resid = pencil_apply(c0, c1, u, adjoint=True)
        resid[rows] -= grid_op.conj().T
        rep.check(f"intertwine_adjoint_{name}", op_norm(resid), EXACT_TOL)
        rep.check(f"compression_{name}", op_norm(pencil_apply(c0, c1, u)[rows] - grid_op), EXACT_TOL)

    rep.check("model_tail_zero", model.tail, 0.0)
    # (I (x) conv) U applied block by block, conv = Q_*^* B_b
    blocks = u.reshape(n + 1, 2 * n + 1, -1)
    w_from_u = (conv @ blocks).reshape(model.W.shape)
    rep.check("model_isometry_match", op_norm(model.W - w_from_u), pol.scaled_eq(1.0))
    return rep
