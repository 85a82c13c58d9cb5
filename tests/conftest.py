"""Shared fixtures: deterministic RNG streams, cached instance suites, the
fundamental pairs of a triple, the triple of a bare contraction, the linear
scan for the nilpotency index of ``is_pure``, the dense SVD construction of
a range complement and of the isometric interior, the projector onto a subspace,
the Cauchy product of two analytic symbols and the value of one by Horner's
rule, the reproducing-kernel identity of
Theta on the thin factors, the loops the package runs stacked (one norm per
power of P, one solve per point of Theta_P, one slice per Toeplitz block),
a field-by-field equality and its form for triples, a call counter, watches
on ``numpy.linalg``, the dense construction of the model space, the dense
grid formulas of the model-space residuals and the dense embedded formulas of
the defect-space residuals."""

from __future__ import annotations

import collections
import dataclasses
import sys

import numpy as np
import pytest

from tetralab import charfn, generate
from tetralab.charfn import ResolventSingularError, theta_eval
from tetralab.fundamental import FundamentalPair, solve_fundamental
from tetralab.hardy import AnalyticSymbol, toeplitz
from tetralab.matcore import (
    CLAMP_TOL,
    DEFAULT_POLICY,
    RANK_TOL,
    ShapeError,
    TetralabError,
    op_norm,
    range_basis,
    subspace_gap,
)
from tetralab.triples import TetrablockTriple, validate


@pytest.fixture
def rng() -> np.random.Generator:
    # fresh, fixed-entropy stream per test; Philox for platform stability
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20260815)))


@pytest.fixture(scope="session")
def pol():
    return DEFAULT_POLICY


@pytest.fixture(scope="session")
def small_suite():
    """Six instances (two per family) at dim 3, reused across test modules."""
    return generate.suite(seed=7, count=6, dim=3, degree=3)


def random_contraction(rng: np.random.Generator, dim: int, norm: float = 0.9) -> np.ndarray:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return norm * m / np.linalg.norm(m, 2)


def fundamental_pairs(triple: TetrablockTriple) -> tuple[FundamentalPair, FundamentalPair]:
    """(F1, F2) of ``triple`` and (G1, G2), those of its adjoint, solved as every command solves them."""
    return solve_fundamental(triple), solve_fundamental(triple.adjoint())


def p_triple(p) -> TetrablockTriple:
    """The validated triple (0, 0, P): the defect data of a bare contraction P."""
    zero = np.zeros(np.shape(p))
    return validate(zero, zero, p)


def linear_scan_nilpotency(p) -> tuple[int | None, bool]:
    """(nilpotency_index, exact_zero) of ``is_pure`` by the linear scan over
    P, P^2, ..., P^dim: the least K with ||P^K||_F <= 1e-12 and whether P^K is
    exactly zero, or (None, False) when there is no such K."""
    power = np.eye(len(p), dtype=complex)
    for k in range(1, len(p) + 1):
        power = power @ p
        if np.linalg.norm(power) <= 1e-12:
            return k, not power.any()
    return None, False


def range_complement(m) -> np.ndarray:
    """(range M)^perp: the trailing left singular vectors of one full SVD of M,
    past those above RANK_TOL * max(sigma_1, 1), the rank rule of
    ``range_basis``.  The null space of M is ``range_complement(M*)``."""
    u, s, _ = np.linalg.svd(np.asarray(m, dtype=complex))
    return u[:, np.count_nonzero(s > RANK_TOL * max(s.max(initial=0.0), 1.0)) :]


def two_step_interior(triple: TetrablockTriple) -> np.ndarray:
    """The coordinates c on the basis Q_* of D_{P*} with Q_* c in ker(I - A*A)
    and ker(I - B*B), by two full-space steps: each kernel as the range
    complement of I - X*X, then the null space of the stacked (I - K K*) Q_*,
    K the basis of each kernel."""
    qs, eye = triple.dpstar.basis, np.eye(triple.dim)
    kernels = [range_complement(eye - x.conj().T @ x) for x in (triple.A, triple.B)]
    return range_complement(np.vstack([qs - k @ (k.conj().T @ qs) for k in kernels]).conj().T)


def projector(q: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the span of the orthonormal columns of Q, as an ambient matrix."""
    return q @ q.conj().T


def fields_equal(x, y) -> bool:
    """Equal bytes and memory layout in every array field, recursively."""
    if isinstance(x, np.ndarray):
        same_layout = (x.flags.c_contiguous, x.flags.f_contiguous) == (
            y.flags.c_contiguous,
            y.flags.f_contiguous,
        )
        return same_layout and np.array_equal(x, y)
    if dataclasses.is_dataclass(x):
        return all(
            fields_equal(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
        )
    return x == y


def triples_agree(x: TetrablockTriple, y: TetrablockTriple) -> bool:
    """``fields_equal`` on every field but the kept numbers: ``norms`` agree to
    1e-14 relative and ``commutators`` to 1e-14 of the largest norm.  ||X*||
    and ||X|| come from SVDs of different bytes, and the commutator norms of
    a commuting triple are rounding, which no bound relative to themselves
    holds."""
    tol = {"norms": (1e-14, 0.0), "commutators": (0.0, 1e-14 * max(y.norms))}
    return all(
        np.allclose(getattr(x, f.name), getattr(y, f.name), *tol[f.name])
        if f.name in tol
        else fields_equal(getattr(x, f.name), getattr(y, f.name))
        for f in dataclasses.fields(x)
    )


def count_calls(monkeypatch, *fns) -> dict[str, int]:
    """Count calls of ``fns`` under every name a tetralab module binds them to."""
    calls = {fn.__name__: 0 for fn in fns}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("tetralab"):
            for fn in fns:
                if getattr(mod, fn.__name__, None) is fn:
                    monkeypatch.setattr(mod, fn.__name__, counting(fn))
    return calls


def forbid_linalg(monkeypatch) -> None:
    """Make every public ``numpy.linalg`` function raise AssertionError."""

    def no_linalg(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    for name in dir(np.linalg):
        if not name.startswith("_") and callable(getattr(np.linalg, name)):
            if not isinstance(getattr(np.linalg, name), type):
                monkeypatch.setattr(np.linalg, name, no_linalg)


def watch_decompositions(monkeypatch) -> tuple[collections.Counter, list, collections.Counter, collections.Counter]:
    """Watch the SVDs, Hermitian eigensolvers, spectral norms and QR factorizations of numpy.linalg.

    Returns ``(calls, zeros, work, dtypes)``: ``calls[name, caller]`` counts
    the calls of ``name`` made directly by the function named ``caller``,
    ``dtypes[name, caller, dtype]`` splits that count by the dtype name of the
    operand, ``zeros`` gets ``(name, caller, shape)`` for each all-zero (or
    empty) matrix one of the decompositions is handed, once per matrix of a
    stacked operand, and ``work[name, caller]`` sums min(m, n)^2 max(m, n)
    over the m x n matrices they are handed, the order of the flops of a dense
    decomposition.  A QR is counted in ``calls`` and ``dtypes`` only.
    """
    calls, zeros, work, dtypes = collections.Counter(), [], collections.Counter(), collections.Counter()

    def watching(name, fn):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            spectral = name != "norm" or (args[:1] or [kwargs.get("ord")])[0] == 2
            if spectral and arr.ndim >= 2:
                caller = sys._getframe(1).f_code.co_name
                calls[name, caller] += 1
                dtypes[name, caller, arr.dtype.name] += 1
                if name != "qr":
                    zeros.extend([(name, caller, arr.shape)] * int(np.sum(~arr.any(axis=(-2, -1)))))
                    small, large = sorted(arr.shape[-2:])
                    work[name, caller] += small * small * large * int(np.prod(arr.shape[:-2]))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "norm", "qr"):
        monkeypatch.setattr(np.linalg, name, watching(name, getattr(np.linalg, name)))
    return calls, zeros, work, dtypes


# Dense M x M formulas of the model-space residuals, M the side of the model
# grid: the package takes the same norms on thin factors or on their
# compressions to H_P, and must agree with these to rounding.


def dense_model_operators(pair, n: int) -> list[np.ndarray]:
    """The M x M Toeplitz matrices of G1* + G2 z, G2* + G1 z and z I on degrees 0..n."""
    g1, g2 = pair.F1, pair.F2
    eye = np.eye(g1.shape[0])
    coeffs = ((g1.conj().T, g2), (g2.conj().T, g1), (0.0 * eye, eye))
    return [toeplitz(AnalyticSymbol((c0, c1)), n) for c0, c1 in coeffs]


def spectral_kernel_gap(w, t) -> float:
    """Gap between range(W) and the span of the dim H = W.shape[1] trailing left
    singular vectors of one full SVD of T, the dense construction of H_P."""
    u = np.linalg.svd(t)[0]
    dim = w.shape[1]
    return subspace_gap(range_basis(w), u[:, len(u) - dim :])


def dense_coinvariance(model, pair_g) -> dict[str, tuple[float, float]]:
    """(||(I - q) X* q||, ||X||) per model operator X, q the projection onto range(W)."""
    q = projector(range_basis(model.W))
    eye = np.eye(q.shape[0])
    ops = zip("ABP", dense_model_operators(pair_g, model.N))
    return {name: (op_norm((eye - q) @ x.conj().T @ q), op_norm(x)) for name, x in ops}


def dense_pencil_on_model(triple, model, pair_g) -> dict[str, tuple[float, float]]:
    """(||(I - q_H) X W_iso||, ||X||) per model operator X, q_H the projection onto H_P."""
    qh = projector(model.h_basis)
    eye = np.eye(qh.shape[0])
    w_iso = model.W @ range_complement(triple.dp.basis)
    ops = zip("ABP", dense_model_operators(pair_g, model.N))
    return {name: (op_norm((eye - qh) @ x @ w_iso), op_norm(x)) for name, x in ops}


def dense_intertwine(model, model_prime, u_star, pair_g, pair_g_prime) -> dict[str, tuple[float, float]]:
    """(||q_H' U X q_H - q_H' X' q_H' U q_H||, max(||X||, ||X'||)) per pair of
    model operators: U = I (x) u*, q_H and q_H' the projections onto H_P and
    H_P', X and X' the Toeplitz matrices of G1* + G2 z, G2* + G1 z and z I."""
    big = np.kron(np.eye(model.N + 1), u_star)
    qh, qh_p = projector(model.h_basis), projector(model_prime.h_basis)
    ops, ops_p = dense_model_operators(pair_g, model.N), dense_model_operators(pair_g_prime, model.N)
    return {
        name: (op_norm(qh_p @ big @ qh @ x @ qh - qh_p @ x_p @ qh_p @ big @ qh), max(op_norm(x), op_norm(x_p)))
        for name, x, x_p in zip("ABP", ops, ops_p)
    }


def perturbed(pair, rng):
    """``pair`` with F1, F2 moved by 0.1 in norm: the model residuals become O(0.1)."""

    def moved(f):
        e = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
        return f + 0.1 * e / op_norm(e)

    return dataclasses.replace(pair, F1=moved(pair.F1), F2=moved(pair.F2))


def assert_residuals_match(entries: dict[str, float], dense: dict[str, tuple[float, float]], prefix: str):
    """Each ``entries[prefix + name]`` equals its dense value within 1e-13 (1 + ||X||)."""
    for name, (value, scale) in dense.items():
        assert abs(entries[prefix + name] - value) <= 1e-13 * (1.0 + scale), (prefix + name, value)


# Dense dim x dim formulas of the defect-space residuals, F and G embedded
# as Q F Q* and Q_* G Q_*^*: the package applies the factors D_P Q and
# D_{P*} Q_* the triple keeps, and must agree with these to rounding.


def defect_outside_basis_triples() -> list[TetrablockTriple]:
    """Triples whose D_P and D_{P*} have the eigenvalue 1e-5 (I - P*P has
    1e-10, between CLAMP_TOL and RANK_TOL) outside their range bases Q, Q_*:
    a residual that projected D_P onto range(Q) would move by O(1e-5) here.
    The first is diagonal with A, B != 0; in the second P = U diag(0.6, p)
    turns Q_* away from Q, so D_P Q_* has a part outside range(Q)."""
    p2 = np.sqrt(1.0 - 1e-10)
    c, s = np.cos(0.7), np.sin(0.7)
    return [
        validate(np.diag([0.3, 0.5 * p2]), np.diag([0.2, 0.5]), np.diag([0.6, p2])),
        p_triple(np.array([[c, -s], [s, c]]) @ np.diag([0.6, p2])),
    ]


def embedded(pair) -> list[np.ndarray]:
    """Q F1 Q* and Q F2 Q*, Q the basis of ``pair``."""
    q = pair.basis.basis
    return [q @ f @ q.conj().T for f in (pair.F1, pair.F2)]


def dense_solve_residual(triple, pair) -> float:
    """max_i ||D_P (Q F_i Q*) D_P - R_i||, R_1 = A - B*P, R_2 = B - A*P."""
    a, b, p, dp = triple.A, triple.B, triple.P, triple.dp.op
    rhs = a - b.conj().T @ p, b - a.conj().T @ p
    return max(op_norm(dp @ f @ dp - r) for f, r in zip(embedded(pair), rhs))


def dense_fundamental(triple, pair_f, pair_g) -> dict[str, tuple[float, float]]:
    """(residual, scale) of the characterization, the Gramian difference and
    the six cross relations, the scale the largest operand norm."""
    f1, f2 = embedded(pair_f)
    g1, g2 = embedded(pair_g)
    a, b, p = triple.A, triple.B, triple.P
    dp, ds = triple.dp.op, triple.dpstar.op
    qp, qs = pair_f.basis.basis, pair_g.basis.basis
    ph = p.conj().T
    scale = max(triple.max_norm(), *pair_f.norms, *pair_g.norms)
    residuals = {
        "defect_intertwine_A": dp @ a - (f1 @ dp + f2.conj().T @ dp @ p),
        "defect_intertwine_B": dp @ b - (f2 @ dp + f1.conj().T @ dp @ p),
        "gramian_difference": a.conj().T @ a - b.conj().T @ b - dp @ (f1.conj().T @ f1 - f2.conj().T @ f2) @ dp,
        "mixed_defect_1": (dp @ f1 - (a @ dp - ds @ g2 @ p)) @ qp,
        "mixed_defect_2": (dp @ f2 - (b @ dp - ds @ g1 @ p)) @ qp,
        "cross_P_F1": (p @ f1 - g1.conj().T @ p) @ qp,
        "cross_P_F2": (p @ f2 - g2.conj().T @ p) @ qp,
        "product_rel_1": (f1.conj().T @ dp @ ds - f2 @ ph - (dp @ ds @ g1 - ph @ g2.conj().T)) @ qs,
        "product_rel_2": (f2.conj().T @ dp @ ds - f1 @ ph - (dp @ ds @ g2 - ph @ g1.conj().T)) @ qs,
    }
    return {name: (op_norm(r), scale) for name, r in residuals.items()}


def symbol_product(s1: AnalyticSymbol, s2: AnalyticSymbol, max_degree: int | None = None) -> AnalyticSymbol:
    """Cauchy product s1(z) s2(z), optionally truncated at max_degree: the
    oracle of the Toeplitz-multiplicativity tests."""
    if s1.d_in != s2.d_out:
        raise ShapeError(f"cannot compose {s1.d_out}x{s1.d_in} with {s2.d_out}x{s2.d_in}")
    deg = s1.degree + s2.degree
    if max_degree is not None:
        deg = min(deg, max_degree)
    out = [np.zeros((s1.d_out, s2.d_in), dtype=complex) for _ in range(deg + 1)]
    for i, a in enumerate(s1.coeffs):
        for j, b in enumerate(s2.coeffs):
            if i + j <= deg:
                out[i + j] += a @ b
    return AnalyticSymbol(tuple(out))


def symbol_at(sym: AnalyticSymbol, z: complex) -> np.ndarray:
    """sum_k coeffs[k] z^k by Horner's rule: the value of ``sym`` at z."""
    acc = np.zeros_like(sym.coeffs[0])
    for c in reversed(sym.coeffs):
        acc = acc * z + c
    return acc


def kernel_identity_check(triple: TetrablockTriple, z: complex, w: complex) -> float:
    """Residual of the reproducing-kernel identity on the defect space of P*:

        I - Theta_P(w) Theta_P(z)* =
            (1 - w conj(z)) D_{P*} (I - w P*)^{-1} (I - conj(z) P)^{-1} D_{P*},

    on the thin factor D_{P*} Q_* of the triple.  ``theta_eval`` refuses a
    singular I - w P* or I - z P*; the latter is the adjoint of
    I - conj(z) P, so both resolvents below exist.
    """
    z, w = complex(z), complex(w)
    tw, tz = theta_eval(triple, (w, z))
    p, dsq = triple.P, triple.dpstar.factor
    n = p.shape[0]
    lhs = np.eye(dsq.shape[1]) - tw @ tz.conj().T
    res_w = np.eye(n) - w * p.conj().T
    res_z = np.eye(n) - np.conj(z) * p
    core = dsq.conj().T @ np.linalg.solve(res_w, np.linalg.solve(res_z, dsq))
    return op_norm(lhs - (1.0 - w * np.conj(z)) * core)


def dense_theta(triple, z: complex) -> np.ndarray:
    """Q_*^* (-P + z D_{P*} (I - z P*)^{-1} D_P) Q."""
    p = triple.P
    middle = -p + z * (triple.dpstar.op @ np.linalg.solve(np.eye(len(p)) - z * p.conj().T, triple.dp.op))
    return triple.dpstar.basis.conj().T @ middle @ triple.dp.basis


def dense_kernel_identity(triple, z: complex, w: complex) -> float:
    """||I - Theta(w) Theta(z)* - (1 - w conj(z)) Q_*^* D_{P*} (I - w P*)^{-1} (I - conj(z) P)^{-1} D_{P*} Q_*||."""
    p, ds, qs = triple.P, triple.dpstar.op, triple.dpstar.basis
    eye = np.eye(len(p))
    core = ds @ np.linalg.solve(eye - w * p.conj().T, np.linalg.solve(eye - np.conj(z) * p, ds))
    lhs = np.eye(qs.shape[1]) - dense_theta(triple, w) @ dense_theta(triple, z).conj().T
    return op_norm(lhs - (1.0 - w * np.conj(z)) * (qs.conj().T @ core @ qs))


# The loops the package replaced by stacked calls, kept as oracles: under
# one BLAS thread a stacked LAPACK call gives each member the bits it gets
# alone, so the package must agree with these bit for bit.


def power_norms_one_at_a_time(p) -> list[float]:
    """||P||, ||P^2||, ... by one ``op_norm`` per power, up to (and including)
    the first <= ``charfn.POWER_CUTOFF``; TetralabError after
    ``charfn.MAX_POWERS`` powers (both read at call time)."""
    norms, m = [], p
    for _ in range(charfn.MAX_POWERS):
        norms.append(op_norm(m))
        if norms[-1] <= charfn.POWER_CUTOFF:
            return norms
        m = m @ p
    raise TetralabError(f"||P^k|| still {norms[-1]:.3e} after {charfn.MAX_POWERS} powers; P decays too slowly")


def theta_eval_per_point(triple, points) -> list[np.ndarray]:
    """``charfn.theta_eval`` with one solve (and, where Weyl's bounds leave
    the CLAMP_TOL test open, one SVD) per point."""
    p, dq, dsq = triple.P, triple.dp.factor, triple.dpstar.factor
    theta_0 = -(triple.dpstar.basis.conj().T @ (p @ triple.dp.basis))
    eye = np.eye(p.shape[0])
    s = triple.norm("P") * (1 + 1e-12)
    out = []
    for z in points:
        z = complex(z)
        res = eye - z * p.conj().T
        if not 1.0 - abs(z) * s > CLAMP_TOL * (1.0 + abs(z) * s):
            sv = np.linalg.svd(res, compute_uv=False)
            if sv[-1] <= CLAMP_TOL * max(1.0, sv[0]):
                raise ResolventSingularError(f"I - z P* singular at z = {z!r}")
        out.append(theta_0 + z * (dsq.conj().T @ np.linalg.solve(res, dq)))
    return out


def toeplitz_slice_loop(sym: AnalyticSymbol, n: int) -> np.ndarray:
    """``hardy.toeplitz`` filled one block slice at a time."""
    d_out, d_in = sym.d_out, sym.d_in
    t = np.zeros(((n + 1) * d_out, (n + 1) * d_in), dtype=complex)
    for j, c in enumerate(sym.coeffs[: n + 1]):
        for m in range(j, n + 1):
            t[m * d_out : (m + 1) * d_out, (m - j) * d_in : (m - j + 1) * d_in] = c
    return t
