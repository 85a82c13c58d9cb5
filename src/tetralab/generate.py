"""Deterministic random families of commuting contractive triples.

Three constructions, each reproducible from (seed, index) via a
counter-based Philox stream so suites are stable across runs and platforms.
``_rng`` is the only place that derives a stream; ``make_instance`` the only
place that builds an ``Instance``:

* ``symbols``      -- degree-one pencils over a commuting coefficient pair
                      (normal pair, or a non-normal twisted pair F2 =
                      exp(i gamma) F1 + delta I); the triple is the pencil
                      compression on a truncated vector Hardy grid.
* ``compressions`` -- the bidisc shift triple compressed to a random
                      staircase (down-closed) co-invariant subspace, then
                      conjugated by a random unitary.  Exactly nilpotent.
* ``scalars``      -- diagonal triples with entries obtained by scaling
                      points (x1, x2, x3), x1 = conj(x2) x3, |x3| = 1, to
                      (r x1, s x2, r s x3); conjugated by a random unitary.
                      P is invertible, which exercises converse statements.

Every triple is validated under ``DEFAULT_POLICY``: a verification
tolerance moves only the bar the checks apply, never which instances exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import bidisc
from .matcore import op_norm
from .triples import TetrablockTriple, from_symbols, validate

__all__ = [
    "FAMILIES",
    "Instance",
    "random_unitary",
    "companion_unitary",
    "symbol_pair",
    "make_instance",
    "suite",
]

FAMILIES = ("symbols", "compressions", "scalars")
_FAMILY_CODE = {name: k for k, name in enumerate(FAMILIES)}


@dataclass(frozen=True)
class Instance:
    """One generated triple plus provenance needed to reproduce it."""

    family: str
    index: int
    seed: int
    triple: TetrablockTriple
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.family}[{self.index}]"


def _rng(seed: int, family: str, index: int, *stream: int) -> np.random.Generator:
    """The one stream rule: Philox keyed by (seed, family, index), plus
    ``stream`` for a side stream of the same instance."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_FAMILY_CODE[family], int(index), *stream))
    return np.random.Generator(np.random.Philox(ss))


def companion_unitary(inst: Instance, dim: int) -> np.ndarray:
    """Deterministic unitary tied to (seed, family, index) on side stream 1.

    Independent of the draws that built the instance itself, so adding or
    removing battery steps never changes the generated triples.
    """
    return random_unitary(_rng(inst.seed, inst.family, inst.index, 1), dim)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[np.abs(d) < 1e-12] = 1.0
    return q * (d / np.abs(d))


def symbol_pair(
    rng: np.random.Generator, dim: int, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Commuting coefficient pair with sup-norm of the pencil below 0.95.

    ``kind="normal"``: simultaneously unitarily diagonalizable pair with
    |d1_k| + |d2_k| <= 0.95, so both coefficients are normal.
    ``kind="twisted"``: F2 = exp(i gamma) F1 + delta I for a non-normal F1;
    the commutator [F1, F1*] - [F2, F2*] still vanishes identically.
    """
    if kind == "normal":
        v = random_unitary(rng, dim)
        r1 = rng.uniform(0.05, 0.9, size=dim)
        r2 = rng.uniform(0.05, 0.9, size=dim)
        total = r1 + r2
        scale = 0.95 * rng.uniform(0.6, 1.0, size=dim) / total
        d1 = r1 * scale * np.exp(2j * np.pi * rng.uniform(size=dim))
        d2 = r2 * scale * np.exp(2j * np.pi * rng.uniform(size=dim))
        f1 = v @ np.diag(d1) @ v.conj().T
        f2 = v @ np.diag(d2) @ v.conj().T
        return f1, f2
    if kind == "twisted":
        f1 = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        f1 /= max(op_norm(f1), 1e-12)
        gamma = rng.uniform(0.0, 2.0 * np.pi)
        delta = 0.4 * (rng.standard_normal() + 1j * rng.standard_normal())
        f2 = np.exp(1j * gamma) * f1 + delta * np.eye(dim)
        s = 0.95 / (op_norm(f1) + op_norm(f2))
        return s * f1, s * f2
    raise ValueError(f"unknown symbol pair kind {kind!r}")


def _symbols(rng: np.random.Generator, index: int, dim: int, degree: int) -> tuple[TetrablockTriple, dict]:
    """Pencil-compression triple on a degree-``degree`` grid with ``dim``
    fibers: a normal pair at even ``index``, a twisted pair at odd."""
    f1, f2 = symbol_pair(rng, max(1, dim), "normal" if index % 2 == 0 else "twisted")
    return from_symbols(f1, f2, degree), {"f1": f1, "f2": f2, "degree": degree}


def _compressions(rng: np.random.Generator, dim: int) -> tuple[TetrablockTriple, dict]:
    """Staircase compression of the grid shifts, in a scrambled basis.

    ``dim`` is a target: the grid size is chosen with (n+1)^2 close to it and
    the staircase keeps a random down-closed subset of n + 1 columns, each
    of height at least 1.
    """
    n = max(2, int(round(np.sqrt(max(dim, 9)))) - 1)
    heights = np.sort(rng.integers(1, n + 2, size=n + 1))[::-1]
    # the staircase is down-closed, so its span is invariant under A*, B*
    # and P*, and the compression of a grid operator X is the block X[S, S]
    keep = [bidisc.flat_index(n, i, j) for i in range(n + 1) for j in range(int(heights[i]))]
    block = np.ix_(keep, keep)
    v = random_unitary(rng, len(keep))
    triple = validate(*(v @ x[block] @ v.conj().T for x in bidisc.shifts(n)))
    return triple, {"grid": n, "heights": [int(h) for h in heights]}


def _scalars(rng: np.random.Generator, dim: int) -> tuple[TetrablockTriple, dict]:
    """Diagonal triple from scaled boundary-type points, in a scrambled basis.

    Entrywise: a = r rho exp(i(theta-phi)), b = s rho exp(i phi),
    p = r s exp(i theta) with rho <= 1 and r s <= 0.6, so P is invertible
    and every defect is well conditioned.
    """
    dim = max(1, dim)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    rho = rng.uniform(0.2, 1.0, size=dim)
    r = rng.uniform(0.3, 0.95, size=dim)
    s = rng.uniform(0.3, 0.95, size=dim)
    s = s * np.minimum(1.0, 0.6 / (r * s))
    a = r * rho * np.exp(1j * (theta - phi))
    b = s * rho * np.exp(1j * phi)
    p = r * s * np.exp(1j * theta)
    v = random_unitary(rng, dim)
    return validate(*(v @ np.diag(x) @ v.conj().T for x in (a, b, p))), {}


def make_instance(family: str, seed: int, index: int, dim: int, degree: int) -> Instance:
    """Instance ``index`` of ``family`` under ``seed``, built from its own stream."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    rng = _rng(seed, family, index)
    if family == "symbols":
        triple, meta = _symbols(rng, index, dim, degree)
    elif family == "compressions":
        triple, meta = _compressions(rng, dim)
    else:
        triple, meta = _scalars(rng, dim)
    return Instance(family=family, index=index, seed=seed, triple=triple, meta=meta)


def suite(seed: int, count: int, dim: int, degree: int) -> list[Instance]:
    """Round-robin over the families, ``count`` instances in total."""
    out = []
    for k in range(count):
        family = FAMILIES[k % len(FAMILIES)]
        out.append(make_instance(family, seed, k // len(FAMILIES), dim, degree))
    return out
