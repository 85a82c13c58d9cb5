"""Property checks over random contractions, drawn by hypothesis.

``TetrablockTriple.adjoint`` swaps the cached defect data instead of
recomputing it, and every Theta_{P*} in the package is computed from that
swapped data.  This is sound only if the swap equals a fresh validation of
P* bit for bit, which is checked here over contractions of dimension 1-8:
generic, nilpotent, unitary, zero and scalar multiples of the identity.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import fields_equal, p_triple  # noqa: E402

KINDS = ("generic", "nilpotent", "unitary", "zero", "scalar")


def contraction(kind: str, dim: int, seed: int, norm: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if kind == "zero":
        return np.zeros((dim, dim), dtype=complex)
    if kind == "scalar":
        return norm * np.exp(2j * np.pi * rng.uniform()) * np.eye(dim)
    if kind == "unitary":
        return np.linalg.qr(m)[0]
    if kind == "nilpotent":
        m = np.triu(m, 1)
        if not m.any():  # dimension 1: the only nilpotent is zero
            return m
    return norm * m / np.linalg.norm(m, 2)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    norm=st.floats(0.05, 1.0),
)
def test_adjoint_equals_validation_of_the_adjoint(kind, dim, seed, norm):
    p = contraction(kind, dim, seed, norm)
    assert fields_equal(p_triple(p).adjoint(), p_triple(p.conj().T))
