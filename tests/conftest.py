"""Shared fixtures: deterministic RNG streams, cached instance suites and a
call counter."""

from __future__ import annotations

import sys

import numpy as np
import pytest

from tetralab import generate
from tetralab.matcore import DEFAULT_POLICY


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
