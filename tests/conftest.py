"""Shared fixtures: deterministic RNG streams, cached instance suites, the
triple of a bare contraction, a field-by-field equality, a call counter and
watches on ``numpy.linalg``."""

from __future__ import annotations

import collections
import dataclasses
import sys

import numpy as np
import pytest

from tetralab import generate
from tetralab.matcore import DEFAULT_POLICY
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


def p_triple(p) -> TetrablockTriple:
    """The validated triple (0, 0, P): the defect data of a bare contraction P."""
    zero = np.zeros(np.shape(p))
    return validate(zero, zero, p)


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


def watch_decompositions(monkeypatch) -> tuple[collections.Counter, list]:
    """Watch the SVDs, Hermitian eigensolvers and spectral norms of numpy.linalg.

    Returns ``(calls, zeros)``: ``calls[name, caller]`` counts the calls of
    ``name`` made directly by the function named ``caller``, and ``zeros``
    gets ``(name, caller, shape)`` for each all-zero (or empty) matrix one of
    them is handed, once per matrix of a stacked operand.
    """
    calls, zeros = collections.Counter(), []

    def watching(name, fn):
        def wrapper(a, *args, **kwargs):
            arr = np.asarray(a)
            spectral = name != "norm" or (args[:1] or [kwargs.get("ord")])[0] == 2
            if spectral and arr.ndim >= 2:
                caller = sys._getframe(1).f_code.co_name
                calls[name, caller] += 1
                zeros.extend([(name, caller, arr.shape)] * int(np.sum(~arr.any(axis=(-2, -1)))))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "eigh", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, watching(name, getattr(np.linalg, name)))
    return calls, zeros
