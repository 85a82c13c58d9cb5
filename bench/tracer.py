"""In-process tracer for tetralab, installed from outside the package.

It replaces every public function of the traced modules with a wrapper that
records a span (function, start, end, parent span, instance label), and every
``numpy.linalg`` entry point the package calls with a counter.  Nothing under
``src/`` is edited: wrappers are rebound in each module namespace that holds
the original function object, because modules import each other's functions
by name (``from .matcore import op_norm``) and patching the defining module
alone would miss those call sites.

Leaf ``numpy.linalg`` calls are not spans.  There are about 180k of them in
one 50-instance suite, so their count, matrices processed, shape-derived work
and time are added to the enclosing span and to per-kind totals instead.

Spans stay in memory until the traced call ends; then ``summary`` turns them
into per-layer figures and ``spans_table`` gives them for writing out.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import sys
import time

import numpy as np

PACKAGE = "tetralab"

# The layers are the package modules; ``linalg`` is numpy.linalg seen from
# outside.  ``report`` has no public functions, so it is not a layer.
LAYERS = (
    "cli",
    "generate",
    "triples",
    "fundamental",
    "charfn",
    "blh",
    "invariants",
    "bidisc",
    "matcore",
    "hardy",
    "io",
)

# Functions whose inputs are hashed to measure repeated work.
DISTINCT = (
    "fundamental.solve_fundamental",
    "charfn.build_model",
    "matcore.defect",
    "triples.is_pure",
)

# Spans of this function carry the label of the instance they ran on.
INSTANCE = "cli.run_instance_battery"

# Decompositions: each matrix of a stacked input counts once.
DECOMPS = ("svd", "eigh", "eigvalsh", "eigvals", "norm2")
# Every numpy.linalg entry point the package calls; the others are timed only.
LINALG_FUNCS = ("svd", "eigh", "eigvalsh", "eigvals", "norm", "solve", "lstsq", "qr", "matrix_power")
LINALG_KINDS = DECOMPS + ("solve", "other")

# Span record fields (a list per span, for speed).  LIN_N and LIN_S are the
# numpy.linalg calls made directly by the span and the time they took.
FIELDS = ("fid", "start", "end", "parent", "label", "linalg_calls", "linalg_s")
FID, START, END, PARENT, LABEL, LIN_N, LIN_S = range(len(FIELDS))


def linalg_kind(name: str, args: tuple, kwargs: dict) -> tuple[str, int, float]:
    """Classify one numpy.linalg call as (kind, matrices, work).

    ``matrices`` is the batch size of a stacked input.  ``work`` is n^3 per
    matrix, min(m, n)^2 * max(m, n) for a singular-value decomposition, and
    is computed from shapes, not measured.  ``norm`` counts as a
    decomposition only for the spectral norm of a matrix; the Frobenius and
    vector norms are ``other``.
    """
    a = np.asarray(args[0]) if args else None
    if name == "norm":
        order = args[1] if len(args) > 1 else kwargs.get("ord")
        if order != 2 or a.ndim < 2:
            return "other", 1, 0.0
        name = "norm2"
    if name not in DECOMPS and name != "solve":
        return "other", 1, 0.0
    m, n = a.shape[-2], a.shape[-1]
    batch = int(np.prod(a.shape[:-2], dtype=np.int64)) if a.ndim > 2 else 1
    if name == "solve":
        return "solve", batch, 0.0
    lo, hi = min(m, n), max(m, n)
    return name, batch, float(batch) * lo * lo * hi


def arg_key(args: tuple, kwargs: dict) -> bytes:
    """Hash of a call's arguments: array bytes, dataclass fields, reprs."""
    h = hashlib.blake2b(digest_size=16)

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(f"{obj.shape}{obj.dtype.str}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            h.update(type(obj).__name__.encode())
            for f in dataclasses.fields(obj):
                feed(getattr(obj, f.name))
        elif isinstance(obj, (list, tuple)):
            h.update(b"[")
            for x in obj:
                feed(x)
            h.update(b"]")
        else:
            h.update(repr(obj).encode())
        h.update(b"|")

    feed(args)
    feed(sorted(kwargs.items()))
    return h.digest()


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the time its child spans
    cover.  Spans run on one thread, so children of one parent never overlap.
    The numpy.linalg calls a span makes are not spans, so their time is part
    of its self time."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def outermost(spans: list[list]) -> list[bool]:
    """True for spans with no ancestor of the same function, so that the
    inclusive time of a recursive function is not counted twice."""
    out = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][FID] != s[FID]:
            p = spans[p][PARENT]
        out.append(p < 0)
    return out


class Tracer:
    """Spans and counters for one traced process; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.label: str | None = None
        self.linalg = {k: [0, 0, 0.0, 0.0] for k in LINALG_KINDS}  # calls, matrices, work, s
        self.keys: dict[int, set] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keys = self.keys.setdefault(fid, set()) if name in DISTINCT else None
        labelled = name == INSTANCE
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(arg_key(args, kwargs))
            saved = tracer.label
            if labelled and args:
                tracer.label = getattr(args[0], "label", saved)
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, tracer.label, 0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                tracer.label = saved

        return wrapper

    def _linalg_wrapper(self, name: str, fn):
        spans, stack, clock, totals = self.spans, self.stack, time.perf_counter, self.linalg

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                kind, matrices, work = linalg_kind(name, args, kwargs)
                tot = totals[kind]
                tot[0] += 1
                tot[1] += matrices
                tot[2] += work
                tot[3] += dt
                if stack:
                    parent = spans[stack[-1]]
                    parent[LIN_N] += 1
                    parent[LIN_S] += dt

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers=LAYERS) -> None:
        """Wrap the public functions of ``layers`` and the linalg entry points."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in layers}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in sorted(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = (obj, self._span_wrapper(f"{layer}.{attr}", obj))
        package_modules = [
            m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")
        ]
        for mod in package_modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for name in LINALG_FUNCS:
            self._set(np.linalg, name, self._linalg_wrapper(name, getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------

    def spans_table(self) -> dict:
        """Every span as a row of FIELDS; ``fid`` indexes ``names`` and
        ``parent`` indexes the rows (-1 for a root)."""
        return {"names": self.names, "fields": FIELDS, "spans": self.spans}

    def summary(self) -> dict[str, dict]:
        """Per-layer and per-function figures from the spans.

        ``counts`` repeat exactly for the same input, ``times`` do not, and
        ``instances`` lists (label, seconds) for each span of ``INSTANCE``.
        ``*.calls`` counts spans, ``*.self_s`` sums self times, ``*.total_s``
        sums the durations of outermost spans, and ``*.linalg_s`` is the
        numpy.linalg time a layer's spans spent directly.
        """
        spans = self.spans
        selfs = self_times(spans)
        outer = outermost(spans)
        n = len(self.names)
        calls = [0] * n
        self_s = [0.0] * n
        total_s = [0.0] * n
        lin_n = [0] * n
        lin_s = [0.0] * n
        instances: list[tuple[str, float]] = []
        for s, st, top in zip(spans, selfs, outer):
            f = s[FID]
            calls[f] += 1
            self_s[f] += st
            lin_n[f] += s[LIN_N]
            lin_s[f] += s[LIN_S]
            if self.names[f] == INSTANCE:
                instances.append((s[LABEL], s[END] - s[START]))
            if top:
                total_s[f] += s[END] - s[START]
        counts: dict[str, float] = {}
        times: dict[str, float] = {}
        for layer in LAYERS:
            counts[f"{layer}.calls"] = 0
            counts[f"{layer}.linalg_calls"] = 0
            times[f"{layer}.self_s"] = 0.0
            times[f"{layer}.linalg_s"] = 0.0
        for f, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            counts[f"{layer}.calls"] += calls[f]
            counts[f"{layer}.linalg_calls"] += lin_n[f]
            times[f"{layer}.self_s"] += self_s[f]
            times[f"{layer}.linalg_s"] += lin_s[f]
            counts[f"{name}.calls"] = calls[f]
            times[f"{name}.self_s"] = self_s[f]
            times[f"{name}.total_s"] = total_s[f]
            if f in self.keys:
                counts[f"{name}.distinct_frac"] = len(self.keys[f]) / calls[f] if calls[f] else 0.0
        lin = self.linalg
        counts["linalg.calls"] = sum(v[0] for v in lin.values())
        times["linalg.self_s"] = sum(v[3] for v in lin.values())
        for kind in DECOMPS + ("solve",):
            counts[f"linalg.{kind}"] = lin[kind][1]
        counts["linalg.decomps"] = sum(lin[k][1] for k in DECOMPS)
        counts["linalg.work_n3"] = sum(lin[k][2] for k in DECOMPS)
        counts["trace.spans"] = len(spans)
        return {"counts": counts, "times": times, "instances": instances}
