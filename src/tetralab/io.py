"""JSON interchange for matrices, triples and symbols, and canonical JSON text.

A complex matrix is carried as ``{"rows": r, "cols": c, "data": [[re, im],
...]}`` with ``data`` flat in row-major order.  Values are plain JSON floats,
which round-trip binary64 exactly, so write-then-read reproduces arrays
bit for bit.  Non-finite entries are rejected on both paths.  ``dumps``
writes the canonical text of report bundles: sorted keys and no NaN or
infinity tokens (reports encode non-finite residuals as strings first).
"""

from __future__ import annotations

import json
from typing import Any, IO

import numpy as np

from .hardy import AnalyticSymbol
from .matcore import DEFAULT_POLICY, TetralabError, TolerancePolicy, ensure_matrix
from .triples import TetrablockTriple, validate

__all__ = [
    "FormatError",
    "matrix_to_obj",
    "matrix_from_obj",
    "triple_to_obj",
    "triple_from_obj",
    "symbol_to_obj",
    "symbol_from_obj",
    "dumps",
    "loads",
    "load",
]


class FormatError(TetralabError):
    """Malformed or non-finite serialized object."""


def matrix_to_obj(m) -> dict[str, Any]:
    m = ensure_matrix(m, name="matrix")
    rows, cols = m.shape
    flat = m.reshape(-1)
    return {
        "rows": int(rows),
        "cols": int(cols),
        "data": [[float(v.real), float(v.imag)] for v in flat],
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError(f"matrix object must be a dict, got {type(obj).__name__}")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise FormatError(f"matrix object missing field: {exc}") from exc
    if not all(isinstance(d, int) and not isinstance(d, bool) for d in (rows, cols)):
        raise FormatError(f"matrix dimensions must be integers, got rows={rows!r}, cols={cols!r}")
    if rows < 0 or cols < 0:
        raise FormatError("matrix dimensions must be non-negative")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(
            f"matrix data length {len(data) if isinstance(data, list) else '?'} "
            f"does not match {rows}x{cols}"
        )
    out = np.zeros(rows * cols, dtype=complex)
    for k, entry in enumerate(data):
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise FormatError(f"matrix entry {k} must be a [re, im] pair of numbers")
        try:
            re, im = float(entry[0]), float(entry[1])
        except OverflowError as exc:  # a JSON integer past the binary64 range
            raise FormatError(f"matrix entry {k} is too large for a binary64 float") from exc
        if not (np.isfinite(re) and np.isfinite(im)):
            raise FormatError(f"matrix entry {k} is not finite")
        out[k] = complex(re, im)
    return out.reshape(rows, cols)


def triple_to_obj(triple: TetrablockTriple) -> dict[str, Any]:
    return {
        "A": matrix_to_obj(triple.A),
        "B": matrix_to_obj(triple.B),
        "P": matrix_to_obj(triple.P),
    }


def triple_from_obj(obj, pol: TolerancePolicy = DEFAULT_POLICY) -> TetrablockTriple:
    if not isinstance(obj, dict) or not {"A", "B", "P"} <= set(obj):
        raise FormatError('triple object must contain keys "A", "B", "P"')
    return validate(
        matrix_from_obj(obj["A"]),
        matrix_from_obj(obj["B"]),
        matrix_from_obj(obj["P"]),
        pol,
    )


def symbol_to_obj(sym: AnalyticSymbol) -> dict[str, Any]:
    return {"coeffs": [matrix_to_obj(c) for c in sym.coeffs]}


def symbol_from_obj(obj) -> AnalyticSymbol:
    if not isinstance(obj, dict) or "coeffs" not in obj or not isinstance(obj["coeffs"], list):
        raise FormatError('symbol object must contain a list field "coeffs"')
    if not obj["coeffs"]:
        raise FormatError("symbol object must have at least one coefficient")
    return AnalyticSymbol(tuple(matrix_from_obj(c) for c in obj["coeffs"]))


def dumps(obj: Any) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from exc


def load(fp: IO[str]) -> Any:
    return loads(fp.read())
