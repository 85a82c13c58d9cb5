"""JSON interchange: bit-exact round-trips and rejection of malformed input."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tetralab import io
from tetralab.generate import make_instance
from tetralab.hardy import AnalyticSymbol
from tetralab.report import CheckReport


def test_matrix_roundtrip_is_bit_exact(rng):
    m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    # through the object layer
    back = io.matrix_from_obj(io.matrix_to_obj(m))
    assert np.array_equal(back, m)
    # and through actual JSON text: binary64 round-trips via repr
    back2 = io.matrix_from_obj(json.loads(io.dumps(io.matrix_to_obj(m))))
    assert np.array_equal(back2, m)


def test_empty_matrix_roundtrip():
    m = np.zeros((0, 3), dtype=complex)
    back = io.matrix_from_obj(io.matrix_to_obj(m))
    assert back.shape == (0, 3)


@pytest.mark.parametrize(
    "obj",
    [
        "not a dict",
        {},
        {"rows": 2, "cols": 2},
        {"rows": 2, "cols": 2, "data": [[1.0, 0.0]]},  # wrong length
        {"rows": -1, "cols": 2, "data": []},
        {"rows": 1, "cols": 1, "data": [[1.0]]},  # missing imag part
        {"rows": 1, "cols": 1, "data": [[True, False]]},  # bools are not floats
        {"rows": 1, "cols": 1, "data": [["1.0", "0.0"]]},
        {"rows": 1.9, "cols": True, "data": [[1.0, 0.0]]},  # dimensions are JSON integers
        {"rows": "1", "cols": 1, "data": [[1.0, 0.0]]},
        {"rows": 1, "cols": 1.0, "data": [[1.0, 0.0]]},
    ],
)
def test_malformed_matrix_rejected(obj):
    with pytest.raises(io.FormatError):
        io.matrix_from_obj(obj)


def test_nonfinite_rejected_on_both_paths():
    with pytest.raises(Exception):
        io.matrix_to_obj(np.array([[np.nan]]))
    with pytest.raises(io.FormatError):
        io.matrix_from_obj({"rows": 1, "cols": 1, "data": [[float("inf"), 0.0]]})


def test_integer_past_binary64_range_rejected():
    # JSON integers are unbounded; one that no float holds is malformed
    # input, not an OverflowError
    for entry in ([10**400, 0], [0, -(10**400)]):
        with pytest.raises(io.FormatError, match="matrix entry 0 is too large"):
            io.matrix_from_obj(io.loads(json.dumps({"rows": 1, "cols": 1, "data": [entry]})))


def test_triple_roundtrip_revalidates():
    inst = make_instance("scalars", seed=53, index=0, dim=6, degree=4)
    obj = io.triple_to_obj(inst.triple)
    back = io.triple_from_obj(obj)
    assert np.array_equal(back.A, inst.triple.A)
    assert np.array_equal(back.P, inst.triple.P)
    # tampering with one operator breaks commutativity and is caught on load
    obj_bad = io.triple_to_obj(inst.triple)
    m = io.matrix_from_obj(obj_bad["A"])
    m[0, 1] += 0.3
    obj_bad["A"] = io.matrix_to_obj(m)
    with pytest.raises(Exception):
        io.triple_from_obj(obj_bad)


def test_triple_requires_all_three_operators():
    inst = make_instance("scalars", seed=53, index=1, dim=6, degree=4)
    obj = io.triple_to_obj(inst.triple)
    del obj["B"]
    with pytest.raises(io.FormatError):
        io.triple_from_obj(obj)


def test_symbol_roundtrip(rng):
    sym = AnalyticSymbol(tuple(rng.standard_normal((2, 2)) + 0j for _ in range(3)))
    back = io.symbol_from_obj(io.symbol_to_obj(sym))
    assert back.degree == sym.degree
    for a, b in zip(back.coeffs, sym.coeffs):
        assert np.array_equal(a, b)


def test_report_serialization_shape():
    rep = CheckReport(title="demo")
    rep.check("alpha", 1e-12, 1e-10)
    rep.skip("beta", "because")
    obj = rep.to_dict()
    assert obj["title"] == "demo"
    assert obj["overall"] is True
    assert [e["name"] for e in obj["entries"]] == ["alpha", "beta"]
    assert obj["entries"][1]["skipped"] is True


def test_report_non_finite_numbers_become_strings():
    # failure paths record infinite residuals; the bundle must stay valid
    # JSON, and finite numbers must keep their float form
    rep = CheckReport(title="demo")
    rep.check("inf", float("inf"), 0.0)
    rep.check("neg", float("-inf"), 0.0)
    rep.check("nan", float("nan"), float("inf"))
    rep.check("finite", 1.5e-3, 2e-3)
    rep.skip("skipped", "because")
    obj = json.loads(io.dumps(rep.to_dict()))
    assert [(e["residual"], e["tolerance"]) for e in obj["entries"]] == [
        ("inf", 0.0),
        ("-inf", 0.0),
        ("nan", "inf"),
        (1.5e-3, 2e-3),
        (None, None),
    ]


def test_dumps_is_stable_and_sorted():
    text = io.dumps({"b": 1, "a": [1.5, 2.5]})
    assert text.index('"a"') < text.index('"b"')
    assert text == io.dumps({"a": [1.5, 2.5], "b": 1})
    assert text.endswith("\n")


def test_dumps_rejects_nan():
    with pytest.raises(ValueError):
        io.dumps({"x": float("nan")})


def test_loads_wraps_parse_errors():
    with pytest.raises(io.FormatError):
        io.loads("{ not json")


def test_file_roundtrip(tmp_path, rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    path = tmp_path / "m.json"
    with open(path, "w") as fh:
        fh.write(io.dumps(io.matrix_to_obj(m)))
    with open(path) as fh:
        back = io.matrix_from_obj(io.load(fh))
    assert np.array_equal(back, m)
