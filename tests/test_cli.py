"""Command-line interface: exit codes, report bundles, determinism, tolerance
plumbing.  Everything runs in-process through main(argv) for speed; the
console entry point wraps the same function."""

from __future__ import annotations

import collections
import hashlib
import itertools
import json

import numpy as np
import pytest

import tetralab.charfn
import tetralab.cli
from tetralab import bidisc, generate, io
from tetralab.bidisc import build as build_grid
from tetralab.blh import extraction_roundtrip
from tetralab.charfn import (
    _power_norms,
    _theta_zero,
    ResolventSingularError,
    build_model,
    power_tail,
    pure_isometry_model,
    theta_taylor,
    verify_functional_model,
    verify_model_decomposition,
    verify_pencil_intertwining,
)
from tetralab.cli import DISC_SAMPLES, main, run_instance_battery
from tetralab.fundamental import solve_fundamental
from tetralab.generate import companion_unitary, make_instance
from tetralab.hardy import AnalyticSymbol, toeplitz
from tetralab.invariants import INVARIANT_SAMPLES, induced_defect_unitary, verify_coincidence
from tetralab.matcore import MAX_GRID_DIM, TetralabError, defect, numerical_radius
from tetralab.triples import is_pure, validate

from conftest import (
    assert_residuals_match,
    count_calls,
    dense_coinvariance,
    dense_pencil_on_model,
    fundamental_pairs,
    p_triple,
    watch_decompositions,
)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_bundle(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """Parse text that must be standard JSON: no NaN or Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


# ------------------------------------------------------------- exit codes


def test_verify_bidisc_passes(capsys):
    code, out, err = run(capsys, "verify-bidisc", "--degree", "3")
    assert code == 0
    assert "summary:" in out and "PASS" in out


@pytest.mark.parametrize(
    "degree, digest",
    [
        (3, "e6c861dee6353124c5d204da097b7a1593ab0214d5d145c1235902f846c03e68"),
        (6, "44db1164dbf5efaca969a3c11cede30760cc48499d613dd92953ab9d482249ec"),
        (14, "f536f340d88681c701f8367e42e489d58b0d6706da8c8f23ca5b43e0192c49f8"),
    ],
    ids=["3", "6", "14"],
)
def test_verify_bidisc_bundle_keeps_its_digest(tmp_path, degree, digest):
    # the SHA-256 of the bundle in canonical JSON without wall_time_s; it
    # reads the same with one BLAS thread, two, or the default.  At degree 3
    # the isometric interior is 5 of the 7 defect directions of P* and ker D_P
    # 9 of 16, a second size for the isometry model's kernels.  Degree 14 is
    # the bidisc benchmark's shape: its worst margin (4.58e-9) comes from one
    # residual of about 1e-17 in pencil_pencil_intertwine_1/_2, so a single
    # moved bit there can double that metric; any change of these bytes must
    # be deliberate
    out = tmp_path / "bidisc.json"
    assert main(["verify-bidisc", "--degree", str(degree), "--format", "json", "--out", str(out)]) == 0
    rest = {k: v for k, v in load_bundle(out).items() if k != "wall_time_s"}
    text = json.dumps(rest, sort_keys=True, indent=2, allow_nan=False)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_suite_passes(capsys):
    code, out, _ = run(capsys, "random-suite", "--seed", "1", "--count", "3")
    assert code == 0
    assert "PASS" in out


def test_unknown_command_is_usage_error(capsys):
    assert run(capsys, "frobnicate")[0] == 2


def test_missing_required_flag_is_usage_error(capsys):
    assert run(capsys, "random-suite")[0] == 2  # --seed is required


def test_bad_tol_value_is_input_error(capsys):
    code, _, err = run(capsys, "verify-bidisc", "--tol", "banana")
    assert code == 2


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("tol", ["0", "-1e-3", "nan", "inf"])
def test_non_positive_or_non_finite_tol_is_input_error(capsys, tol, fmt):
    # TolerancePolicy refuses the value as bad input: one error line and no
    # report in either format
    code, out, err = run(capsys, "verify-bidisc", "--degree", "2", f"--tol={tol}", "--format", fmt)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("tetralab: error:")
    assert "Traceback" not in err


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run(capsys, "model-check", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error" in err


def test_malformed_triple_file_is_input_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"A": 3}')
    assert run(capsys, "model-check", str(path))[0] == 2


@pytest.mark.parametrize("rows", [1.9, "1", True], ids=["float", "string", "bool"])
def test_non_integer_matrix_dimension_is_input_error(capsys, tmp_path, rows):
    # a 1 x 1 triple whose A declares a non-integer row count is refused on
    # load, not read as a 1 x 1 matrix
    path = tmp_path / "bad.json"
    one = io.matrix_to_obj(np.array([[0.5]]))
    path.write_text(io.dumps({"A": {**one, "rows": rows}, "B": one, "P": one}))
    code, out, err = run(capsys, "model-check", str(path))
    assert code == 2
    assert out == ""
    assert "matrix dimensions must be integers" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["model-check", "blh"])
def test_integer_past_binary64_range_is_input_error(capsys, tmp_path, command, fmt):
    # 1 followed by 400 zeros parses as a Python int that no float holds:
    # refused on load with exit 2 in either format, never a traceback
    huge = '{"rows": 1, "cols": 1, "data": [[1' + "0" * 400 + ', 0]]}'
    path = tmp_path / "huge.json"
    if command == "model-check":
        path.write_text('{"A": %s, "B": %s, "P": %s}' % (huge, huge, huge))
        argv = [str(path)]
    else:
        path.write_text('{"coeffs": [%s]}' % huge)
        sym_path = tmp_path / "syms.json"
        f = io.matrix_to_obj(0.2 * np.eye(1))
        sym_path.write_text(io.dumps({"F1": f, "F2": f}))
        argv = [str(path), str(sym_path)]
    code, out, err = run(capsys, command, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert "matrix entry 0 is too large for a binary64 float" in err
    assert "Traceback" not in err


def test_model_check_passes_on_valid_triple(capsys, tmp_path):
    inst = make_instance("scalars", seed=61, index=0, dim=6, degree=4)
    path = tmp_path / "triple.json"
    path.write_text(io.dumps(io.triple_to_obj(inst.triple)))
    code, out, _ = run(capsys, "model-check", str(path))
    assert code == 0
    assert "PASS" in out


def test_model_check_passes_past_the_rank_threshold_of_t_theta(capsys, tmp_path):
    # at degree 25 the smallest singular values of T_Theta of diag(0.5, 0.3)
    # sit near ||P^26|| ~ 1.5e-8, above RANK_TOL; H_P = range(W) does not
    # depend on that rank decision, so every check passes
    path = tmp_path / "diag.json"
    zero = io.matrix_to_obj(np.zeros((2, 2)))
    path.write_text(io.dumps({"A": zero, "B": zero, "P": io.matrix_to_obj(np.diag([0.5, 0.3]))}))
    code, out, _ = run(capsys, "model-check", str(path), "--degree", "25", "--format", "json")
    assert code == 0
    bundle = json.loads(out)
    assert bundle["aggregate"]["all_passed"]
    assert all(e["passed"] for r in bundle["reports"] for e in r["entries"])


def test_model_check_fails_a_grid_identity_moved_below_the_tail(monkeypatch, capsys, tmp_path):
    # W W* + T T* = I holds to rounding on the grid at every degree, so its
    # tolerance carries no tail allowance: at degree 3 the tail of
    # diag(0.9, 0.5) is 1.51, and Theta_1 moved by 1e-6 I where the report
    # forms T_Theta must fail range_partition (a tolerance of eq_tol +
    # 4 tail = 6.02 would pass it)
    path = tmp_path / "diag.json"
    zero = io.matrix_to_obj(np.zeros((2, 2)))
    path.write_text(io.dumps({"A": zero, "B": zero, "P": io.matrix_to_obj(np.diag([0.9, 0.5]))}))
    assert power_tail(p_triple(np.diag([0.9, 0.5])), 3)[1] > 1.5
    real = tetralab.charfn.toeplitz

    def mutated(sym, n):
        coeffs = list(sym.coeffs)
        coeffs[1] = coeffs[1] + 1e-6 * np.eye(len(coeffs[1]))
        return real(AnalyticSymbol(tuple(coeffs)), n)

    assert run(capsys, "model-check", str(path), "--degree", "3")[0] == 0
    monkeypatch.setattr(tetralab.charfn, "toeplitz", mutated)
    code, out, _ = run(capsys, "model-check", str(path), "--degree", "3", "--format", "json")
    assert code == 1
    entries = {e["name"]: e for r in strict_json(out)["reports"] for e in r["entries"]}
    [partition] = [e for name, e in entries.items() if name.endswith("range_partition")]
    assert not partition["passed"] and partition["residual"] > 1e-6


def test_model_check_fails_on_unsolvable_triple(capsys, tmp_path):
    # commuting contractions with unitary P but A - B*P != 0: loads fine,
    # fails the fundamental equations -> verification failure, not a crash
    path = tmp_path / "unsolvable.json"
    obj = {
        "A": io.matrix_to_obj(np.array([[0.5 + 0j]])),
        "B": io.matrix_to_obj(np.array([[0.0 + 0j]])),
        "P": io.matrix_to_obj(np.array([[1.0 + 0j]])),
    }
    path.write_text(io.dumps(obj))
    code, out, _ = run(capsys, "model-check", str(path))
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------- bundles


def test_json_bundle_structure(capsys, tmp_path):
    out_path = tmp_path / "bundle.json"
    code, stdout, _ = run(
        capsys,
        "random-suite", "--seed", "2", "--count", "3",
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    assert stdout == ""  # --out swallows stdout
    bundle = load_bundle(out_path)
    assert bundle["tool"] == "tetralab"
    assert bundle["command"] == "random-suite"
    assert bundle["config"]["seed"] == 2
    agg = bundle["aggregate"]
    assert agg["reports"] == 3
    assert agg["all_passed"] is True
    assert agg["checks_passed"] <= agg["checks"]
    assert isinstance(bundle["wall_time_s"], float)
    # no leftover render payloads in machine output
    assert all("rendered" not in rep for rep in bundle["reports"])


def test_determinism_modulo_wall_time(capsys, tmp_path):
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for p in (p1, p2):
        code, _, _ = run(
            capsys,
            "random-suite", "--seed", "42", "--count", "5",
            "--format", "json", "--out", str(p),
        )
        assert code == 0
    b1, b2 = load_bundle(p1), load_bundle(p2)
    b1.pop("wall_time_s"); b2.pop("wall_time_s")
    assert b1 == b2


# -------------------------------------------------------------- tolerance


def test_tol_flag_tightens_until_failure(capsys):
    # an absurdly tight tolerance turns round-off into failures: exit 1
    code, out, _ = run(
        capsys, "random-suite", "--seed", "3", "--count", "3", "--tol", "1e-30"
    )
    assert code == 1
    assert "FAIL" in out


# ------------------------------------------------------------------- blh


def test_blh_subcommand_roundtrip(capsys, tmp_path):
    # feed the characteristic function of the grid adjoint plus the solved
    # forward pair; the command must recover the adjoint pair
    n = 3
    triple = build_grid(n)
    pair_f = solve_fundamental(triple)
    theta = theta_taylor(triple.adjoint(), n + 1)
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(io.dumps(io.symbol_to_obj(theta)))
    sym_path = tmp_path / "syms.json"
    sym_path.write_text(io.dumps({
        "F1": io.matrix_to_obj(pair_f.F1),
        "F2": io.matrix_to_obj(pair_f.F2),
    }))
    out_path = tmp_path / "blh.json"
    code, _, _ = run(
        capsys, "blh", str(theta_path), str(sym_path),
        "--format", "json", "--out", str(out_path),
    )
    assert code == 0
    bundle = load_bundle(out_path)
    assert bundle["aggregate"]["all_passed"] is True
    g1 = io.matrix_from_obj(bundle["extracted"]["G1"])
    pair_g = solve_fundamental(triple.adjoint())
    assert np.allclose(g1, pair_g.F1, atol=1e-10)


def test_blh_rejects_wrong_symbol_file(capsys, tmp_path):
    theta_path = tmp_path / "theta.json"
    theta = theta_taylor(p_triple(np.zeros((2, 2))), 2)
    theta_path.write_text(io.dumps(io.symbol_to_obj(theta)))
    sym_path = tmp_path / "syms.json"
    sym_path.write_text(io.dumps({"F1": io.matrix_to_obj(np.eye(2))}))  # no F2
    assert run(capsys, "blh", str(theta_path), str(sym_path))[0] == 2


# ------------------------------------------------------------ text render


def test_text_render_sections(capsys):
    code, out, _ = run(capsys, "verify-bidisc", "--degree", "2")
    assert code == 0
    assert out.rstrip().splitlines()[-1].startswith("wall_time_s:")
    assert "==" in out  # section headers
    assert "summary:" in out


# ------------------------------------------------- failure paths as JSON


def failing_entries(bundle: dict) -> list[dict]:
    return [
        e for rep in bundle["reports"] for e in rep["entries"]
        if not e["passed"] and not e["skipped"]
    ]


def test_model_check_json_on_non_pure_p(capsys, tmp_path):
    # P = I is not pure: the "pure" check records an infinite residual,
    # which the bundle must carry as the string "inf"
    half = io.matrix_to_obj(0.5 * np.eye(2))
    path = tmp_path / "unitary_p.json"
    path.write_text(io.dumps({"A": half, "B": half, "P": io.matrix_to_obj(np.eye(2))}))
    code, out, err = run(capsys, "model-check", str(path), "--format", "json")
    assert code == 1
    assert err == ""
    bundle = strict_json(out)
    assert bundle["aggregate"]["all_passed"] is False
    [entry] = failing_entries(bundle)
    assert entry["name"] == "pure"
    assert entry["residual"] == "inf"
    assert entry["tolerance"] == 0.0


def test_blh_json_on_extraction_failure(capsys, tmp_path):
    # a constant symbol of norm 1.7 is not inner: extraction fails
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(io.dumps({"coeffs": [io.matrix_to_obj(1.7 * np.eye(2))]}))
    sym_path = tmp_path / "syms.json"
    sym_path.write_text(io.dumps({
        "F1": io.matrix_to_obj(0.2 * np.eye(2)),
        "F2": io.matrix_to_obj(0.1 * np.eye(2)),
    }))
    code, out, err = run(capsys, "blh", str(theta_path), str(sym_path), "--format", "json")
    assert code == 1
    assert err == ""
    bundle = strict_json(out)
    assert "extracted" not in bundle
    [entry] = failing_entries(bundle)
    assert entry["name"] == "extraction"
    assert entry["residual"] == "inf"


@pytest.mark.parametrize(
    "exc",
    [TetralabError("set-up failed"), np.linalg.LinAlgError("SVD did not converge")],
    ids=["tetralab", "linalg"],
)
def test_random_suite_records_failed_instance(capsys, monkeypatch, exc):
    # one instance whose battery raises must become a failed report in the
    # bundle while the other instances still run: exit 1, never 2
    seen = []

    def battery(inst, pol):
        seen.append(inst.label)
        if len(seen) == 2:
            raise exc
        return run_instance_battery(inst, pol)

    monkeypatch.setattr(tetralab.cli, "run_instance_battery", battery)
    code, out, err = run(
        capsys, "random-suite", "--seed", "5", "--count", "3", "--format", "json"
    )
    assert code == 1
    assert err == ""
    bundle = strict_json(out)
    agg = bundle["aggregate"]
    assert (agg["reports"], agg["reports_passed"]) == (3, 2)
    [entry] = failing_entries(bundle)
    assert entry["name"] == "battery"
    assert entry["residual"] == "inf"
    assert entry["note"] == str(exc)
    assert bundle["reports"][1]["label"] == seen[1]
    assert len(seen) == 3


def test_random_suite_fails_a_non_pure_instance_with_one_battery_entry(capsys, monkeypatch):
    # build_model refuses a P with a unitary part, so the instance's report is
    # the one failed battery entry the suite records, not a skipped model
    triple = validate(np.diag([0.5, 0.2]), np.diag([0.5, 0.1]), np.diag([1.0, 0.5]))
    inst = generate.Instance(family="scalars", index=0, seed=5, triple=triple)
    monkeypatch.setattr(tetralab.cli.generate, "suite", lambda *args: [inst])
    code, out, err = run(
        capsys, "random-suite", "--seed", "5", "--count", "1", "--format", "json"
    )
    assert (code, err) == (1, "")
    [report] = strict_json(out)["reports"]
    [entry] = report["entries"]
    assert (entry["name"], entry["passed"]) == ("battery", False)
    assert entry["note"].startswith("P is not pure")


def test_family_names_agree_across_commands(capsys, tmp_path):
    # each command takes its family reports from one composer, under one
    # prefix per family: a residual that one command emits as dec_*, fm_*,
    # ... is emitted under no other prefix by any command (random-suite once
    # wrote model_model_reproduces_A where the others wrote
    # fm_model_reproduces_A), and model-check runs the fundamental families
    # too.  The isometry model's unprefixed copies and its own
    # pencil_on_model_* entries belong to no family and are left out
    path = tmp_path / "diag.json"
    zero = io.matrix_to_obj(np.zeros((2, 2)))
    path.write_text(io.dumps({"A": zero, "B": zero, "P": io.matrix_to_obj(np.diag([0.9, 0.5]))}))
    prefixes = ("char_", "diff_", "cross_", "transfer_", "dec_", "fm_", "pencil_")
    emitted = {}
    for argv in (("random-suite", "--seed", "42", "--count", "3"), ("verify-bidisc", "--degree", "2"), ("model-check", str(path))):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0, argv
        reports = strict_json(out)["reports"]
        emitted[argv[0]] = {e["name"] for r in reports if r["label"] != "isometry_model" for e in r["entries"]}
        assert not any(name.startswith("model_model_") for name in emitted[argv[0]]), argv
    prefixes_of = collections.defaultdict(set)
    for names in emitted.values():
        for name, prefix in itertools.product(names, prefixes):
            if name.startswith(prefix):
                prefixes_of[name[len(prefix) :]].add(prefix)
    for names in emitted.values():
        for name in names:
            head, _, inner = name.partition("_")
            assert inner not in prefixes_of or f"{head}_" in prefixes_of[inner], name
    for command, names in emitted.items():
        assert all(any(name.startswith(prefix) for name in names) for prefix in prefixes), command


# ----------------------------------------------------- shared objects


def test_battery_builds_each_object_once(monkeypatch):
    # the battery hands its pairs and model to the invariant suite: per
    # instance F, G, F' and G' are solved once each, and only the models of
    # P and P' are built.  Models and Theta read the defect data of the
    # validated triples, so the only 2 defects validate the conjugated copy;
    # symbols instances validate two more pencil triples for isometry
    # propagation.  Purity is checked once by each model.  The instances are
    # those of ``small_suite``, generated afresh: a triple keeps the purity
    # certificate once read, so a shared one would count fewer is_pure calls
    # after other tests
    instances = generate.suite(seed=7, count=6, dim=3, degree=3)
    calls = count_calls(
        monkeypatch, solve_fundamental, build_model, defect, is_pure, numerical_radius, _theta_zero, theta_taylor
    )
    decompositions, _, work = watch_decompositions(monkeypatch)
    op_norm_svds, works = [], []
    for inst in instances:
        calls.update({name: 0 for name in calls})
        decompositions.clear()
        work.clear()
        rep = run_instance_battery(inst)
        assert rep.overall, inst.label
        assert calls["solve_fundamental"] == 4, inst.label
        assert calls["build_model"] <= 2, inst.label
        assert calls["defect"] == (6 if inst.family == "symbols" else 2), inst.label
        assert calls["is_pure"] == 2, inst.label
        # only the characterization of F reads a radius bracket
        assert calls["numerical_radius"] == 2, inst.label
        # Theta is formed once by each model, and the coincidence check
        # compares the two models' coefficients
        assert calls["_theta_zero"] == 2, inst.label
        assert calls["theta_taylor"] == 0, inst.label
        op_norm_svds.append(decompositions["svd", "op_norms"])
        works.append(sum(work.values()))
    # op_norm decomposes no zero matrix, the norms of A, B, P, of their
    # commutators and of F1, F2 are read from the triples and pairs, and one
    # stacked SVD norms each family of same-shape residuals
    assert op_norm_svds == [51, 61, 171, 51, 61, 125]
    # no model-space check decomposes a grid-sized matrix of rank <= dim H;
    # the scalars instances, at N = 48 and 28, compare coefficients 0..N+1
    # in the one stacked SVD of the coincidence residuals
    assert works == [89316, 25537, 21438, 89289, 48602, 16416]


def test_verify_bidisc_builds_each_object_once(monkeypatch, capsys):
    # the command validates the grid triple, solves its F and G pairs and
    # builds its model once, and hands them to the example battery, the
    # fundamental and model reports, the isometry model and the extraction
    # round trip, each run once; the two defects are those of the one
    # validation, and each model report runs once, the isometry model taking
    # the two it needs.  Purity is checked once, by the model, whose
    # certificate the example's "pure_nilpotent" entry reads; the round trip
    # reads the model's truncation.  P^4 = 0 exactly, so the tail needs no
    # norm of a power of P, and the kept ||P|| clears I - z P* at every
    # pencil sample without an SVD
    calls = count_calls(
        monkeypatch,
        bidisc.verify_example,
        extraction_roundtrip,
        solve_fundamental,
        build_model,
        validate,
        defect,
        is_pure,
        verify_functional_model,
        verify_model_decomposition,
        _power_norms,
        numerical_radius,
    )
    decompositions, _, work = watch_decompositions(monkeypatch)
    code, _, _ = run(capsys, "verify-bidisc", "--degree", "3")
    assert code == 0
    assert calls == {
        "verify_example": 1,
        "extraction_roundtrip": 1,
        "solve_fundamental": 2,
        "build_model": 1,
        "validate": 1,
        "defect": 2,
        "is_pure": 1,
        "verify_functional_model": 1,
        "verify_model_decomposition": 1,
        "_power_norms": 0,
        "numerical_radius": 2,
    }
    # only the characterization of F brackets a radius; the norms of A, B, P
    # (also for the adjoint, as ||X*|| = ||X||) and of F1, F2 are kept, and
    # one stacked SVD norms ||A||, ||B||, ||P|| and one the 20 pencil residuals
    assert decompositions["svd", "op_norms"] == 11
    assert decompositions["svd", "theta_eval"] == 0
    # H_P is range(W), with W as its basis, and T_Theta is not decomposed;
    # the isometric interior comes from one eigh of a rank D_{P*} square
    # matrix, and ker D_P from a QR, which is not counted here
    assert sum(work.values()) == 121282


@pytest.mark.parametrize("n", [2, 3])
def test_verify_bidisc_reports_equal_the_standalone_batteries(capsys, n):
    # the command's isometry model reuses the functional-model and
    # range-partition reports of its model report; a standalone isometry
    # model on objects of its own gives the same entries
    code, out, _ = run(capsys, "verify-bidisc", "--degree", str(n), "--format", "json")
    assert code == 0
    entries = {r["label"]: r["entries"] for r in strict_json(out)["reports"]}
    triple = build_grid(n)
    model = build_model(triple, n)
    pair_g = solve_fundamental(triple.adjoint())
    dec = verify_model_decomposition(model)
    fm = verify_functional_model(triple, model, pair_g)
    iso = pure_isometry_model(triple, model, pair_g, dec, fm)
    assert entries["isometry_model"] == iso.to_dict()["entries"]


def test_verify_bidisc_model_residuals_equal_the_dense_formulas(capsys):
    # the command's co-invariance and pencil-on-model residuals, normed on
    # thin factors, equal the dense M x M formulas on the degree-3 grid
    code, out, _ = run(capsys, "verify-bidisc", "--degree", "3", "--format", "json")
    assert code == 0
    entries = {
        (r["label"], e["name"]): e["residual"] for r in strict_json(out)["reports"] for e in r["entries"]
    }
    triple = build_grid(3)
    model = build_model(triple, 3)
    pair_g = solve_fundamental(triple.adjoint())
    coinvariance = dense_coinvariance(model, pair_g)
    for label, prefix in (("model", "fm_"), ("isometry_model", "")):
        named = {name: value for (lab, name), value in entries.items() if lab == label}
        assert_residuals_match(named, coinvariance, f"{prefix}rangeW_coinvariant_")
    named = {name: value for (lab, name), value in entries.items() if lab == "isometry_model"}
    assert_residuals_match(named, dense_pencil_on_model(triple, model, pair_g), "pencil_on_model_")


def test_no_decomposition_of_an_all_zero_matrix(monkeypatch, capsys):
    # the residuals of the exact worked example are exactly zero, and so are
    # many of the instances', e.g. [A, P] and [B, P] of compressions[3] at
    # seed 42, whose P is 0: none of them reaches an SVD or an eigensolver
    _, zeros, _ = watch_decompositions(monkeypatch)
    code, _, _ = run(capsys, "verify-bidisc", "--degree", "6")
    assert code == 0
    for family, seed, index in (("symbols", 7, 0), ("compressions", 42, 3), ("scalars", 7, 0)):
        inst = make_instance(family, seed=seed, index=index, dim=3, degree=3)
        assert run_instance_battery(inst).overall, inst.label
    assert zeros == []


def test_verify_bidisc_refuses_oversized_grid(capsys):
    # degree 30 needs a 35 x 61 = 2135-coordinate extraction grid (its model
    # grid, 31 x 61 = 1891, would fit): refused up front as an input error,
    # before any grid matrix exists
    code, out, err = run(capsys, "verify-bidisc", "--degree", "30")
    assert code == 2
    assert out == ""
    assert "2135" in err


def test_theta_checks_derive_no_defect(monkeypatch, small_suite):
    # theta_eval and the Theta of build_model read the defect data of the
    # triples they are given: neither the models, the coincidence check that
    # compares them nor the pencil check computes one
    calls = count_calls(monkeypatch, defect)
    for inst in small_suite:
        t = inst.triple
        u = companion_unitary(inst, t.dim)
        prime = validate(u @ t.A @ u.conj().T, u @ t.B @ u.conj().T, u @ t.P @ u.conj().T)
        wit = induced_defect_unitary(u, t, prime)
        pair_f = solve_fundamental(t)
        pair_g = solve_fundamental(t.adjoint())
        calls["defect"] = 0
        model = build_model(t)
        model_prime = build_model(prime, model.N)
        rep = verify_coincidence(t, prime, wit, INVARIANT_SAMPLES, model=model, model_prime=model_prime)
        assert rep.overall, inst.label
        rep = verify_pencil_intertwining(t, pair_f, pair_g, DISC_SAMPLES)
        assert rep.overall, inst.label
        assert calls["defect"] == 0, inst.label


def test_pencil_intertwining_refuses_samples_outside_disc(monkeypatch, small_suite):
    # every sample is checked before Theta is evaluated anywhere
    t = small_suite[0].triple
    pair_f = solve_fundamental(t)
    pair_g = solve_fundamental(t.adjoint())
    calls = count_calls(monkeypatch, defect)
    with pytest.raises(ResolventSingularError, match="not inside the open disc"):
        verify_pencil_intertwining(t, pair_f, pair_g, [0.3, 0.5j, -1.0])
    assert calls["defect"] == 0


def test_build_model_checks_purity_once(monkeypatch, capsys, tmp_path):
    # one is_pure call per triple: the first model reads triple.purity and
    # a second model of the same triple reads the kept certificate; none in
    # a round trip fed a model's truncation; model-check reads the
    # certificate of its "pure" check from the triple
    triple = make_instance("scalars", seed=61, index=0, dim=3, degree=4).triple
    calls = count_calls(monkeypatch, is_pure)
    model = build_model(triple)
    assert calls["is_pure"] == 1
    calls["is_pure"] = 0
    build_model(triple, model.N)
    assert calls["is_pure"] == 0
    grid = build_grid(2)
    pair_f, pair_g = fundamental_pairs(grid)
    grid_model = build_model(grid, 2)
    calls["is_pure"] = 0
    assert extraction_roundtrip(grid, pair_f, pair_g, grid_model.N, grid_model.tail)[2].overall
    assert calls["is_pure"] == 0
    path = tmp_path / "triple.json"
    path.write_text(io.dumps(io.triple_to_obj(triple)))
    assert run(capsys, "model-check", str(path))[0] == 0
    assert calls["is_pure"] == 1


@pytest.mark.parametrize("p, code", [(np.eye(2), 1), (np.array([[0.999]]), 2)], ids=["not-pure", "refused-grid"])
def test_model_check_checks_purity_once(monkeypatch, capsys, tmp_path, p, code):
    # as on the pure input of test_build_model_checks_purity_once, the model
    # is built on the certificate of the "pure" check, kept on the triple:
    # P = I is not pure (a failed check), and P = 0.999 needs a model grid
    # too large (input error)
    path = tmp_path / "triple.json"
    zero = io.matrix_to_obj(np.zeros(p.shape))
    path.write_text(io.dumps({"A": zero, "B": zero, "P": io.matrix_to_obj(p)}))
    calls = count_calls(monkeypatch, is_pure)
    assert run(capsys, "model-check", str(path))[0] == code
    assert calls["is_pure"] == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_model_check_refuses_oversized_model_grid(capsys, tmp_path, fmt):
    # ||P^k|| = 0.999^k needs degree 30698 for the default tail: a refused
    # size is an input error in either format, not a failed check
    path = tmp_path / "slow.json"
    zero = io.matrix_to_obj(np.zeros((1, 1)))
    path.write_text(io.dumps({"A": zero, "B": zero, "P": io.matrix_to_obj(np.array([[0.999]]))}))
    code, out, err = run(capsys, "model-check", str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert f"exceeds {MAX_GRID_DIM} coordinates" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_model_check_refuses_zero_dimensional_triple(capsys, tmp_path, fmt):
    # 0 x 0 matrices pass every other check of validate; they are refused
    # there, not left to fail inside a grid product
    path = tmp_path / "empty.json"
    empty = io.matrix_to_obj(np.zeros((0, 0)))
    path.write_text(io.dumps({"A": empty, "B": empty, "P": empty}))
    code, out, err = run(capsys, "model-check", str(path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert "A, B, P are 0 x 0: the triple acts on a zero-dimensional space" in err


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("rows, cols", [(0, 0), (2, 0), (0, 2)], ids=["0x0", "2x0", "0x2"])
def test_blh_refuses_empty_symbol_fiber(capsys, tmp_path, fmt, rows, cols):
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(io.dumps({"coeffs": [io.matrix_to_obj(np.zeros((rows, cols)))]}))
    sym_path = tmp_path / "syms.json"
    f = io.matrix_to_obj(0.2 * np.eye(rows))
    sym_path.write_text(io.dumps({"F1": f, "F2": f}))
    code, out, err = run(capsys, "blh", str(theta_path), str(sym_path), "--format", fmt)
    assert code == 2
    assert out == ""
    assert f"empty fiber: input dimension {cols}, output dimension {rows}" in err


def test_negative_model_degree_is_input_error(capsys, tmp_path):
    path = tmp_path / "triple.json"
    path.write_text(io.dumps(io.triple_to_obj(make_instance("scalars", seed=61, index=0, dim=3, degree=4).triple)))
    code, out, err = run(capsys, "model-check", str(path), "--degree", "-1")
    assert code == 2
    assert out == ""
    assert "--degree must be >= 0" in err
    with pytest.raises(ValueError, match="model degree must be >= 0"):
        build_model(p_triple(0.5 * np.eye(2)), -1)


def test_random_suite_refuses_oversized_grid(monkeypatch, capsys):
    # --dim 2048 --degree 3 asks for symbols triples on an 8192-coordinate
    # grid: refused as an input error before any instance or Toeplitz
    # matrix is built
    calls = count_calls(monkeypatch, toeplitz)
    code, out, err = run(capsys, "random-suite", "--seed", "1", "--dim", "2048", "--degree", "3")
    assert code == 2
    assert out == ""
    assert f"symbols grid of 8192 > {MAX_GRID_DIM}" in err
    assert calls["toeplitz"] == 0


def test_blh_refuses_oversized_grid(monkeypatch, capsys, tmp_path):
    # degree 100000 over a 2-dimensional fiber: refused as an input error
    # before any Toeplitz matrix is built
    theta_path = tmp_path / "theta.json"
    theta_path.write_text(io.dumps(io.symbol_to_obj(theta_taylor(p_triple(np.zeros((2, 2))), 2))))
    sym_path = tmp_path / "syms.json"
    sym_path.write_text(io.dumps({
        "F1": io.matrix_to_obj(0.2 * np.eye(2)),
        "F2": io.matrix_to_obj(0.1 * np.eye(2)),
    }))
    calls = count_calls(monkeypatch, toeplitz)
    code, out, err = run(capsys, "blh", str(theta_path), str(sym_path), "--degree", "100000")
    assert code == 2
    assert out == ""
    assert f"side 200002 > {MAX_GRID_DIM}" in err
    assert calls["toeplitz"] == 0
