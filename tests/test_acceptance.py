"""Acceptance gate: the nine package-level criteria, one test each.

Each test prints a single PASS/FAIL line (visible with -s or on failure) and
asserts the criterion at the stated tolerance.  Counts and tolerances here
are contractual -- do not weaken them to make a failure go away.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from tetralab import bidisc, io
from tetralab.blh import extraction_roundtrip, verify_isometry_propagation
from tetralab.charfn import (
    build_model,
    kernel_identity_check,
    power_tail,
    verify_functional_model,
    verify_model_decomposition,
    verify_pencil_intertwining,
)
from tetralab.cli import main
from tetralab.fundamental import (
    solve_fundamental,
    verify_commutator_transfer,
    verify_cross_relations,
    verify_difference_identity,
    verify_tetra_characterization,
)
from tetralab.generate import companion_unitary, make_instance, suite
from tetralab.invariants import (
    CoincidenceWitness,
    NotIntertwiningError,
    induced_defect_unitary,
    unitary_invariant_suite,
    verify_coincidence,
)
from tetralab.matcore import DEFAULT_POLICY, numerical_radius, op_norm
from tetralab.triples import is_pure, validate

from conftest import fundamental_pairs


def announce(k: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")


def entries_by_name(rep):
    return {e.name: e for e in rep.entries}


# --------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def battery_instances():
    """>= 200 instances across dims 2-8, all three families round-robin."""
    out = []
    for dim in range(2, 9):
        out.extend(suite(seed=1000 + dim, count=30, dim=dim, degree=3))
    assert len(out) >= 200
    return out


@pytest.fixture(scope="module")
def pure_instances():
    """>= 50 pure instances with vanishing or tiny model tail."""
    out = []
    for k in range(17):
        out.append(make_instance("symbols", seed=500, index=k, dim=3, degree=4))
        out.append(make_instance("compressions", seed=500, index=k, dim=12, degree=4))
        out.append(make_instance("scalars", seed=500, index=k, dim=6, degree=4))
    return out


@pytest.fixture(scope="module")
def solved_pure(pure_instances):
    return [(inst, *fundamental_pairs(inst.triple)) for inst in pure_instances]


# ------------------------------------------------------------ criterion 1


def test_criterion_1_bidisc_exactness(tmp_path, capsys):
    out = tmp_path / "bidisc.json"
    t0 = time.perf_counter()
    code = main(["verify-bidisc", "--degree", "6", "--format", "json", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    bundle = json.loads(out.read_text())
    worst = 0.0
    for rep in bundle["reports"]:
        for e in rep["entries"]:
            if not e["skipped"] and e["residual"] is not None:
                worst = max(worst, e["residual"])
    # G1, G2 from the solver match the 0/1 edge patterns entrywise
    t = bidisc.build(6)
    pair_g = solve_fundamental(t.adjoint())
    g1, g2 = bidisc.fundamental_ops(6)
    conv = pair_g.basis.basis.conj().T @ bidisc.border_embedding(6)
    pattern_err = max(
        op_norm(conv.conj().T @ pair_g.F1 @ conv - g1),
        op_norm(conv.conj().T @ pair_g.F2 @ conv - g2),
    )
    ok = code == 0 and worst <= 1e-12 and pattern_err <= 1e-12 and elapsed < 10.0
    announce(1, ok, f"worst residual {worst:.1e}, patterns {pattern_err:.1e}, {elapsed:.2f}s")
    assert code == 0
    assert worst <= 1e-12
    assert pattern_err <= 1e-12
    assert elapsed < 10.0


# ------------------------------------------------------------ criterion 2


def test_criterion_2_fundamental_battery(battery_instances):
    worst = 0.0
    gated = 0
    for inst in battery_instances:
        triple = inst.triple
        pair_f, pair_g = fundamental_pairs(triple)
        # defining equations and their characterization
        worst = max(worst, pair_f.solve_residual, pair_g.solve_residual)
        char = verify_tetra_characterization(triple, pair_f)
        for e in char.entries:
            if e.name.startswith("defect_intertwine"):
                worst = max(worst, e.residual)
        # gramian difference, gated on its commuting hypothesis
        diff = verify_difference_identity(triple, pair_f)
        for e in diff.entries:
            if not e.skipped:
                worst = max(worst, e.residual)
                gated += 1
        # coupled relations: six residuals, two per identity family
        cross = verify_cross_relations(triple, pair_f, pair_g)
        for e in cross.entries:
            worst = max(worst, e.residual)
        # radius certificates
        for pair in (pair_f, pair_g):
            for f in (pair.F1, pair.F2):
                w, err = numerical_radius(f, 1.0 + DEFAULT_POLICY.eq_tol)
                assert w <= 1.0 + err + 1e-12, inst.label
    ok = worst <= 1e-8 and gated > 0
    announce(2, ok, f"{len(battery_instances)} instances, worst residual {worst:.2e}")
    assert worst <= 1e-8
    assert gated > 0  # the commuting hypothesis held somewhere


# ------------------------------------------------------------ criterion 3


def test_criterion_3_commutator_transfer():
    worst = 0.0
    converse_seen = 0
    count = 50
    for k in range(count):
        inst = make_instance("scalars", seed=600, index=k, dim=6, degree=4)
        pair_f, pair_g = fundamental_pairs(inst.triple)
        comm = op_norm(pair_f.F1 @ pair_f.F2 - pair_f.F2 @ pair_f.F1)
        assert comm <= 1e-10, inst.label  # hypothesis [F1,F2] ~ 0
        assert np.linalg.matrix_rank(inst.triple.P) == inst.triple.P.shape[0]
        rep = verify_commutator_transfer(inst.triple, pair_f, pair_g)
        named = entries_by_name(rep)
        for name in ("balance_F", "transfer_G_commute", "balance_G"):
            assert not named[name].skipped, inst.label
            worst = max(worst, named[name].residual)
        # round trip on invertible P: the converse direction runs too
        for name in ("converse_F_commute", "converse_balance_F"):
            if name in named and not named[name].skipped:
                worst = max(worst, named[name].residual)
                converse_seen += 1
    ok = worst <= 1e-8 and converse_seen >= count
    announce(3, ok, f"{count} instances, worst residual {worst:.2e}, converse x{converse_seen}")
    assert worst <= 1e-8
    assert converse_seen >= count


# --------------------------------------------------------- criteria 4 + 5


def test_criterion_4_functional_model(solved_pure):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(777)))
    worst_model = 0.0
    worst_dec = 0.0
    worst_kernel = 0.0
    for inst, _, pair_g in solved_pure:
        triple = inst.triple
        assert is_pure(triple).pure, inst.label
        model = build_model(triple)
        assert model.tail <= 1e-10, inst.label
        dec = verify_model_decomposition(model)
        worst_dec = max(worst_dec, *(e.residual for e in dec.entries if not e.skipped))
        rep = verify_functional_model(triple, model, pair_g)
        named = entries_by_name(rep)
        for name in ("model_reproduces_A", "model_reproduces_B", "model_reproduces_P"):
            worst_model = max(worst_model, named[name].residual)
        for _ in range(20):
            z, w = (complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(2))
            worst_kernel = max(worst_kernel, kernel_identity_check(triple, z, w))
    ok = worst_model <= 1e-7 and worst_dec <= 1e-7 and worst_kernel <= 1e-10
    announce(
        4,
        ok,
        f"{len(solved_pure)} pure instances, reproduce {worst_model:.2e}, "
        f"decomposition {worst_dec:.2e}, kernel {worst_kernel:.2e}",
    )
    assert worst_model <= 1e-7
    assert worst_dec <= 1e-7
    assert worst_kernel <= 1e-10


def test_criterion_5_pencil_intertwining(solved_pure):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(778)))
    worst = 0.0
    for inst, pair_f, pair_g in solved_pure:
        samples = [complex(*rng.uniform(-0.65, 0.65, 2)) for _ in range(20)]
        rep = verify_pencil_intertwining(inst.triple, pair_f, pair_g, samples)
        worst = max(worst, *(e.residual for e in rep.entries if not e.skipped))
    ok = worst <= 1e-8
    announce(5, ok, f"{len(solved_pure)} instances x 20 points, worst {worst:.2e}")
    assert worst <= 1e-8


# ------------------------------------------------------------ criterion 6


def test_criterion_6_symbol_extraction(solved_pure):
    worst_high = 0.0  # degree >= 2 interior mass
    worst_match = 0.0
    cases = 0
    for inst, pair_f, pair_g in solved_pure[:50]:
        g1, g2, rep = extraction_roundtrip(inst.triple, pair_f, pair_g, *power_tail(inst.triple))
        named = entries_by_name(rep)
        worst_high = max(worst_high, named["ext_degree_le_one_on_interior"].residual)
        worst_match = max(worst_match, named["match_G1"].residual, named["match_G2"].residual)
        cases += 1
    # the grid example's characteristic function is part of the contract
    t = bidisc.build(3)
    g1, g2, rep = extraction_roundtrip(t, *fundamental_pairs(t), *power_tail(t))
    named = entries_by_name(rep)
    worst_high = max(worst_high, named["ext_degree_le_one_on_interior"].residual)
    worst_match = max(worst_match, named["match_G1"].residual, named["match_G2"].residual)
    cases += 1

    # propagation battery on symbol-built instances
    propagation_ok = True
    for k in range(4):
        inst = make_instance("symbols", seed=640, index=k, dim=3, degree=4)
        pair_g = solve_fundamental(inst.triple.adjoint())
        prep = verify_isometry_propagation(
            inst.meta["f1"], inst.meta["f2"], pair_g.F1, pair_g.F2, n=4
        )
        propagation_ok = propagation_ok and prep.overall
    ok = cases >= 50 and worst_high <= 1e-8 and worst_match <= 1e-8 and propagation_ok
    announce(
        6,
        ok,
        f"{cases} extraction cases, degree>=2 mass {worst_high:.2e}, "
        f"solver match {worst_match:.2e}, propagation {propagation_ok}",
    )
    assert cases >= 50
    assert worst_high <= 1e-8
    assert worst_match <= 1e-8
    assert propagation_ok


# ------------------------------------------------------------ criterion 7


def test_criterion_7_unitary_invariants():
    forward_ok = 0
    worst_transport = 0.0
    worst_intertwine = 0.0
    pairs = []
    for k in range(25):
        family = ("symbols", "compressions", "scalars")[k % 3]
        dim = {"symbols": 3, "compressions": 12, "scalars": 6}[family]
        inst = make_instance(family, seed=700, index=k, dim=dim, degree=4)
        u = companion_unitary(inst, inst.triple.P.shape[0])
        t = inst.triple
        prime = validate(u @ t.A @ u.conj().T, u @ t.B @ u.conj().T, u @ t.P @ u.conj().T)
        pair_f, pair_g = fundamental_pairs(t)
        rep = unitary_invariant_suite(t, prime, u, pair_f=pair_f, pair_g=pair_g, model=build_model(t))
        assert rep.overall, (inst.label, [(e.name, e.residual) for e in rep.failures])
        named = entries_by_name(rep)
        if all(named[n].passed for n in named if n.startswith("fwd_")):
            forward_ok += 1
        worst_transport = max(worst_transport, named["cnv_model_space_transport"].residual)
        for n in ("cnv_model_intertwine_A", "cnv_model_intertwine_B", "cnv_model_intertwine_P"):
            worst_intertwine = max(worst_intertwine, named[n].residual)
        pairs.append((inst, u, prime))

    # corrupted witnesses must be rejected, not absorbed
    inst, u, prime = pairs[0]
    wit = induced_defect_unitary(u, inst.triple, prime)
    perm = np.roll(np.eye(wit.u.shape[0]), 1, axis=0)
    bad = CoincidenceWitness(u=perm @ wit.u, u_star=wit.u_star)
    model = build_model(inst.triple)
    rejected = not verify_coincidence(
        inst.triple, prime, bad, (0.3 + 0.2j, -0.55, 0.1 - 0.6j, 0.72j),
        model=model, model_prime=build_model(prime, model.N),
    ).overall
    q = np.roll(np.eye(inst.triple.P.shape[0]), 1, axis=0)  # permutation, wrong map
    try:
        induced_defect_unitary(q @ u, inst.triple, prime)
        rejected_map = False
    except NotIntertwiningError:
        rejected_map = True

    ok = (
        forward_ok == 25
        and worst_transport <= 1e-6 + 1e-9
        and worst_intertwine <= 1e-7
        and rejected
        and rejected_map
    )
    announce(
        7,
        ok,
        f"25 pairs forward, transport {worst_transport:.2e}, "
        f"intertwine {worst_intertwine:.2e}, corrupt rejected {rejected and rejected_map}",
    )
    assert forward_ok == 25
    assert worst_transport <= 1e-6 + 1e-9  # principal angles <= 1e-6 + tails
    assert worst_intertwine <= 1e-7
    assert rejected and rejected_map


# ------------------------------------------------------------ criterion 8


def test_criterion_8_truncation_consistency():
    exact = True
    for n in range(3, 8):
        small, big = bidisc.build(n), bidisc.build(n + 1)
        idx = [
            bidisc.flat_index(n + 1, i, j)
            for i in range(n + 1)
            for j in range(n + 1)
        ]
        sel = np.ix_(idx, idx)
        exact = exact and np.array_equal(big.A[sel], small.A)
        exact = exact and np.array_equal(big.B[sel], small.B)
        exact = exact and np.array_equal(big.P[sel], small.P)
        # near-border adjoint patterns at grid level: common border points
        # carry the same back-shift entries at every size (the far border
        # translates with the grid, so only the near-border data restricts)
        def grid_level(size):
            g1, g2 = bidisc.fundamental_ops(size)
            bb = bidisc.border_embedding(size)
            return bb @ g1 @ bb.conj().T, bb @ g2 @ bb.conj().T

        g1s, g2s = grid_level(n)
        g1b, g2b = grid_level(n + 1)
        exact = exact and np.array_equal(g1b[sel], g1s)
        exact = exact and np.array_equal(g2b[sel], g2s)
        # and the whole example battery stays green at each size
        exact = exact and bidisc.verify_example(small, *fundamental_pairs(small), build_model(small, n)).overall
    big = bidisc.build(8)
    exact = exact and bidisc.verify_example(big, *fundamental_pairs(big), build_model(big, 8)).overall
    announce(8, exact, "sizes 3..8 restriction-equal and individually verified")
    assert exact


# ------------------------------------------------------------ criterion 9


def test_criterion_9_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(
            ["random-suite", "--seed", "42", "--count", "50",
             "--format", "json", "--out", str(p)]
        )
        assert code == 0
    bundles = [json.loads(p.read_text()) for p in paths]
    walls = [b.pop("wall_time_s") for b in bundles]
    identical = io.dumps(bundles[0]) == io.dumps(bundles[1])
    announce(9, identical, f"two 50-instance runs byte-identical (walls {walls[0]}s/{walls[1]}s)")
    assert identical
