"""Self-tests of the benchmark at tiny sizes: python3 -m pytest bench -q"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import END, FID, LABEL, LIN_N, LIN_S, PARENT, START, Tracer  # noqa: E402


def span(fid, start, end, parent):
    rec = [0] * 7
    rec[FID], rec[START], rec[END], rec[PARENT], rec[LABEL], rec[LIN_N], rec[LIN_S] = (
        fid, start, end, parent, None, 0, 0.0
    )
    return rec


def test_self_time_subtracts_children_only():
    #  0 [0, 10] -> 1 [1, 4] -> 2 [2, 3];  0 -> 3 [5, 9];  3 -> 4 [6, 7] (same fid as 3)
    spans = [
        span(0, 0.0, 10.0, -1),
        span(1, 1.0, 4.0, 0),
        span(2, 2.0, 3.0, 1),
        span(3, 5.0, 9.0, 0),
        span(3, 6.0, 7.0, 3),
    ]
    spans[1][LIN_S] = 0.5  # linalg time stays in the caller's self time
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 1.0])
    assert tracer.outermost(spans) == [True, True, True, True, False]


def test_tail_value_leaves_ten_samples_beyond():
    values = list(range(50, 0, -1))
    assert run.tail_value(values) == 40
    assert run.tail_value(values[:10]) == 0.0


@pytest.fixture
def linalg_only():
    t = Tracer()
    t.install(layers=())
    try:
        yield t
    finally:
        t.uninstall()


def test_stacked_eigvalsh_counts_its_batch(linalg_only):
    stack = np.stack([np.eye(4)] * 3)
    np.linalg.eigvalsh(stack)
    counts = linalg_only.summary()["counts"]
    assert counts["linalg.calls"] == 1
    assert counts["linalg.eigvalsh"] == 3
    assert counts["linalg.work_n3"] == 3 * 4**3


def test_spectral_norm_is_a_decomposition_frobenius_is_not(linalg_only):
    m = np.ones((3, 5))
    np.linalg.norm(m)
    np.linalg.norm(m, "fro")
    np.linalg.norm(np.ones(4), 2)
    assert linalg_only.summary()["counts"]["linalg.decomps"] == 0
    np.linalg.norm(m, 2)
    counts = linalg_only.summary()["counts"]
    assert counts["linalg.norm2"] == 1
    assert counts["linalg.decomps"] == 1
    assert counts["linalg.work_n3"] == 3 * 3 * 5
    assert counts["linalg.calls"] == 4


def test_uninstall_restores_numpy():
    original = np.linalg.svd
    t = Tracer()
    t.install(layers=())
    assert np.linalg.svd is not original
    t.uninstall()
    assert np.linalg.svd is original


def test_wrappers_reach_names_imported_elsewhere():
    from tetralab import fundamental, matcore

    original = matcore.op_norm
    t = Tracer()
    t.install()
    try:
        assert fundamental.op_norm is matcore.op_norm is not original
        fundamental.op_norm(np.eye(2))
        a = np.diag([0.5, 0.25])
        matcore.defect(a)
        matcore.defect(a.copy())
        matcore.defect(0.5 * a)
    finally:
        t.uninstall()
    assert matcore.op_norm is original
    counts = t.summary()["counts"]
    assert counts["matcore.defect.calls"] == 3
    assert counts["matcore.defect.distinct_frac"] == pytest.approx(2 / 3)
    assert counts["matcore.op_norm.calls"] == 1 + 3  # defect calls op_norm


def tiny_calls(tmp_path):
    """One real traced bidisc call at degree 1, and a plain twin of it."""
    import tetralab.cli

    t = Tracer()
    t.install()
    try:
        code = tetralab.cli.main(["verify-bidisc", "--degree", "1", "--format", "json", "--out", str(tmp_path / "b.json")])
    finally:
        t.uninstall()
    assert code == 0
    plain = run.Call(ok=True, checks=1, failed=0, digest="d", setup_s=0.1, run_s=1.0, rss_mb=50.0, cpu_s=1.0, worst_margin=0.01)
    traced = run.Call(**{**vars(plain), "run_s": 1.2, "trace": t.summary()})
    return plain, traced


@pytest.mark.parametrize("traced", [False, True])
def test_every_benchmark_metric_is_printed_with_its_unit(tmp_path, monkeypatch, capsys, traced):
    spec = run.load_spec()
    plain, tcall = tiny_calls(tmp_path)
    args = ["verify-bidisc", "--degree", "14"]
    calls = [(args, False, plain), (args, traced, tcall if traced else plain)]
    monkeypatch.setattr(run, "run_calls", lambda *a: calls)
    monkeypatch.setattr(run, "OUT", tmp_path)
    result = run.run("bidisc", 0, 1.0, traced, spec, run.environment())
    run.show("bidisc", result)
    printed = capsys.readouterr().out
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split()[0] == m["name"] and line.split()[-1] == m["unit"] for line in printed.splitlines())
    if traced:
        assert result["metrics"]["trace.overhead_frac"]["value"] == pytest.approx(0.2)
    record = json.loads((tmp_path / f"bidisc-seed0-trace{int(traced)}.json").read_text())
    assert record["environment"]["thread_pin"]["OPENBLAS_NUM_THREADS"] == "1"


def test_digest_ignores_wall_time_only():
    bundle = {"aggregate": {"checks": 1}, "wall_time_s": 1.0}
    assert run.bundle_digest(bundle) == run.bundle_digest({**bundle, "wall_time_s": 2.0})
    assert run.bundle_digest(bundle) != run.bundle_digest({**bundle, "aggregate": {"checks": 2}})


def test_differing_bundles_for_one_input_make_a_run_incorrect():
    a = run.Call(ok=True, checks=1, failed=0, digest="a")
    b = run.Call(ok=True, checks=1, failed=0, digest="b")
    assert run.problems_of([(["x", "1"], False, a), (["x", "2"], False, b)]) == []
    assert run.problems_of([(["x", "1"], False, a), (["x", "1"], False, b)])
