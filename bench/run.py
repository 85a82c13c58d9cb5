"""tetralab benchmark: real CLI calls, one child process at a time.

    python3 bench/run.py --workload suite --seed 42 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 42

Load model: closed loop with one client.  tetralab is a batch verifier, so
the next call starts when the previous one exits.  Every call is a fresh
``python3 bench/child.py`` process with BLAS pinned to one thread; on a
2-vCPU machine one thread was faster than two even for the largest
workload, and it keeps each call on one core.

``--trace 0`` makes plain calls, each on the next input derived from the
seed, until ``--seconds`` are used, and reports the end-to-end metrics of
BENCHMARK.json over those calls.  ``--trace 1`` makes a plain and a traced
call on each input and reports the per-layer metrics: counts from the first
traced call, whose input is the seed itself, times as medians over the
traced calls, and ``trace.overhead_frac`` from the two kinds of call.

Every call's bundle is checked: exit code, ``aggregate.all_passed`` and the
check counts recorded for the workload.  Calls with the same command, traced
or not, must give the same SHA-256 of the bundle without ``wall_time_s``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count checks.  A full record, with the environment, goes to
``bench/out/``.  ``--workload all`` runs every workload in both modes and
prints the metrics only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median

import numpy as np
from tracer import INSTANCE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD = HERE / "child.py"

THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# A run stops starting calls when the next one would end after --seconds,
# but makes at least this many; a run is abandoned after CALL_LIMIT_S.
MIN_PLAIN_CALLS = 3
CALL_LIMIT_S = 170.0


@dataclasses.dataclass(frozen=True)
class Workload:
    """A CLI command shape and the check counts every seed gives it.

    The counts are fixed by the instance families, not by the seed: skipped
    checks are the transfer identities that need an invertible P, which the
    symbol and compression families never have.

    Plain call i of a run uses suite seed ``input_seed(seed, i)``, so a run
    covers more instances than one call holds and its median depends less
    on the instances one seed happens to draw.
    """

    args: tuple[str, ...]
    checks: int
    skipped: int
    seeded: bool = True

    def argv(self, seed: int) -> list[str]:
        args = list(self.args)
        if self.seeded:
            args[1:1] = ["--seed", str(seed)]
        return args


def input_seed(seed: int, k: int) -> int:
    """Suite seed of the k-th call of a run; the 0-th is the run's seed."""
    return seed + k * 1_000_003


WORKLOADS = {
    "suite": Workload(
        args=("random-suite", "--count", "25", "--dim", "3", "--degree", "3"),
        checks=1257,
        skipped=34,
    ),
    "suite-wide": Workload(
        args=("random-suite", "--count", "15", "--dim", "6", "--degree", "6"),
        checks=750,
        skipped=20,
    ),
    "bidisc": Workload(
        args=("verify-bidisc", "--degree", "14"),
        checks=78,
        skipped=2,
        seeded=False,
    ),
}


@dataclasses.dataclass
class Call:
    """What one child process reported, and what its bundle said."""

    ok: bool
    checks: int
    failed: int
    digest: str = ""
    setup_s: float = 0.0
    run_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    wall_s: float = 0.0
    worst_margin: float = 0.0  # mean over reports of each report's largest margin
    max_margin: float = 0.0
    trace: dict | None = None
    problem: str = ""


def bundle_digest(bundle: dict) -> str:
    """SHA-256 of the bundle in canonical form, without ``wall_time_s``."""
    rest = {k: v for k, v in bundle.items() if k != "wall_time_s"}
    text = json.dumps(rest, sort_keys=True, indent=2, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def report_margins(bundle: dict) -> list[float]:
    """Largest residual / tolerance among each report's active checks."""
    return [
        max(
            (e["residual"] / e["tolerance"] for e in r["entries"] if not e["skipped"] and e["tolerance"] > 0),
            default=0.0,
        )
        for r in bundle["reports"]
    ]


def judge(bundle: dict, wl: Workload) -> tuple[int, int, str]:
    """(checks attempted, checks failed, problem) for one bundle."""
    agg = bundle["aggregate"]
    failed = agg["checks"] - agg["checks_passed"]
    if (agg["checks"], agg["checks_skipped"]) != (wl.checks, wl.skipped):
        return agg["checks"], failed, (
            f"checks/skipped {agg['checks']}/{agg['checks_skipped']}, "
            f"expected {wl.checks}/{wl.skipped}"
        )
    if not agg["all_passed"] or failed:
        return agg["checks"], failed, f"{failed} checks failed"
    return agg["checks"], failed, ""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_PIN)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def call(wl: Workload, args: list[str], trace: bool, workdir: Path, timeout: float) -> Call:
    """Run one CLI call in a fresh child process and check its bundle."""
    report_path = workdir / "report.json"
    bundle_path = workdir / "bundle.json"
    for p in (report_path, bundle_path):
        p.unlink(missing_ok=True)
    argv = [sys.executable, str(CHILD), str(report_path), "1" if trace else "0", "--"]
    argv += args + ["--format", "json", "--out", str(bundle_path)]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            argv,
            env=child_env(),
            cwd=ROOT,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return Call(ok=False, checks=wl.checks, failed=wl.checks, problem="timed out")
    wall = time.clock_gettime(time.CLOCK_MONOTONIC) - spawned
    try:
        report = json.loads(report_path.read_text())
        bundle = json.loads(bundle_path.read_text())
    except (OSError, ValueError) as exc:
        tail = proc.stderr.decode(errors="replace")[-2000:]
        return Call(
            ok=False,
            checks=wl.checks,
            failed=wl.checks,
            wall_s=wall,
            problem=f"exit {proc.returncode}, no report ({exc}): {tail}",
        )
    checks, failed, problem = judge(bundle, wl)
    margins = report_margins(bundle)
    if proc.returncode != 0 or report["exit_code"] != 0:
        # a call that exits non-zero fails every check it was expected to make
        failed = wl.checks
        problem = problem or f"exit code {proc.returncode}/{report['exit_code']}"
    return Call(
        ok=not problem,
        checks=checks,
        failed=failed,
        digest=bundle_digest(bundle),
        setup_s=report["imported"] - spawned,
        run_s=report["run_s"],
        rss_mb=report["maxrss_kb"] / 1024.0,
        cpu_s=report["cpu_s"],
        wall_s=wall,
        worst_margin=fmean(margins),
        max_margin=max(margins),
        trace=report["trace"],
        problem=problem,
    )


def run_calls(
    wl: Workload, seed: int, seconds: float, traced: bool, spans_out: Path
) -> list[tuple[list[str], bool, Call]]:
    """Calls as (tetralab argv, traced, result) until the next one would end
    after ``seconds``.  Plain calls each take the next input; a traced run
    makes a plain and a traced call on each input and keeps the spans of the
    first traced call in ``spans_out``.  Stops at the first call that fails."""
    done: list[tuple[list[str], bool, Call]] = []
    longest = {False: 0.0, True: 0.0}
    start = time.monotonic()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for i in itertools.count():
            tr = traced and i % 2 == 1
            elapsed = time.monotonic() - start
            enough = i >= (2 if traced else MIN_PLAIN_CALLS)
            if (enough and elapsed + longest[tr] > seconds) or elapsed + longest[tr] > CALL_LIMIT_S:
                break
            args = wl.argv(input_seed(seed, i // 2 if traced else i))
            c = call(wl, args, tr, Path(tmp), CALL_LIMIT_S - elapsed)
            done.append((args, tr, c))
            if tr and i == 1 and c.ok:
                os.replace(Path(tmp) / "report.json.spans", spans_out)
            longest[tr] = max(longest[tr], c.wall_s)
            if not c.ok:
                break
    return done


def end_to_end(plain: list[Call]) -> dict[str, float]:
    return {
        "setup_s": median(c.setup_s for c in plain),
        "run_s": median(c.run_s for c in plain),
        "peak_rss_mb": median(c.rss_mb for c in plain),
        # exact for one input, so a mean over the run's inputs loses nothing
        "worst_margin": fmean(c.worst_margin for c in plain),
    }


def tail_value(values: list[float], beyond: int = 10) -> float:
    """The highest order statistic with at least ``beyond`` samples above it
    (0.0 when there are not that many samples)."""
    if len(values) <= beyond:
        return 0.0
    return sorted(values)[len(values) - 1 - beyond]


def per_layer(plain: list[Call], traced: list[Call]) -> dict[str, float]:
    """Counts of the first traced call, which ran on the run's seed itself
    and so repeat exactly; medians of times over the traced calls; instance
    times pooled over them; and the cost of tracing."""
    out = dict(traced[0].trace["counts"])
    for key in traced[0].trace["times"]:
        out[key] = median(c.trace["times"][key] for c in traced)
    battery = [t for c in traced for _, t in c.trace["instances"]]
    out[f"{INSTANCE}.samples"] = len(battery)
    out[f"{INSTANCE}.p50_s"] = median(battery) if battery else 0.0
    out[f"{INSTANCE}.tail_s"] = tail_value(battery)
    out["cli.cpu_s"] = median(c.cpu_s for c in plain)
    out["trace.overhead_frac"] = median(c.run_s for c in traced) / median(c.run_s for c in plain) - 1.0
    return out


def problems_of(calls: list[tuple[list[str], bool, Call]]) -> list[str]:
    """Why the run is incorrect: failed calls, and bundles or trace counts
    that differ between calls of the same command."""
    problems = [c.problem for _, _, c in calls if c.problem]
    digests: dict[tuple[str, ...], set[str]] = {}
    counts: dict[tuple[str, ...], dict] = {}
    for args, tr, c in calls:
        if not c.ok:
            continue
        key = tuple(args)
        digests.setdefault(key, set()).add(c.digest)
        if tr:
            first = counts.setdefault(key, c.trace["counts"])
            moved = sorted(k for k in first if c.trace["counts"].get(k) != first[k])
            if moved:
                problems.append(f"{' '.join(args)}: trace counts differ between calls: {moved}")
    for key, found in sorted(digests.items()):
        if len(found) > 1:
            problems.append(f"{' '.join(key)}: bundle digests differ between calls: {sorted(found)}")
    return problems


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": THREAD_PIN,
        "git_commit": git_commit(),
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(name: str, seed: int, seconds: float, traced: bool, spec: dict, env: dict) -> dict:
    """One benchmark run; returns the result line and writes the record."""
    wl = WORKLOADS[name]
    calls = run_calls(wl, seed, seconds, traced, OUT / f"{name}-seed{seed}-spans.json")
    problems = problems_of(calls)
    plain = [c for _, tr, c in calls if not tr]
    tcalls = [c for _, tr, c in calls if tr]
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    values: dict[str, float] = {}
    if not problems:
        values = per_layer(plain, tcalls) if traced else end_to_end(plain)
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            raise SystemExit(f"bench: metrics not computed: {missing}")
    result = {
        "correct": not problems,
        "attempted": sum(c.checks for _, _, c in calls),
        "failed": sum(c.failed for _, _, c in calls),
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "environment": env,
        "problems": problems,
        "calls": [
            {"command": ["tetralab", *args], "traced": tr} | dataclasses.asdict(c)
            for args, tr, c in calls
        ],
        "values": values,
        "result": result,
    }
    path = OUT / f"{name}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return result


def show(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} checks={result['attempted']} failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:48s} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "tetralab" / "cli.py").is_file():
        print(f"bench: no tetralab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps(env))
    if args.workload == "all":
        for name in WORKLOADS:
            for traced in (False, True):
                show(f"{name} ({'traced' if traced else 'plain'})", run(name, args.seed, args.seconds, traced, spec, env))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), spec, env)
    show(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
