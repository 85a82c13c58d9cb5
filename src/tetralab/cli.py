"""Command-line verification harness.

Four subcommands, all emitting a deterministic structured report (JSON or a
fixed-width text table) and returning 0 when every check passes, 1 when any
check fails, and 2 on usage or input errors:

* ``verify-bidisc``  -- the explicit grid-shift example plus the full model
                        pipeline and symbol extraction on it.
* ``random-suite``   -- seeded random instances across the three generator
                        families, each run through the whole battery.
* ``model-check``    -- load a triple from a JSON file and verify its
                        fundamental battery and functional model.
* ``blh``            -- load an inner symbol and a coefficient pair, extract
                        (G1, G2) and check isometry propagation.

Reports for a given configuration and seed are byte-identical across runs
except for the ``wall_time_s`` field.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Callable, Sequence

import numpy as np

from . import __version__, bidisc, generate
from . import io as tio
from .blh import (
    NotDegreeOneError,
    NotInnerError,
    extract_symbols,
    extraction_roundtrip,
    verify_isometry_propagation,
)
from .charfn import (
    build_model,
    pure_isometry_model,
    verify_functional_model,
    verify_model_decomposition,
    verify_pencil_intertwining,
)
from .fundamental import (
    solve_fundamental,
    verify_commutator_transfer,
    verify_cross_relations,
    verify_difference_identity,
    verify_tetra_characterization,
)
from .invariants import unitary_invariant_suite
from .matcore import DEFAULT_POLICY, MAX_GRID_DIM, GridSizeError, TetralabError, TolerancePolicy
from .report import CheckReport
from .triples import TetrablockTriple, necessary_report, validate

__all__ = ["main", "build_parser", "run_instance_battery"]

# fixed sample points in the open disc for pointwise identities
DISC_SAMPLES = tuple(
    r * np.exp(2j * np.pi * k / 5)
    for r in (0.31, 0.67)
    for k in range(5)
)


def _policy_from(tol: float | None) -> TolerancePolicy:
    if tol is None:
        return DEFAULT_POLICY
    return TolerancePolicy(eq_tol=tol)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tetralab",
        description="Numerical verification of commuting contractive operator triples.",
    )
    parser.add_argument("--version", action="version", version=f"tetralab {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=None, help="equality tolerance override")
    common.add_argument(
        "--format", choices=("json", "text"), default="text", help="report format"
    )
    common.add_argument("--out", default=None, help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-bidisc", parents=[common], help="verify the grid-shift example"
    )
    p.add_argument("--degree", type=int, default=6, help="grid size (dimension (N+1)^2)")

    p = sub.add_parser("random-suite", parents=[common], help="seeded random battery")
    p.add_argument("--seed", type=int, required=True, help="64-bit suite seed")
    p.add_argument("--count", type=int, default=50, help="number of instances")
    p.add_argument("--dim", type=int, default=3, help="target operator dimension")
    p.add_argument("--degree", type=int, default=3, help="grid degree for pencil instances")

    p = sub.add_parser("model-check", parents=[common], help="verify a stored triple")
    p.add_argument("triple_file", help="JSON file with fields A, B, P")
    p.add_argument("--degree", type=int, default=None, help="model truncation degree")

    p = sub.add_parser("blh", parents=[common], help="extract symbols from an inner function")
    p.add_argument("theta_file", help="JSON file with the inner symbol (coeffs)")
    p.add_argument("symbols_file", help="JSON file with the coefficient pair (F1, F2)")
    p.add_argument("--degree", type=int, default=None, help="grid truncation degree")
    return parser


FUNDAMENTAL = ("char", "diff", "cross", "transfer")
MODEL = ("dec", "fm", "pencil")


def _families(triple: TetrablockTriple, degree: int | None, pol: TolerancePolicy):
    """(F1, F2) of ``triple``, (G1, G2) of its adjoint and the model of P at ``degree`` (None: as its tail
    needs), each built once, with the report of each family of ``FUNDAMENTAL + MODEL`` keyed by its name."""
    pair_f = solve_fundamental(triple, pol)
    pair_g = solve_fundamental(triple.adjoint(), pol)
    model = build_model(triple, degree, pol)
    families = {
        "char": verify_tetra_characterization(triple, pair_f, pol),
        "diff": verify_difference_identity(triple, pair_f, pol),
        "cross": verify_cross_relations(triple, pair_f, pair_g, pol),
        "transfer": verify_commutator_transfer(triple, pair_f, pair_g, pol),
        "dec": verify_model_decomposition(model, pol),
        "fm": verify_functional_model(triple, model, pair_g, pol),
        "pencil": verify_pencil_intertwining(triple, pair_f, pair_g, DISC_SAMPLES, pol),
    }
    return pair_f, pair_g, model, families


def _extend(rep: CheckReport, families: dict[str, CheckReport], names: Sequence[str]) -> CheckReport:
    """Append the named family reports to ``rep``, each under the prefix ``name_``."""
    for name in names:
        rep.extend(families[name], prefix=f"{name}_")
    return rep


def run_instance_battery(
    inst: generate.Instance, pol: TolerancePolicy = DEFAULT_POLICY
) -> CheckReport:
    """Whole verification battery on one generated instance.

    Covers the necessary conditions, both solves, every family of
    ``_families`` (``build_model`` raises NotPureError when P is not pure),
    unitary-invariance round trips against a conjugated copy, and (for
    pencil instances) isometry propagation.  Each fundamental pair and the
    model of P are built once and shared with the invariant suite.
    """
    t = inst.triple
    rep = CheckReport(title=inst.label)
    rep.extend(necessary_report(t, pol), prefix="nec_")
    pair_f, pair_g, model, families = _families(t, None, pol)
    rep.check("solve_residual_F", pair_f.solve_residual, pol.scaled_eq(t.max_norm()))
    rep.check("solve_residual_G", pair_g.solve_residual, pol.scaled_eq(t.max_norm()))
    _extend(rep, families, FUNDAMENTAL + MODEL)
    u = generate.companion_unitary(inst, t.dim)
    conj = validate(
        u @ t.A @ u.conj().T, u @ t.B @ u.conj().T, u @ t.P @ u.conj().T, pol
    )
    rep.extend(
        unitary_invariant_suite(t, conj, u, pol, pair_f=pair_f, pair_g=pair_g, model=model),
        prefix="inv_",
    )
    if inst.family == "symbols":
        rep.extend(
            verify_isometry_propagation(
                inst.meta["f1"],
                inst.meta["f2"],
                pair_g.F1,
                pair_g.F2,
                inst.meta["degree"],
                pol,
            ),
            prefix="prop_",
        )
    return rep


Reports = list[tuple[str, CheckReport]]


def _cmd_verify_bidisc(args, pol: TolerancePolicy) -> tuple[Reports, dict[str, Any]]:
    n = args.degree
    if n < 1:
        raise TetralabError(f"--degree must be >= 1, got {n}")
    # the symbol-extraction grid, (n+5) blocks of the (2n+1)-point border, is
    # the largest matrix side the command allocates: Theta_{P*} has degree
    # n+1 and extraction_roundtrip adds EXTRACTION_MARGIN = 3 degrees.  The
    # model grid has only n+1 such blocks, the example grid (n+1)^2 points
    side = (n + 5) * (2 * n + 1)
    if side > MAX_GRID_DIM:
        raise GridSizeError(f"--degree {n} needs an extraction grid of {side} > {MAX_GRID_DIM}")
    triple = bidisc.build(n, pol)
    pair_f, pair_g, model, families = _families(triple, n, pol)
    example = bidisc.verify_example(triple, pair_f, pair_g, model, pol)
    iso = pure_isometry_model(triple, model, pair_g, families["dec"], families["fm"], pol)
    _, _, brep = extraction_roundtrip(triple, pair_f, pair_g, model.N, model.tail, pol)
    return [
        ("example", example),
        ("fundamental", _extend(CheckReport(title="fundamental battery"), families, FUNDAMENTAL)),
        ("model", _extend(CheckReport(title="functional model"), families, MODEL)),
        ("isometry_model", iso),
        ("blh", brep),
    ], {}


def _failed_report(title: str, note: str) -> CheckReport:
    rep = CheckReport(title=title)
    rep.check("battery", float("inf"), 0.0, note=note)
    return rep


def _cmd_random_suite(args, pol: TolerancePolicy) -> tuple[Reports, dict[str, Any]]:
    for name in ("count", "dim", "degree"):
        if getattr(args, name) < 1:
            raise TetralabError(f"--{name} must be >= 1")
    # the symbols family builds its triple on a grid of (degree+1) fibers of
    # size dim, the largest side of the suite: the scalars triples have side
    # dim and the compressions about dim
    side = (args.degree + 1) * args.dim
    if side > MAX_GRID_DIM:
        raise GridSizeError(
            f"--degree {args.degree} --dim {args.dim} needs a symbols grid of {side} > {MAX_GRID_DIM}"
        )
    # generate takes no policy, so --tol never changes which instances exist
    instances = generate.suite(args.seed, args.count, args.dim, args.degree)
    out = []
    for inst in instances:
        try:
            out.append((inst.label, run_instance_battery(inst, pol)))
        except (TetralabError, np.linalg.LinAlgError) as exc:
            # a verification step that cannot even be set up, or a numpy
            # routine that does not converge on this instance, is a failure,
            # not a usage error: record it and keep going
            out.append((inst.label, _failed_report(inst.label, str(exc))))
    return out, {}


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fp:
        return tio.load(fp)


def _cmd_model_check(args, pol: TolerancePolicy) -> tuple[Reports, dict[str, Any]]:
    if args.degree is not None and args.degree < 0:
        raise TetralabError("--degree must be >= 0")
    triple = tio.triple_from_obj(_load_json(args.triple_file), pol)
    nec = necessary_report(triple, pol)
    necessary = CheckReport(title=nec.title, header=nec.header)
    necessary.extend(nec, prefix="nec_")
    rep = CheckReport(title="model check")
    cert = triple.purity
    rep.check(
        "pure",
        0.0 if cert.pure else float("inf"),
        0.0,
        note=f"spectral radius {cert.spectral_radius:.6f}",
    )
    if cert.pure:
        try:
            _, _, model, families = _families(triple, args.degree, pol)
            rep.check("model_degree", 0.0, 0.0, note=f"N = {model.N}, tail = {model.tail:.2e}")
            _extend(rep, families, FUNDAMENTAL + MODEL)
        except GridSizeError:
            raise  # a refused size is bad input, not a failed check
        except TetralabError as exc:
            rep.check("battery", float("inf"), 0.0, note=str(exc))
    return [("necessary", necessary), ("model", rep)], {}


def _cmd_blh(args, pol: TolerancePolicy) -> tuple[Reports, dict[str, Any]]:
    theta = tio.symbol_from_obj(_load_json(args.theta_file))
    pair_obj = _load_json(args.symbols_file)
    if not isinstance(pair_obj, dict) or not {"F1", "F2"} <= set(pair_obj):
        raise tio.FormatError('symbols file must contain keys "F1" and "F2"')
    f1 = tio.matrix_from_obj(pair_obj["F1"])
    f2 = tio.matrix_from_obj(pair_obj["F2"])
    n = args.degree if args.degree is not None else theta.degree + 3
    rep = CheckReport(title="symbol extraction")
    extra: dict[str, Any] = {}
    try:
        g1, g2, ext = extract_symbols(theta, f1, f2, n, pol)
    except (NotInnerError, NotDegreeOneError) as exc:
        rep.check("extraction", float("inf"), 0.0, note=str(exc))
        return [("blh", rep)], extra
    rep.extend(ext, prefix="ext_")
    rep.extend(verify_isometry_propagation(f1, f2, g1, g2, n, pol), prefix="prop_")
    extra["extracted"] = {"G1": tio.matrix_to_obj(g1), "G2": tio.matrix_to_obj(g2)}
    return [("blh", rep)], extra


def _aggregate(reports: Reports) -> dict[str, Any]:
    entries = [e for _, rep in reports for e in rep.entries]
    active = [e for e in entries if not e.skipped]
    return {
        "reports": len(reports),
        "reports_passed": sum(1 for _, rep in reports if rep.overall),
        "checks": len(active),
        "checks_passed": sum(1 for e in active if e.passed),
        "checks_skipped": len(entries) - len(active),
        "all_passed": all(rep.overall for _, rep in reports),
    }


def _render_text(bundle: dict[str, Any], reports: Reports) -> str:
    lines = [f"tetralab {bundle['version']} :: {bundle['command']}"]
    config = " ".join(f"{k}={v}" for k, v in sorted(bundle["config"].items()))
    lines.append(f"config: {config}")
    agg = bundle["aggregate"]
    for label, rep in reports:
        lines.append("")
        lines.append(f"== {label} ==")
        lines.append(rep.table())
    lines.append("")
    lines.append(
        f"summary: {agg['reports_passed']}/{agg['reports']} reports, "
        f"{agg['checks_passed']}/{agg['checks']} checks passed, "
        f"{agg['checks_skipped']} skipped -> "
        + ("PASS" if agg["all_passed"] else "FAIL")
    )
    if "extracted" in bundle:
        for key in ("G1", "G2"):
            mat = tio.matrix_from_obj(bundle["extracted"][key])
            lines.append(f"{key} =")
            lines.append(np.array2string(mat, precision=6, suppress_small=True))
    lines.append(f"wall_time_s: {bundle['wall_time_s']:.3f}")
    return "\n".join(lines) + "\n"


def _emit(bundle: dict[str, Any], reports: Reports, fmt: str, out: str | None) -> None:
    """Write the bundle as JSON, or as text with one table per report; the
    tables are rendered only for text."""
    if fmt == "json":
        text = tio.dumps(bundle)
    else:
        text = _render_text(bundle, reports)
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)


_DISPATCH: dict[str, Callable] = {
    "verify-bidisc": _cmd_verify_bidisc,
    "random-suite": _cmd_random_suite,
    "model-check": _cmd_model_check,
    "blh": _cmd_blh,
}

_CONFIG_KEYS = ("degree", "seed", "count", "dim", "tol", "triple_file", "theta_file", "symbols_file")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    start = time.perf_counter()
    try:
        pol = _policy_from(args.tol)
        reports, extra = _DISPATCH[args.command](args, pol)
    except (TetralabError, OSError, ValueError) as exc:
        print(f"tetralab: error: {exc}", file=sys.stderr)
        return 2
    bundle: dict[str, Any] = {
        "tool": "tetralab",
        "version": __version__,
        "command": args.command,
        "config": {
            k: getattr(args, k)
            for k in _CONFIG_KEYS
            if hasattr(args, k) and getattr(args, k) is not None
        },
        "aggregate": _aggregate(reports),
        "reports": [{"label": label, **rep.to_dict()} for label, rep in reports],
        "wall_time_s": round(time.perf_counter() - start, 3),
        **extra,
    }
    try:
        _emit(bundle, reports, args.format, args.out)
    except OSError as exc:
        print(f"tetralab: error: {exc}", file=sys.stderr)
        return 2
    return 0 if bundle["aggregate"]["all_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
