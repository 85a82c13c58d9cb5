"""One tetralab CLI call, measured from inside the process that makes it.

Usage: child.py REPORT TRACE -- TETRALAB-ARGS...

Imports ``tetralab.cli``, optionally installs the tracer (TRACE = 1), runs
``tetralab.cli.main(TETRALAB-ARGS)`` and writes REPORT, a JSON object with
the exit code, the monotonic time at which the import returned, the wall
time of ``main``, the peak resident set and CPU time of the process, and the
tracer summary.  A traced call also writes its spans to REPORT.spans.  The
parent reads the clock before it spawns this process; the two clocks are the
same system-wide monotonic clock.
"""

import json
import resource
import sys
import time

import tetralab.cli

imported = time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str]) -> None:
    report_path, trace, sep, *cli_args = argv
    if sep != "--" or trace not in ("0", "1"):
        raise SystemExit("usage: child.py REPORT TRACE -- TETRALAB-ARGS...")
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    code = tetralab.cli.main(cli_args)
    run_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "exit_code": code,
        "imported": imported,
        "run_s": run_s,
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "trace": tracer.summary() if tracer is not None else None,
    }
    with open(report_path, "w", encoding="utf-8") as fp:
        json.dump(report, fp)
    if tracer is not None:
        with open(report_path + ".spans", "w", encoding="utf-8") as fp:
            json.dump(tracer.spans_table(), fp)


if __name__ == "__main__":
    main(sys.argv[1:])
