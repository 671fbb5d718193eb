"""Runs a batch of CLI commands through ``cli.main`` in one process.

    python3 perfbench/child.py JOB.json

JOB holds ``commands`` (argv lists), ``trace`` (bool), ``ops_out`` (where
the results go) and ``spans_out``.  Without tracing it only times the
batch, which is the reference for the tracing overhead.  A command that
raises is recorded as the interpreter would report it: exit code 1 and a
traceback.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import spans


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    import trunc_moments
    from trunc_moments import cli

    tracer = None
    if job["trace"]:
        tracer = spans.Tracer(
            trunc_moments,
            capture=("specfun.exp_r2_half_xi", "specfun.log_gamma_upper"),
            keep_results=("calibrate.calibrate_auto",))
    results = []
    t0 = time.perf_counter_ns()
    for argv in job["commands"]:
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin(f"bench.cli.{argv[0]}")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # what the interpreter would print, then exit 1
                import traceback
                traceback.print_exc()
                rc = 1
        if tracer:
            tracer.end(rc == 0)
        results.append([rc, out.getvalue(), err.getvalue()])
    wall = time.perf_counter_ns() - t0

    report = {"wall_ns": wall, "results": results}
    if tracer:
        tracer.uninstall()
        summ = tracer.summary()
        report["layers"] = spans.layer_metrics(summ, len(job["commands"]), tracer)
        tracer.write(job["spans_out"])
    with open(job["ops_out"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
