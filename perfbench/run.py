#!/usr/bin/env python3
"""trunc-moments benchmark.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and the CLI is started as ``python3 -m trunc_moments`` with
``src`` on PYTHONPATH, which is what the ``trunc-moments`` console script
runs.  Every run measures all four phases -- cli-cold, fit-file,
calib-stream and sweep -- so that each prints every end-to-end metric; the
workload decides how much work each phase gets.  See
perfbench/README.md for the phases, metrics and checks.

With ``--trace 1`` the run prints the per-layer metrics instead (see
layers.py).  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import ops
import workloads

NOMINAL_S = 40.0
# workload -> CLI cycle, calib cycles, sweep passes and fit rounds (each
# fit file once) per NOMINAL_S of --seconds.  Fixed counts, so that a
# seed's attempted and failed counts repeat exactly; both workloads also
# run SETUP_IMPORTS fresh imports.  cli-cold gives the process phases their
# largest samples (87% of its busy time), calib-stream the in-process ones
# (52%); each still runs every phase, so that it prints every metric.
PLAN = {
    "cli-cold": (workloads.CLI_CYCLE, 80, 8, 2),
    "calib-stream": (workloads.CLI_CALIB, 560, 8, 1),
}
SETUP_IMPORTS = 3
# a yardstick after every YARD_EVERY-th calib cycle, besides two per round
# and one after each sweep pass
YARD_EVERY = 4


def spread(total: int, rounds: int) -> set[int]:
    """``total`` rounds out of ``rounds``, evenly spaced."""
    return {int((k + 0.5) * rounds / total) for k in range(total)}


def untraced(spawner, workload, seed, seconds, tmp, golden):
    """All phases, interleaved round by round so that each phase samples
    the whole run rather than one stretch of it: round i runs CLI command
    i, then calib cycles and sweep passes until their share of the rounds
    so far is done, and the set-up imports and fit invocations at evenly
    spaced rounds.  One client, closed loop."""
    cycle, calib_cycles, sweep_passes, fit_rounds = PLAN[workload]
    scale = seconds / NOMINAL_S
    calib_cycles = max(1, round(calib_cycles * scale))
    sweep_passes = max(1, round(sweep_passes * scale))
    fit_rounds = max(1, round(fit_rounds * scale))
    tally = ops.Tally()
    g_check, g_sweep = workloads.rng(seed, workloads.CHECK), workloads.rng(seed, workloads.SWEEP)
    g_calib = workloads.rng(seed, workloads.CALIB)
    batch = workloads.cli_batch(seed, cycle, max(1, round(scale)))
    specs = workloads.fit_files(seed, tmp)
    rounds = len(batch)
    setup_at = spread(SETUP_IMPORTS, rounds)
    fit_at = dict(zip(sorted(spread(fit_rounds * len(specs), rounds)), specs * fit_rounds))

    setup, cli_lat, cli_rss, fit_wall, fit_rss = [], [], [], [], []
    calib_lat, calib_ok, calib_busy, digits = [], 0, 0.0, float("inf")
    sweep_rates, sweep_busy = [], 0.0
    yard = []
    for i, (argv, codes) in enumerate(batch):
        yard.append(ops.yardstick())
        if i in setup_at:
            wall, rc, _, err, _ = spawner.run(ops.IMPORT_ARGV)
            if rc != 0:
                ops.fail(f"import failed:\n{err}")
            setup.append(wall)
        wall, rc, out, err, mb = spawner.run(ops.cli_argv(argv))
        cli_lat.append(wall * 1e3)
        cli_rss.append(mb)
        ops.check_cli(argv, codes, rc, out, err, golden, tally, g_check)
        if i in fit_at:
            spec = fit_at[i]
            wall, rc, out, err, mb = spawner.run(ops.cli_argv(spec["argv"]))
            fit_wall.append(wall)
            fit_rss.append(mb)
            ops.check_fit(spec, rc, out, err, tally)
        share = (i + 1) / rounds
        while len(calib_lat) < round(calib_cycles * share) * len(workloads.CALIB_CYCLE):
            done = ops.run_requests(workloads.calib_cycle(g_calib))
            calib_busy += sum(ns for _, _, ns in done) / 1e9
            calib_lat += [ns / 1e3 for _, _, ns in done]
            n_ok, worst = ops.check_requests(done, tally)
            calib_ok += n_ok
            digits = min(digits, worst)
            if len(calib_lat) % (YARD_EVERY * len(done)) == 0:
                yard.append(ops.yardstick())
        while len(sweep_rates) < round(sweep_passes * share):
            t0 = time.perf_counter()
            items, points = ops.sweep_pass()
            busy = time.perf_counter() - t0
            sweep_busy += busy
            sweep_rates.append(points / busy)
            ops.check_sweep(items, golden, tally, g_sweep)
            yard.append(ops.yardstick())
        yard.append(ops.yardstick())
    tally.correct &= ops.reference_examples()

    # Timings are scaled to a 5.0 ms yardstick by the square root of the
    # speed ratio, the elasticity measured on the host (see README).
    k = (ops.YARDSTICK_REF_MS / median(yard)) ** 0.5
    print(f"yardstick: median {median(yard):.4f} ms of {len(yard)}; scale {k:.4f}")
    busy_s = {"setup": sum(setup), "cli": sum(cli_lat) / 1e3, "fit": sum(fit_wall),
              "calib": calib_busy, "sweep": sweep_busy}
    print("busy s by phase: " + ", ".join(f"{phase} {t:.2f}" for phase, t in busy_s.items()))
    print("failed/attempted by phase: " + ", ".join(
        f"{phase} {f}/{n}" for phase, (n, f) in tally.phases.items()))
    m: dict = {}
    tail, label = ops.tail, ops.tail_label

    def scaled(name, raw, unit, note, rate=False):
        ops.metric(m, name, raw / k if rate else raw * k, unit, f"{note}; raw {raw:.6g}")

    scaled("setup_s", median(setup), "s", f"median of {len(setup)} fresh imports")
    ops.metric(m, "fail_frac", tally.fail_frac(), "ratio",
               f"mean over {len(tally.phases)} phases; {tally.failed} of {tally.attempted} operations")
    n = len(cli_lat)
    scaled("cli_p50_ms", median(cli_lat), "ms", f"n={n}")
    scaled("cli_tail_ms", tail(cli_lat), "ms", f"{label(n)}, n={n}")
    ops.metric(m, "cli_peak_rss_mb", max(cli_rss), "MB", f"max of n={n}")
    n = len(calib_lat)
    scaled("calib_goodput_per_s", calib_ok / calib_busy, "1/s", f"n={n}", rate=True)
    scaled("calib_p50_us", median(calib_lat), "us", f"n={n}")
    scaled("calib_tail_us", tail(calib_lat), "us", f"{label(n)}, n={n}")
    ops.metric(m, "calib_digits", digits, "digits", "worst over correct calibrations")
    scaled("sweep_points_per_s", median(sweep_rates), "1/s",
           f"median of {len(sweep_rates)} passes", rate=True)
    rows = specs[0]["rows"]
    # total rows over total time: the two files parse at different rates,
    # and the median of a few invocations of each picks its extremes
    scaled("fit_rows_per_s", rows * len(fit_wall) / sum(fit_wall), "1/s",
           f"{len(fit_wall)} invocations of {rows} rows", rate=True)
    ops.metric(m, "fit_peak_rss_mb", max(fit_rss), "MB", f"max of n={len(fit_rss)}")
    return m, tally


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PLAN))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ops.SRC / "trunc_moments" / "__init__.py").is_file():
        ops.fail(f"no package source under {ops.SRC}; run from a source checkout")
    golden_dir = ops.ROOT / "tests" / "golden"
    golden = {p.stem: p.read_text(encoding="utf-8")
              for p in sorted(golden_dir.glob("*.tsv"))}
    if not golden:
        ops.fail(f"no golden tables under {golden_dir}")
    sys.path.insert(0, str(ops.SRC))
    import trunc_moments
    if Path(trunc_moments.__file__).resolve().parent != (ops.SRC / "trunc_moments").resolve():
        ops.fail(f"imported trunc_moments from {trunc_moments.__file__}, not {ops.SRC}")

    ops.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=ops.OUT))
    spawner = ops.Spawner(tmp)
    try:
        if args.trace:
            import layers
            metrics, tally = layers.traced(spawner, args.workload, args.seed, tmp, golden)
        else:
            metrics, tally = untraced(spawner, args.workload, args.seed, args.seconds,
                                      tmp, golden)
    finally:
        spawner.close()
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
