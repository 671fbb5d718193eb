"""The traced run: per-layer metrics.

Three parts, in this order:
1. import split -- ``-X importtime`` cumulative times of the package and the
   heavy modules it pulls in, and a bare interpreter start;
2. ROADMAP baseline -- each call of the ROADMAP baseline table, untraced,
   best of 3 repeats, with the arguments in ``_baseline_calls``;
3. a traced pass over the workload's focus, with fixed work so that call
   counts repeat exactly for a seed.  The same work runs once untraced
   first; the difference is ``trace.overhead_frac``.
   * cli-cold: one 32-command CLI cycle and the two fit files, through
     ``cli.main`` in a child process (``child.py``); an op is a command.
   * calib-stream: ``TRACED_CALIB_CYCLES`` calib cycles and one sweep pass
     in process; an op is a request or a table/figure of the sweep.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import ops
import spans
import workloads

IMPORTS = ("trunc_moments", "scipy.optimize", "scipy.special", "scipy.integrate",
           "numpy")
CAPTURE = ("specfun.exp_r2_half_xi", "specfun.log_gamma_upper")
TRACED_CALIB_CYCLES = 10


def _baseline_calls():
    from trunc_moments import calibrate, chi, lognormal, specfun, tables, utgd
    spec = utgd.TruncatedGaussianSpec(0.5, 1.0, 0.0)
    return [
        ("specfun.exp_r2_half_xi", "us", lambda: specfun.exp_r2_half_xi(-1.5)),
        ("specfun.gamma_upper_2.5", "us", lambda: specfun.gamma_upper(2.5, 1.0)),
        ("specfun.gamma_upper_-1.5", "us", lambda: specfun.gamma_upper(-1.5, 1.0)),
        ("kernels.var_form1", "us", lambda: utgd.var_form1(2.0, 0.5)),
        ("kernels.var_form2_series", "us", lambda: utgd.var_form2(1.0, -30.0, 0.0)),
        ("kernels.moment_summary", "us", lambda: utgd.moment_summary(spec)),
        ("kernels.chi_var_form2", "us", lambda: chi.chi_var_form2(1000.0, 2.2, 11.0)),
        ("solvers.r_from_variance", "us", lambda: calibrate.r_from_variance(0.5)),
        ("solvers.calibrate_auto", "us", lambda: calibrate.calibrate_auto(1.3, 3.0, -1.0)),
        ("solvers.chi_calibrate", "us", lambda: chi.chi_calibrate(2.3, 0.95, 2.0)),
        ("solvers.nvmx_search", "us", lambda: chi.nvmx_search(1000.0, 2.2)),
        ("solvers.calibrate_original", "ms", lambda: lognormal.calibrate_original(
            75588.26676, 8.30314328e9, 9.6125, 10.62072268, rounds=3)),
        ("sweeps.table_ndim-variance", "ms", lambda: tables.build_table("ndim-variance")),
        ("sweeps.table_slope-table", "ms", lambda: tables.build_table("slope-table")),
        ("sweeps.plot_nvmx-vs-r", "ms", lambda: tables.plot_series(
            "nvmx-vs-r", None, None, None, 8)),
    ]


SCALE = {"us": 1e6, "ms": 1e3}


def _best_of(fn, repeats: int = 3, target_s: float = 0.02) -> float:
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    number = max(1, int(target_s / max(once, 1e-7)))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, (time.perf_counter() - t0) / number)
    return best


def baseline(spawner, seed, tmp) -> dict:
    out = {}
    for name, unit, fn in _baseline_calls():
        out[f"baseline.{name}.{unit}"] = (_best_of(fn) * SCALE[unit], unit)
    folder = tmp / "fit200k"
    folder.mkdir()
    spec = workloads.fit_files(seed, folder, rows=200_000)[0]
    for name, argv, repeats in [
            ("import", ops.IMPORT_ARGV, 3),
            ("calibrate-gauss_cli", ops.cli_argv(
                ["calibrate-gauss", "--mean", "1.3", "--var", "3.0", "--cutoff", "-1.0"]), 3),
            ("fit_200k", ops.cli_argv(spec["argv"]), 2)]:
        best = min(spawner.run(argv)[0] for _ in range(repeats))
        out[f"baseline.e2e.{name}.s"] = (best, "s")
    return out


def import_split(spawner) -> dict:
    bare = [spawner.run([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    cumulative = {name: [] for name in IMPORTS}
    for _ in range(3):
        _, _, _, err, _ = spawner.run(
            [sys.executable, "-X", "importtime", "-c", "import trunc_moments"])
        seen = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                if name in cumulative and name not in seen:
                    seen[name] = int(parts[1]) / 1e3
        for name in IMPORTS:
            cumulative[name].append(seen.get(name, 0.0))
    out = {"interp_start_ms": (statistics.median(bare) * 1e3, "ms")}
    for name in IMPORTS:
        out[f"import.{name}.ms"] = (statistics.median(cumulative[name]), "ms")
    return out


# -- traced passes -------------------------------------------------------------

def _traced_cli(spawner, seed, tmp, golden, tally):
    batch = workloads.cli_batch(seed)
    specs = workloads.fit_files(seed, tmp)
    commands = [argv for argv, _ in batch] + [s["argv"] for s in specs]
    reports = []
    for trace in (False, True):
        job = {"commands": commands, "trace": trace,
               "ops_out": str(tmp / f"ops-{int(trace)}.json"),
               "spans_out": str(ops.OUT / f"spans-cli-cold-{seed}.tsv.gz")}
        job_path = tmp / f"job-{int(trace)}.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        _, rc, _, err, _ = spawner.run(
            [sys.executable, str(ops.HERE / "child.py"), str(job_path)])
        if rc != 0:
            ops.fail(f"traced child failed:\n{err}")
        reports.append(json.loads((tmp / f"ops-{int(trace)}.json").read_text()))
    plain, traced = reports
    g_check = workloads.rng(seed, workloads.CHECK)
    for (argv, codes), (rc, out, err) in zip(batch, traced["results"]):
        ops.check_cli(argv, codes, rc, out, err, golden, tally, g_check)
    for spec, (rc, out, err) in zip(specs, traced["results"][len(batch):]):
        ops.check_fit(spec, rc, out, err, tally)
    layer = traced["layers"]
    layer["trace.overhead_frac"] = traced["wall_ns"] / plain["wall_ns"] - 1.0
    return layer


def _traced_calib(seed, golden, tally):
    import trunc_moments
    g = workloads.rng(seed, workloads.CALIB)
    reqs = [r for _ in range(TRACED_CALIB_CYCLES) for r in workloads.calib_cycle(g)]
    t0 = time.perf_counter_ns()
    ops.run_requests(reqs)
    ops.sweep_pass()
    plain = time.perf_counter_ns() - t0

    tracer = spans.Tracer(trunc_moments, capture=CAPTURE,
                          keep_results=("calibrate.calibrate_auto",))
    t0 = time.perf_counter_ns()
    done = ops.run_requests(reqs, tracer=tracer)
    items, _ = ops.sweep_pass(tracer=tracer)
    traced = time.perf_counter_ns() - t0
    tracer.uninstall()

    ops.check_requests(done, tally)
    ops.check_sweep(items, golden, tally, workloads.rng(seed, workloads.SWEEP))
    layer = spans.layer_metrics(tracer.summary(), len(reqs) + len(items), tracer)
    tracer.write(ops.OUT / f"spans-calib-stream-{seed}.tsv.gz")
    layer["trace.overhead_frac"] = traced / plain - 1.0
    return layer


def traced(spawner, workload, seed, tmp, golden):
    tally = ops.Tally()
    found = {}
    found["machine.yardstick_ms"] = (statistics.median(ops.yardstick() for _ in range(5)), "ms")
    found.update(import_split(spawner))
    found.update(baseline(spawner, seed, tmp))
    if workload == "cli-cold":
        layer = _traced_cli(spawner, seed, tmp, golden, tally)
    else:
        layer = _traced_calib(seed, golden, tally)
    tally.correct &= ops.reference_examples()
    for name, value in layer.items():
        found[name] = (value, spans.UNITS[name.rsplit(".", 1)[-1]])
    metrics = {}
    for name in sorted(found):
        value, unit = found[name]
        ops.metric(metrics, name, value, unit)
    return metrics, tally
