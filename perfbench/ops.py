"""Operations shared by the untraced and the traced run: child processes,
library requests, sweep passes, and the bookkeeping of their checks."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

IMPORT_ARGV = [sys.executable, "-c", "import trunc_moments"]


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail(xs):
    """The highest sample with at least 10 samples beyond it."""
    s = sorted(xs)
    return s[max(0, len(s) - 11)]


def tail_label(n: int) -> str:
    return f"p{100.0 * max(0, n - 10) / n:.2f}"


def metric(out: dict, name: str, value: float, unit: str, note: str = "") -> None:
    out[name] = {"value": value, "unit": unit}
    print(f"{name:<40} {value:>14.6g} {unit:<8} {note}")


YARDSTICK_REF_MS = 5.0


def yardstick() -> float:
    """Milliseconds for a fixed loop of float arithmetic, math calls and
    number formatting and parsing -- the kinds of work the package and its
    CLI do -- that uses no code of the package: a gauge of how fast this
    machine runs Python at the moment."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(3000):
        x = i * 1e-4
        acc += math.exp(-x) * (1.0 + x * (0.5 + x * (0.25 + x * 0.125)))
        acc += float(f"{i},{x!r}".split(",")[1])
    return (time.perf_counter() - t0) * 1e3


class Tally:
    """Operations attempted and failed, per phase.  ``correct`` turns false
    only when a deterministic reference -- a golden table or a published
    worked example -- does not reproduce."""

    def __init__(self):
        self.phases: dict[str, list[int]] = {}
        self.correct = True

    def add(self, phase: str, ok: bool) -> None:
        counts = self.phases.setdefault(phase, [0, 0])
        counts[0] += 1
        counts[1] += not ok

    @property
    def attempted(self) -> int:
        return sum(n for n, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())

    def fail_frac(self) -> float:
        """The mean of the phases' failure fractions, so that a phase with
        few operations (a dozen CLI commands, 2 fits) weighs as much as
        one with thousands (calib requests)."""
        return sum(f / n for n, f in self.phases.values()) / len(self.phases)


# an exception that a check raises on a malformed or degenerate output
CHECK_ERRORS = (ArithmeticError, LookupError, TypeError, ValueError)


def checked(fn, *args) -> bool:
    """fn(*args), with an exception counted as a failed check."""
    try:
        return bool(fn(*args))
    except CHECK_ERRORS:
        return False


# -- child processes ------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("TRUNC_MOMENTS_PRECISION", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "trunc_moments", *args]


class Spawner:
    """Runs child processes one at a time through spawner.py, which
    reports each child's own wall time, exit code and peak RSS."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "spawner.py")], env=child_env(),
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]):
        """Returns (wall s, exit code, stdout, stderr, peak RSS MB)."""
        out, err = self.tmp / "child.out", self.tmp / "child.err"
        self.proc.stdin.write(json.dumps([argv, str(out), str(err)]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            fail("the spawner process exited")
        wall, rc, rss_kb = json.loads(reply)
        return (wall, rc, out.read_text("utf-8", "replace"),
                err.read_text("utf-8", "replace"), rss_kb / 1024.0)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def check_cli(argv, codes, rc, out, err, golden, tally, g) -> None:
    ok = checked(checks.cli_ok, argv, rc, out, err, codes, golden, g)
    if argv[0] == "table" and rc == 0 and not ok:
        tally.correct = False
    tally.add("cli", ok)


def check_fit(spec, rc, out, err, tally) -> None:
    tally.add("fit", checked(checks.fit_ok, spec, rc, out, err))


# -- calib-stream ---------------------------------------------------------------

def call_library(req: dict):
    from trunc_moments import calibrate, chi, lognormal
    kind = req["kind"]
    if kind in ("gauss", "deep-low", "deep-high"):
        return calibrate.calibrate_auto(req["M"], req["V"], req["a"], req["side"])
    if kind in ("chi-inner", "chi-outer"):
        return chi.chi_calibrate(req["M"], req["V"], req["n"], req["trunc"])
    if kind == "nvmx":
        return chi.nvmx_search(req["M"], req["r"])
    return lognormal.calibrate_original(req["M"], req["V"], req["a"],
                                        req["mu_seed"], rounds=3)


def run_requests(reqs, tracer=None, clock=time.perf_counter_ns):
    """Closed loop, one client: each request after the previous returned.
    Returns (request, result or None, latency ns) per request."""
    done = []
    for req in reqs:
        if tracer:
            tracer.begin(f"bench.calib.{req['kind']}")
        t0 = clock()
        try:
            out = call_library(req)
        except Exception:  # a failed request; counted, and the stream goes on
            out = None
        done.append((req, out, clock() - t0))
        if tracer:
            tracer.end(out is not None)
    return done


def check_requests(done, tally) -> tuple[int, float]:
    """Returns the number of correct results, and the worst -log10 error
    over the Gaussian and chi calibrations that count as correct.  A
    calibrate_auto result must also meet its own 1e-12 residual target:
    one that stops above it is a failed request, even when it reproduces
    the targets to CALIB_TOL.  chi_calibrate reports no residuals, so its
    results are judged by their error alone; calibrate_original runs a
    fixed number of rounds and is checked but not sampled."""
    n_ok, worst = 0, math.inf
    for i, (req, out, _) in enumerate(done):
        kind = req["kind"]
        if out is None:
            ok = False
        elif kind == "nvmx":
            ok = checked(checks.nvmx_ok, req, out, i % 8 == 0)
        elif kind == "lognormal":
            ok = checked(lambda: checks.calib_error(req, out) <= checks.LOGNORMAL_TOL)
        else:
            try:
                err = checks.calib_error(req, out)
            except CHECK_ERRORS:
                err = math.inf
            ok = err <= checks.CALIB_TOL
            if not kind.startswith("chi"):
                ok &= max(out.mean_resid, out.var_resid) <= 1e-12
            if ok:
                worst = min(worst, -math.log10(max(err, 1e-17)))
        n_ok += ok
        tally.add("calib", ok)
    return n_ok, worst


# -- sweep ----------------------------------------------------------------------

def sweep_pass(tracer=None):
    """Every table and figure once; returns [(kind, name, rows or None)]
    and the number of result rows."""
    from trunc_moments import tables
    lo, hi, step = workloads.SWEEP_R
    jobs = [("table", name, (name,)) for name in workloads.TABLES]
    jobs += [("plot", fig, (None, None, None, 8) if fig in ("nvmx-vs-r", "vmax-vs-n")
              else (lo, hi, step, 8)) for fig in workloads.FIGURES]
    out = []
    for kind, name, args in jobs:
        if tracer:
            tracer.begin(f"bench.sweep.{kind}")
        try:
            rows = (tables.build_table(*args) if kind == "table"
                    else tables.plot_series(name, *args))
        except Exception:  # counted as a failed item
            rows = None
        if tracer:
            tracer.end(rows is not None)
        out.append((kind, name, rows))
    return out, sum(len(rows) - 1 for _, _, rows in out if rows)


def check_sweep(items, golden, tally, g) -> None:
    for kind, name, rows in items:
        if rows is None:
            ok = False
        elif kind == "table":
            ok = checks.table_ok("\n".join(rows) + "\n", golden, name)
            tally.correct &= ok
        else:
            ok = checked(checks.plot_ok, name, rows, g)
        tally.add("sweep", ok)


def reference_examples() -> bool:
    """Worked examples from the README and the tests, with their published
    values."""
    from trunc_moments import calibrate, chi, lognormal
    res = calibrate.calibrate_auto(1.3, 3.0, -1.0)
    ok = abs(res.mu0 + 0.9408026549) <= 1e-9 and abs(res.sigma0 - 2.8554940214) <= 1e-9
    ok &= chi.nvmx_search(1000.0, 2.2).n_vmx_int == 11
    ok &= abs(chi.chi_var_form2(1000.0, 2.2, 11.0) - 36227.76857) <= 1e-5
    inc = lognormal.calibrate_original(75588.26676, 8.30314328e9, 9.6125,
                                       10.62072268, rounds=3)
    ok &= abs(inc.mu0 - 10.53367109) <= 5e-5 and abs(inc.sigma0 - 1.02333081) <= 5e-5
    return bool(ok)
