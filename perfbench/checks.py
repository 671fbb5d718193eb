"""Output checks.  Each returns True when the output is right; a False, an
exception, an unexpected exit code or a traceback counts the operation as
failed.  Known failures are counted like any other, never filtered out.

Tolerances:
* library calibrations: relative error of the reproduced mean (scaled by
  |mean - cutoff|) and variance at most 1e-9; calibrate_original, a fixed
  3-round iteration, at most 1e-6;
* CLI JSON, printed to 8 decimals: 1e-6 relative;
* tables: byte-identical to tests/golden; plot-data: each checked value
  within one unit of its last printed digit of the mpmath value.
"""

from __future__ import annotations

import json
import math

import refs

CALIB_TOL = 1e-9
LOGNORMAL_TOL = 1e-6
CLI_TOL = 1e-6
PLOT_ROWS_CHECKED = 2


def _rel(got, want, scale=None) -> float:
    want = float(want)
    return abs(float(got) - want) / (abs(scale) if scale else abs(want) or 1.0)


# -- calib-stream -------------------------------------------------------------

def calib_error(req: dict, out) -> float:
    """Largest relative error of the moments that a library result
    reproduces, against the request's targets."""
    kind = req["kind"]
    if kind in ("gauss", "deep-low", "deep-high"):
        m, v = refs.tg_moments(out.mu0, out.sigma0, req["a"], req["side"])
        return max(_rel(m, req["M"], req["M"] - req["a"]), _rel(v, req["V"]))
    if kind in ("chi-inner", "chi-outer"):
        _, sigma, cut = out
        lower, upper = (cut, math.inf) if req["trunc"] == "inner" else (0.0, cut)
        m, v = refs.chi_moments(sigma, req["n"], lower, upper, req["trunc"])
        return max(_rel(m, req["M"]), _rel(v, req["V"]))
    if kind == "lognormal":
        m, v = refs.lognormal_back(out.mu0, out.sigma0, req["a"])
        return max(_rel(m, req["M"]), _rel(v, req["V"]))
    raise ValueError(kind)


def nvmx_ok(req: dict, rep, full: bool) -> bool:
    """The reported maximum matches the mpmath variance at the reported n;
    with ``full`` also that n is a local maximum."""
    want = req["M"] ** 2 * refs.chi_vhat(req["r"], rep.n_vmx_real)
    if _rel(rep.vmax_real, want) > CALIB_TOL:
        return False
    return not full or refs.is_local_max(req["r"], rep.n_vmx_real)


# -- tables and plot-data -----------------------------------------------------

def table_ok(text: str, golden: dict[str, str], name: str) -> bool:
    return text == golden[name]


def plot_ok(figure: str, rows: list[str], g) -> bool:
    """Check PLOT_ROWS_CHECKED seeded data rows of a plot-data table
    against mpmath."""
    data = rows[1:]
    if not data:
        return False
    for i in g.choice(len(data), size=min(PLOT_ROWS_CHECKED, len(data)), replace=False):
        cells = data[int(i)].split("\t")
        digits = len(cells[1].split(".")[1]) if "." in cells[1] else 0
        vals = [float(c) for c in cells[1:]]
        guess = vals[1] if figure == "nvmx-vs-r" else None
        want = refs.plot_row(figure, float(cells[0]), guess)
        if len(want) != len(vals):
            return False
        unit = 10.0 ** -digits
        if any(abs(v - float(w)) > unit for v, w in zip(vals, want)):
            return False
    return True


# -- CLI commands -------------------------------------------------------------

def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def cli_ok(argv: list[str], rc: int, out: str, err: str, ok_codes: set[int],
           golden: dict[str, str], g) -> bool:
    if rc not in ok_codes or "Traceback" in err:
        return False
    if rc != 0 and not out:
        return True  # a diagnostic with the documented exit code
    cmd = argv[0]
    if cmd == "table":
        return table_ok(out, golden, _opt(argv, "--name"))
    if cmd == "plot-data":
        return plot_ok(_opt(argv, "--figure"), out.rstrip("\n").split("\n"), g)
    res = json.loads(out)
    if cmd == "calibrate-gauss":
        M, V, a = (float(_opt(argv, f)) for f in ("--mean", "--var", "--cutoff"))
        m, v = refs.tg_moments(res["mu"], res["sigma"], a, res["side"])
        scale = abs(M - a)
        if (_rel(m, res["achieved_mean"], scale) > CLI_TOL
                or _rel(v, res["achieved_var"]) > CLI_TOL):
            return False
        return rc != 0 or (_rel(m, M, scale) <= CLI_TOL and _rel(v, V) <= CLI_TOL)
    if cmd == "calibrate-chi":
        M, V, n = (float(_opt(argv, f)) for f in ("--mean", "--var", "--dim"))
        kind = res["trunc"]
        lower, upper = {"inner": (res["cutoff"], math.inf),
                        "outer": (0.0, res["cutoff"]),
                        "double": (res["cutoff"], res.get("upper"))}[kind]
        m, v = refs.chi_moments(res["sigma"], n, lower, upper, kind)
        if kind == "double":
            return _rel(m, M) <= CLI_TOL and _rel(v, res["achieved_var"]) <= CLI_TOL
        return _rel(m, M) <= CLI_TOL and _rel(v, V) <= CLI_TOL
    if cmd == "vmax":
        r, M = float(_opt(argv, "--r")), float(_opt(argv, "--mean", "1"))
        want = M * M * refs.chi_vhat(r, res["n_vmx_real"])
        return (_rel(res["vmax_real"], want) <= CLI_TOL
                and refs.is_local_max(r, res["n_vmx_real"]))
    return False


def fit_ok(spec: dict, rc: int, out: str, err: str) -> bool:
    """Counts and sample moments must match the generated data exactly (to
    print precision); the model's sigma must recover the generating one
    within sampling error."""
    if rc != 0 or "Traceback" in err:
        return False
    res = json.loads(out)
    if res["count"] != spec["rows"]:
        return False
    if (abs(res["sample_mean"] - spec["mean"]) > 1e-7 * max(1.0, abs(spec["mean"]))
            or _rel(res["sample_var"], spec["var"]) > 1e-7):
        return False
    est = res["sigma_estimates"]
    sigma = est["form2"] if res["model"] == "gauss" else est["mean_based"]
    return sigma is not None and _rel(sigma, spec["sigma"]) <= 0.03
