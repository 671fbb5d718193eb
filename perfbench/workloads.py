"""Seeded input generators.

Every phase draws from its own stream, ``np.random.default_rng([seed, k])``,
so that the inputs of one phase do not depend on how many another consumed.
The category mix of each phase is a fixed cycle whose order is shuffled per
cycle; only parameter values and order vary with the seed.  The generators
use no code of the package: attainable bounds come from math.lgamma.
"""

from __future__ import annotations

import math

import numpy as np

CALIB, CLI, FIT, SWEEP, CHECK = 1, 2, 3, 4, 5

# one calib-stream cycle: 50 requests, 2% calibrate_original
CALIB_CYCLE = (["gauss"] * 30 + ["deep-low"] * 4 + ["deep-high"] * 4
               + ["chi-inner"] * 4 + ["chi-outer"] * 4 + ["nvmx"] * 3
               + ["lognormal"])

TABLES = ("mu-sigma-r", "ndim-variance", "limits", "slope-table")
FIGURES = ("var-vs-r", "dvar-vs-r", "kurtosis", "slope-form1", "nvmx-vs-r",
           "vmax-vs-n")

# the calibration and vmax commands, and the 2 infeasible or invalid ones:
# 11, the fewest that give a tail with 10 samples beyond it
CLI_CALIB = (["gauss-auto", "gauss-approx1", "gauss-approx2", "gauss-two-point",
              "gauss-point-slope"]
             + ["chi-inner", "chi-outer", "chi-double", "vmax"]
             + ["bad-var", "bad-vmax"])
# one cli-cold cycle: 32 commands, every table and figure once
CLI_CYCLE = (CLI_CALIB + ["gauss-auto"] * 7 + ["chi-inner", "chi-outer", "vmax", "vmax"]
             + [f"table:{name}" for name in TABLES]
             + [f"plot:{fig}" for fig in FIGURES])
DIMS = (1.0, 2.0, 3.0, 5.0, 8.0)

# the sweep: every table, and the utgd figures over r in [-60, 38] at step
# 0.01, across the -20 series cut and the -10 shape cut
SWEEP_R = (-60.0, 38.0, 0.01)


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def chi_var_sup(M: float, n: float) -> float:
    """Untruncated variance: the supremum of the inner-truncation variance."""
    g = math.exp(math.lgamma(n / 2.0) - math.lgamma((n + 1.0) / 2.0))
    return M * M * (0.5 * n * g * g - 1.0)


def chi_window_mean_sup(n: float, lower: float, upper: float) -> float:
    """Supremum of the mean of a chi(n) law truncated to [lower, upper]: its
    limit as sigma grows, where the density tends to x**(n-1) on the
    window.  The mean rises from ``lower`` towards it as sigma grows."""
    return n / (n + 1.0) * (upper ** (n + 1) - lower ** (n + 1)) / (upper ** n - lower ** n)


def _loguniform(g, lo: float, hi: float) -> float:
    return float(10.0 ** g.uniform(math.log10(lo), math.log10(hi)))


# -- calib-stream -------------------------------------------------------------

def _calib_request(g, kind: str) -> dict:
    if kind in ("gauss", "deep-low", "deep-high"):
        a = float(g.uniform(-5.0, 5.0))
        d = _loguniform(g, 0.1, 100.0)
        if kind == "gauss":
            vhat = float(g.uniform(1e-9, 1.0))
        elif kind == "deep-low":
            vhat = _loguniform(g, 1e-12, 0.018)
        else:
            vhat = 1.0 - _loguniform(g, 1e-12, 0.01)
        side = "left" if g.random() < 0.5 else "right"
        M = a + d if side == "left" else a - d
        return {"kind": kind, "M": M, "V": vhat * d * d, "a": a, "side": side}
    if kind in ("chi-inner", "chi-outer"):
        n = float(g.choice(DIMS))
        M = _loguniform(g, 0.1, 1000.0)
        sup = chi_var_sup(M, n)
        f = float(g.uniform(0.05, 0.95))
        if kind == "chi-inner":
            V = f * sup
        else:
            lo = M * M / (n * (n + 2.0))
            V = lo + f * (sup - lo)
        return {"kind": kind, "M": M, "V": V, "n": n,
                "trunc": kind.split("-")[1]}
    if kind == "nvmx":
        return {"kind": kind, "M": _loguniform(g, 1.0, 1000.0),
                "r": _loguniform(g, 0.05, 10.0)}
    # original-scale targets of a census-like log-income model; the targets
    # themselves come from the mpmath back-transform
    from refs import lognormal_back
    a = float(g.uniform(8.0, 11.0))
    sigma = float(g.uniform(0.3, 1.5))
    mu = a + float(g.uniform(-1.0, 2.0)) * sigma
    M_y, V_y = lognormal_back(mu, sigma, a)
    return {"kind": kind, "M": float(M_y), "V": float(V_y), "a": a,
            "mu_seed": mu + float(g.uniform(-0.1, 0.1))}


def calib_cycle(g) -> list[dict]:
    return [_calib_request(g, k) for k in g.permutation(CALIB_CYCLE)]


# -- cli-cold -----------------------------------------------------------------

def _gauss_argv(g, vlo: float, vhi: float, side: str | None = None):
    a = round(float(g.uniform(-3.0, 3.0)), 4)
    d = round(float(g.uniform(0.5, 5.0)), 4)
    vhat = float(g.uniform(vlo, vhi))
    side = side or ("left" if g.random() < 0.5 else "right")
    M = a + d if side == "left" else a - d
    V = round(vhat * d * d, 6)
    return ["calibrate-gauss", "--mean", repr(M), "--var", repr(V),
            "--cutoff", repr(a), "--side", side]


def _cli_command(g, kind: str) -> tuple[list[str], set[int]]:
    """argv and the exit codes that count as success."""
    if kind == "gauss-auto":
        return _gauss_argv(g, 0.05, 0.95), {0}
    if kind == "gauss-approx1":
        return _gauss_argv(g, 0.35, 0.9) + ["--method", "approx1"], {0, 2}
    if kind == "gauss-approx2":
        return _gauss_argv(g, 0.02, 0.25) + ["--method", "approx2"], {0, 2}
    if kind in ("gauss-two-point", "gauss-point-slope"):
        return _gauss_argv(g, 0.1, 0.9, "left") + ["--method", kind[6:]], {0, 2}
    if kind.startswith("chi-"):
        n = float(g.choice(DIMS))
        M = round(_loguniform(g, 0.5, 50.0), 4)
        sup = chi_var_sup(M, n)
        f = float(g.uniform(0.1, 0.9))
        argv = ["calibrate-chi", "--mean", repr(M), "--dim", repr(n)]
        if kind == "chi-inner":
            return argv + ["--var", repr(round(f * sup, 6))], {0}
        if kind == "chi-outer":
            lo = M * M / (n * (n + 2.0))
            return argv + ["--var", repr(round(lo + f * (sup - lo), 6)),
                           "--trunc", "outer"], {0}
        while True:  # a window whose attainable means include M
            lower = round(M * float(g.uniform(0.2, 0.8)), 4)
            upper = round(M * float(g.uniform(1.2, 2.0)), 4)
            if chi_window_mean_sup(n, lower, upper) > 1.05 * M:
                break
        return argv + ["--var", repr(round(0.05 * M * M, 6)), "--trunc",
                       "double", "--lower", repr(lower),
                       "--upper", repr(upper)], {0}
    if kind == "vmax":
        argv = ["vmax", "--r", repr(round(_loguniform(g, 0.1, 5.0), 4)),
                "--mean", repr(round(_loguniform(g, 1.0, 100.0), 3))]
        return argv + (["--integer-n"] if g.random() < 0.3 else []), {0}
    if kind.startswith("table:"):
        return ["table", "--name", kind[6:]], {0}
    if kind.startswith("plot:"):
        fig = kind[5:]
        if fig in ("nvmx-vs-r", "vmax-vs-n"):
            lo = round(float(g.uniform(0.25, 4.0)), 2)
        else:
            lo = round(float(g.uniform(-8.0, 4.0)), 2)
        return ["plot-data", "--figure", fig, "--min", repr(lo),
                "--max", repr(round(lo + 1.0, 2)), "--step", "0.05"], {0}
    if kind == "bad-var":
        argv = _gauss_argv(g, 0.5, 0.5, "left")
        d = float(argv[2]) - float(argv[6])
        argv[4] = repr(round(d * d * float(g.uniform(1.01, 3.0)), 6))
        return argv, {2}
    return ["vmax", "--r", "0"], {1, 2}


def cli_batch(seed: int, cycle=CLI_CYCLE, cycles: int = 1) -> list[tuple[list[str], set[int]]]:
    """CLI cycles, each in seeded order: (argv, exit codes that count as
    success) per command."""
    g = rng(seed, CLI)
    return [_cli_command(g, str(k)) for _ in range(cycles) for k in g.permutation(cycle)]


# -- fit-file -----------------------------------------------------------------

FIT_ROWS = 1_000_000


def fit_files(seed: int, folder, rows: int = FIT_ROWS) -> list[dict]:
    """A Gaussian CSV read by header name and a chi whitespace file read by
    column index, each with ``rows`` data rows inside the truncation window."""
    g = rng(seed, FIT)
    a = round(float(g.uniform(-2.0, 2.0)), 3)
    mu = a + float(g.uniform(-0.5, 2.0))
    sigma = float(g.uniform(0.5, 3.0))
    x = np.empty(0)
    while x.size < rows:
        draw = g.normal(mu, sigma, 2 * rows)
        x = np.concatenate([x, draw[draw >= a]])
    x = x[:rows]
    gauss = folder / "gauss.csv"
    with open(gauss, "w", encoding="utf-8") as fh:
        fh.write("# truncated Gaussian sample\nid,value,weight\n")
        fh.writelines(f"{i},{v!r},1\n" for i, v in enumerate(x.tolist()))

    n = float(g.choice(DIMS))
    s_chi = float(g.uniform(0.5, 2.0))
    lower = round(s_chi * float(g.uniform(0.2, 1.5)), 3)
    y = np.empty(0)
    while y.size < rows:
        draw = s_chi * np.sqrt(g.chisquare(n, 2 * rows))
        y = np.concatenate([y, draw[draw >= lower]])
    y = y[:rows]
    chi = folder / "chi.txt"
    with open(chi, "w", encoding="utf-8") as fh:
        fh.writelines(f"{i} {v!r}\n" for i, v in enumerate(y.tolist()))

    return [
        {"argv": ["fit", "--input", str(gauss), "--column", "value",
                  "--model", "gauss", "--lower", repr(a)],
         "rows": rows, "mean": float(x.mean()), "var": float(x.var(ddof=1)),
         "sigma": sigma},
        {"argv": ["fit", "--input", str(chi), "--column", "2", "--model", "chi",
                  "--dim", repr(n), "--lower", repr(lower)],
         "rows": rows, "mean": float(y.mean()), "var": float(y.var(ddof=1)),
         "sigma": s_chi},
    ]
