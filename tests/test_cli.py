import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from array import array

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
import trunc_moments
from trunc_moments import cli, fitting, tables
from trunc_moments.chi import ChiKind, ScaledChiSpec, chi_var_form1
from trunc_moments.utgd import Side

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# ---------------------------------------------------------------------------
# table / plot-data
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["mu-sigma-r", "ndim-variance", "limits",
                                  "slope-table"])
def test_table_matches_golden(capsys, name):
    code, out, err = run(capsys, "table", "--name", name)
    assert code == 0
    assert out == (GOLDEN / f"{name}.tsv").read_text()


@pytest.mark.parametrize("figure", ["var-vs-r", "dvar-vs-r", "kurtosis",
                                    "slope-form1"])
def test_plot_data_matches_golden(capsys, figure):
    # the utgd figures over both series cuts and the shape cut at -4
    code, out, err = run(capsys, "plot-data", "--figure", figure, "--min",
                         "-60", "--max", "38", "--step", "0.25",
                         "--precision", "8")
    assert code == 0
    assert out == (GOLDEN / "plot" / f"{figure}.tsv").read_text()


def _mp_figure_columns(figure, r):
    """The data columns of a utgd figure's row at r (unit mean, zero
    cutoff) from their definitions, at 50 digits."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        t, q, vhat = oracle.mp_gauss(r)
        if figure == "var-vs-r":
            return [vhat]
        if figure == "dvar-vs-r":
            return [mpmath.diff(lambda x: oracle.mp_gauss(x)[2], r)]
        if figure == "slope-form1":
            dq = mpmath.diff(lambda x: oracle.mp_gauss(x)[1], r)
            return [dq / (r * dq - 2 * q)]
        # raw moments of the standardized variable z >= -r by their
        # recurrence, then the central ones
        m = [mpmath.mpf(1), t]
        for k in range(2, 5):
            m.append((k - 1) * m[k - 2] + (-r) ** (k - 1) * t)
        c2 = m[2] - m[1] ** 2
        c3 = m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
        c4 = m[4] - 4 * m[1] * m[3] + 6 * m[1] ** 2 * m[2] - 3 * m[1] ** 4
        return [c3 / c2 ** 1.5, c4 / c2 ** 2]


@pytest.mark.parametrize("figure", ["var-vs-r", "dvar-vs-r", "kurtosis",
                                    "slope-form1"])
def test_plot_golden_rows_against_mpmath(figure):
    # every printed value is within one unit of its last digit of the
    # value it stands for, so a golden file cannot freeze a wrong digit
    header, *rows = (GOLDEN / "plot" / f"{figure}.tsv").read_text().splitlines()
    off = []
    for row in rows:
        r, *cols = row.split("\t")
        for col, want in zip(cols, _mp_figure_columns(figure, float(r))):
            unit = 10.0 ** -len(col.partition(".")[2])
            if not abs(mpmath.mpf(col) - want) <= unit:
                off.append((r, col, float(want)))
    assert not off, off


def test_table_unknown_name(capsys):
    code, out, err = run(capsys, "table", "--name", "no-such-table")
    assert code == 1
    assert "no-such-table" in err


def test_plot_data_kurtosis(capsys):
    code, out, err = run(capsys, "plot-data", "--figure", "kurtosis",
                         "--min", "0", "--max", "4", "--step", "0.5")
    assert code == 0
    header, *lines = out.splitlines()
    assert header.split("\t") == ["r", "skewness", "kurtosis"]
    assert len(lines) == 9
    r, S, K = map(float, lines[0].split("\t"))
    assert (r, K) == (0.0, pytest.approx(3.0 + 8.0 * (math.pi - 3.0)
                                         / (math.pi - 2.0) ** 2, abs=1e-6))


def test_plot_data_unknown_figure(capsys):
    code, out, err = run(capsys, "plot-data", "--figure", "bogus")
    assert code == 1


def test_plot_data_nvmx_beyond_the_variance_domain(capsys):
    # exp(d2 r^d3) in vmax_fixed_r_approx overflowed into a traceback
    code, out, err = run(capsys, "plot-data", "--figure", "nvmx-vs-r",
                         "--min", "1300", "--max", "1300")
    assert code == 1
    assert out == ""
    assert "at most 1000" in err


def test_plot_series_stops_at_max_for_a_tiny_step():
    # the end's absolute 1e-12 slack ran 1e288 rows past --max
    rows = tables.plot_series("var-vs-r", 0.0, 2.5e-299, 1e-300, 8)
    assert len(rows) == 1 + 26


def test_plot_series_rejects_a_step_below_float_spacing():
    # x += 1 leaves 1e20 where it is, so the sweep never ended
    with pytest.raises(ValueError, match="below the spacing of floats"):
        tables.plot_series("var-vs-r", 1e20, 1e20 + 4e4, 1.0, 8)


def run_cli(*argv, timeout=60):
    """The CLI in a fresh interpreter; ``timeout`` turns a hang into a
    failure."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(trunc_moments.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "trunc_moments", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("option, argv", [
    # a negative step never ended (its memory grew without bound) and a zero
    # step quietly became the default
    ("--step", ["plot-data", "--figure", "var-vs-r", "--step", "-0.1"]),
    ("--step", ["plot-data", "--figure", "var-vs-r", "--step", "0"]),
    # these exited 2 (infeasible), or 0 with a null answer
    ("--rounds", ["calibrate-gauss", "--mean", "1", "--var", "0.3",
                  "--cutoff", "0", "--method", "point-slope", "--rounds", "0"]),
    ("--mean", ["calibrate-gauss", "--mean", "nan", "--var", "0.3",
                "--cutoff", "0"]),
    ("--var", ["calibrate-gauss", "--mean", "1", "--var", "nan",
               "--cutoff", "0"]),
    ("--dim", ["calibrate-chi", "--mean", "1", "--var", "0.1", "--dim", "nan"]),
    ("--mean", ["vmax", "--r", "1", "--mean", "nan"]),
    ("--bins", ["fit", "--input", "unread.csv", "--model", "gauss",
                "--bins", "-1"]),
    # these printed zeros with exit 0, or leaked "Format specifier missing
    # precision"
    ("--precision", ["calibrate-gauss", "--mean", "1.3", "--var", "3",
                     "--cutoff", "-1", "--precision", "-2"]),
    ("--precision", ["plot-data", "--figure", "var-vs-r", "--precision",
                     "-1"]),
])
def test_rejects_bad_numbers(option, argv):
    proc = run_cli(*argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"error: argument {option}: expected a " in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("value", ["-1e-3", "-5.6e102", "-1E3", "-.5"])
def test_negative_exponent_is_a_value(capsys, value):
    # argparse took "-1e-3" for an option: "expected one argument", exit 1
    gauss = ["calibrate-gauss", "--mean", "1", "--var", "0.5"]
    spaced = run(capsys, *gauss, "--cutoff", value)
    assert spaced == run(capsys, *gauss, f"--cutoff={value}")
    assert "expected one argument" not in spaced[2]
    assert spaced[0] in (0, 2)


@pytest.mark.parametrize("value", ["-inf", "-nan", "-Infinity"])
def test_negative_non_finite_reaches_the_finite_check(capsys, value):
    code, out, err = run(capsys, "calibrate-gauss", "--mean", "1",
                         "--var", "0.5", "--cutoff", value)
    assert code == 1 and out == ""
    assert f"argument --cutoff: expected a finite number, got '{value}'" in err


@pytest.mark.parametrize("step", [0.0, -0.1, math.inf, math.nan])
def test_plot_series_rejects_bad_step(step):
    # min > max, so that a missing check returns a header instead of looping
    with pytest.raises(ValueError, match="step must be positive and finite"):
        tables.plot_series("var-vs-r", 1.0, 0.0, step, 8)


# ---------------------------------------------------------------------------
# calibrate-gauss
# ---------------------------------------------------------------------------

def test_calibrate_gauss_auto(capsys):
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1.3",
                              "--var", "3.0", "--cutoff", "-1.0")
    assert code == 0
    assert doc["mu"] == pytest.approx(-0.94080265, abs=1e-7)
    assert doc["sigma"] == pytest.approx(2.85549, abs=1e-3)
    assert doc["achieved_mean"] == pytest.approx(1.3)
    assert doc["achieved_var"] == pytest.approx(3.0)
    assert doc["residuals"]["mean"] < 1e-10
    assert doc["method"] == "exact"


def test_calibrate_gauss_infeasible(capsys):
    code, out, err = run(capsys, "calibrate-gauss", "--mean", "1.0",
                         "--var", "1.1", "--cutoff", "0.0")
    assert code == 2
    assert "(0, 1)" in err


@pytest.mark.parametrize("var", ["1e-14", "0.999999999999"])
def test_calibrate_gauss_out_of_seed_range(capsys, var):
    # function 2 is solved in ln(1 - U), so approx2 reaches vhat = 1e-14,
    # where its grid stopped at 1 - U = 1e-13 and it exited 2 as
    # "infeasible".  Beyond function 1's reach its failure is named as the
    # method's own, with the method that reaches the attainable target
    if var == "1e-14":
        code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1",
                                  "--var", var, "--cutoff", "0",
                                  "--method", "approx2")
        assert (code, err) == (0, "")
        assert doc["sigma"] == pytest.approx(1e-7, rel=1e-12)
        return
    code, out, err = run(capsys, "calibrate-gauss", "--mean", "1",
                         "--var", var, "--cutoff", "0", "--method", "approx1")
    assert code == 2 and out == ""
    assert err.startswith("method approx1 failed: ")
    assert "validity U in [-100, 0.9]" in err
    assert err.endswith("; the target is attainable: --method auto "
                        "reaches it\n")


@pytest.mark.parametrize("method", ["approx2", "two-point", "point-slope"])
def test_calibrate_gauss_paper_methods_below_the_grid(capsys, method):
    # vhat = 0.01 lies below function 2's former grid (1 - U >= 1e-13):
    # approx2 and the methods it seeds exited 2 with "infeasible: no
    # function-2 location U"; there 1 - U rounds to 0 and mu = M
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1",
                              "--var", "0.01", "--cutoff", "0",
                              "--method", method)
    assert (code, err) == (0, "")
    assert (doc["mu"], doc["sigma"], doc["method"]) == (1.0, 0.1, method)


@pytest.mark.parametrize("method,argv,failure", [
    ("approx1", ["--var", "0.01"], "U=0.9999947016360748 outside "
     "approximating function 1 validity"),
    ("approx2", ["--var", "0.5"], "vhat=0.5 exceeds approximating function "
     "2's maximum normalized variance 0.33442 (at U = 0.78335)"),
    ("two-point", ["--var", "0.5", "--mu1", "0.5", "--mu2", "0.5"],
     "the two sampling locations must differ"),
])
def test_calibrate_gauss_names_a_method_failure(capsys, method, argv,
                                                failure):
    # a target inside the attainable bound that a paper method cannot
    # solve is that method's failure, not an infeasible target; the exit
    # code stays 2
    code, out, err = run(capsys, "calibrate-gauss", "--mean", "1",
                         "--cutoff", "0", "--method", method, *argv)
    assert (code, out) == (2, "")
    assert err == (f"method {method} failed: {failure}; the target is "
                   "attainable: --method auto reaches it\n")


def test_calibrate_gauss_auto_beyond_the_seeds(capsys):
    # the exact inversion needs no seed, so auto reaches vhat = 1e-14
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1",
                              "--var", "1e-14", "--cutoff", "0")
    assert code == 0
    assert doc["residuals"]["var"] < 1e-12


def test_calibrate_gauss_approx_only(capsys):
    # a bare approximation leaves visible residuals -> flagged on stderr
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1.8",
                              "--var", "0.4", "--cutoff", "0.5",
                              "--method", "approx2")
    assert code == 2
    assert doc["sigma"] == pytest.approx(0.68720795, abs=1.5e-8)
    assert err == "warning: residuals exceed 1e-8\n"


@pytest.mark.parametrize("method,mean,var,cutoff,mus", [
    ("auto", "1.3", "3.0", "-1.0", []),
    ("approx1", "1.3", "3.0", "-1.0", []),
    ("approx2", "1.8", "0.4", "0.5", []),
    ("two-point", "1.3", "3.0", "-1.0", []),
    ("point-slope", "1.8", "0.4", "0.5", ["--mu1", "1.6"]),
], ids=["auto", "approx1", "approx2", "two-point", "point-slope"])
def test_calibrate_gauss_right_side_mirror(capsys, method, mean, var, cutoff,
                                           mus):
    # the right side is the left problem mirrored about 0: -mu and the same
    # sigma, digit for digit
    def neg(x):
        return repr(-float(x))

    argv = ["calibrate-gauss", "--var", var, "--method", method]
    code_l, left, err_l = run_json(capsys, *argv, "--mean", mean,
                                   "--cutoff", cutoff, *mus)
    code, right, err = run_json(capsys, *argv, "--mean", neg(mean),
                                "--cutoff", neg(cutoff), *mus[:1],
                                *map(neg, mus[1:]), "--side", "right")
    assert (code, err) == (code_l, err_l)
    for key in ("mu", "r", "achieved_mean"):
        assert right[key] == -left[key]
    for key in ("sigma", "achieved_var", "method", "iterations", "residuals"):
        assert right[key] == left[key]
    assert (left["side"], right["side"]) == ("left", "right")


@pytest.mark.parametrize("mean,cutoff,side", [("1", "-5.6e102", "left"),
                                              ("-1", "5.6e102", "right")])
def test_calibrate_gauss_cutoff_far_from_the_mean(capsys, mean, cutoff, side):
    # mu = a + r*sigma cancelled to 0.0 here; the untruncated answer
    # mu = M, sigma = sqrt(V) reproduces both targets
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", mean,
                              "--var", "0.5", "--cutoff", cutoff,
                              "--side", side)
    assert code == 0, err
    assert doc["mu"] == float(mean)
    assert doc["sigma"] == pytest.approx(math.sqrt(0.5), abs=5e-9)  # 8 places
    assert doc["achieved_mean"] == float(mean)
    assert max(doc["residuals"].values()) < 1e-15


def test_calibrate_gauss_point_slope_rounds(capsys):
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1.8",
                              "--var", "0.4", "--cutoff", "0.5",
                              "--method", "point-slope", "--mu1", "1.6",
                              "--rounds", "3")
    assert code == 0
    assert doc["mu"] == pytest.approx(1.74528023, abs=1.5e-8)
    assert doc["sigma"] == pytest.approx(0.68639325, abs=1.5e-8)


# ---------------------------------------------------------------------------
# calibrate-chi
# ---------------------------------------------------------------------------

def test_calibrate_chi_inner(capsys):
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "2.3",
                              "--var", "0.95", "--dim", "2")
    assert code == 0
    assert doc["r"] == pytest.approx(0.53589710, abs=1.5e-8)
    assert doc["sigma"] == pytest.approx(1.65173960, abs=1.5e-8)
    assert doc["cutoff"] == pytest.approx(0.88516246, abs=1.5e-8)
    assert doc["residuals"]["mean"] < 1e-10


@pytest.mark.parametrize("dim", ["1.2e-38", "5e-324"])
def test_calibrate_chi_at_tiny_dim(capsys, dim):
    # exited 2 ("no offset |r|") although --dim 1e-15 solves it
    want = run_json(capsys, "calibrate-chi", "--mean", "1", "--var", "0.3",
                    "--dim", "1e-15")[1]
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "1",
                              "--var", "0.3", "--dim", dim)
    assert code == 0
    assert doc["r"] == pytest.approx(0.3401, abs=1e-4)
    assert doc["r"] == pytest.approx(want["r"], abs=1e-8)
    assert doc["sigma"] == pytest.approx(want["sigma"], abs=1e-8)


@pytest.mark.parametrize("dim, var", [("-10", "1e-9"), ("-35", "1e-4")])
def test_calibrate_chi_inner_at_negative_dim(capsys, dim, var):
    # exited 2 ("no offset |r|"): the raw incomplete gammas read NaN at
    # |r| = 1e-10 from n = -35 on and divided by 0 from |r| ~ 38.  2e-5 is
    # the variance's absolute bound, 2e-14 (M^2 + V), relative to V = 1e-9.
    # The answer is printed either way; a residual past 1e-8 (5.3e-7 at
    # n = -10, where mpmath puts the variance at the returned |r| 3.2e-7
    # off) adds the warning and exit 2, as calibrate-gauss does
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "1",
                              "--var", var, "--dim", dim)
    assert doc["residuals"]["mean"] < 1e-12
    assert doc["residuals"]["var"] <= 2e-5
    warned = (2, "warning: residuals exceed 1e-8\n")
    assert (code, err) == (warned if doc["residuals"]["var"] > 1e-8
                           else (0, ""))


def test_calibrate_chi_infeasible(capsys):
    # the diagnostics name the bound: pi/2 - 1 at n = 1, and above 1/3
    # for outer truncation
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1.0",
                         "--var", "0.6", "--dim", "1")
    assert code == 2
    assert "maximal variance 0.570796 " in err
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1.0",
                         "--var", "0.2", "--dim", "1", "--trunc", "outer")
    assert code == 2
    assert "confined to (0.333333, 0.570796);" in err


OUTER_REFUSAL = ("outer truncation needs n > 0: at n = -1 the mass on "
                 "[0, cutoff] diverges at the origin")


def test_calibrate_chi_outer_refuses_negative_dim(capsys):
    code, out, err = run(capsys, "calibrate-chi", "--trunc", "outer",
                         "--dim", "-1", "--mean", "1", "--var", "0.1")
    assert (code, out, err) == (2, "", f"infeasible: {OUTER_REFUSAL}\n")


def test_calibrate_chi_infeasible_bound_from_the_series(capsys):
    # at n = 62.858 the untruncated variance comes from the Wallis series
    n = 62.858
    with mpmath.workdps(50):
        s = mpmath.mpf(n) / 2
        sup = float(mpmath.gamma(s) * mpmath.gamma(s + 1)
                    / mpmath.gamma(s + 0.5) ** 2 - 1)
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1.0",
                         "--var", "0.2", "--dim", str(n))
    assert code == 2
    assert f"maximal variance {sup:g} attainable at n={n:g}" in err


def test_calibrate_chi_double_unattainable_mean(capsys):
    # for n = 1 the window mean tops out at its midpoint as sigma -> inf
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1.8", "--var",
                         "0.1", "--dim", "1", "--trunc", "double",
                         "--lower", "1", "--upper", "2")
    assert code == 2
    assert err == ("infeasible: the doubly truncated mean on [1, 2] at n=1 "
                   "is confined to (1, 1.5); got 1.8\n")


@pytest.mark.parametrize("argv, bound", [
    # exited 2 naming the searched sigma, "in [2e-06, 5.49756e+11]"
    (["--mean", "1.7", "--dim", "3", "--lower", "1", "--upper", "2"],
     "(1, 1.60714)"),
    # the supremum itself: exited 0 with sigma = 5.03e7
    (["--mean", "1.75", "--dim", "1", "--lower", "0.5", "--upper", "3"],
     "(0.5, 1.75)"),
])
def test_calibrate_chi_double_names_the_mean_bounds(capsys, argv, bound):
    # the window mean runs from lower (sigma -> 0) to n/(n+1) (u^(n+1) -
    # l^(n+1)) / (u^n - l^n) (sigma -> inf): 45/28 at n = 3 on [1, 2]
    code, out, err = run(capsys, "calibrate-chi", "--var", "0.01",
                         "--trunc", "double", *argv)
    assert code == 2
    assert f"is confined to {bound}; got {argv[1]}" in err


@pytest.mark.parametrize("var", ["0", "-1"])
def test_calibrate_chi_double_needs_a_positive_var(capsys, var):
    # 0 raised ZeroDivisionError in residuals.var; -1 exited 0 with a
    # negative residual
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1.5", "--var",
                         var, "--dim", "3", "--trunc", "double",
                         "--lower", "1", "--upper", "2")
    assert code == 2
    assert err == "infeasible: target variance must be positive\n"


def test_calibrate_chi_double(capsys):
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "1.0",
                              "--var", "0.05", "--dim", "2",
                              "--trunc", "double",
                              "--lower", "0.5", "--upper", "1.5")
    assert code == 0
    from trunc_moments.chi import ChiKind, ScaledChiSpec, chi_raw_moment
    spec = ScaledChiSpec(doc["sigma"], 2.0, lower=0.5, upper=1.5,
                         kind=ChiKind.DOUBLE)
    assert chi_raw_moment(spec, 1) == pytest.approx(1.0, rel=1e-6)


def test_calibrate_chi_double_at_high_dim(capsys):
    # exited 2 "no sigma giving mean 310": the window masses were inf over
    # the whole bracket.  sigma = 0.9803085254204476 solves it (a 200-panel
    # quadrature at 40 digits)
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "310",
                              "--var", "0.01", "--dim", "100000",
                              "--trunc", "double",
                              "--lower", "300", "--upper", "320")
    assert code == 0
    assert doc["sigma"] == 0.98030853
    assert doc["residuals"]["mean"] < 1e-14


@pytest.mark.parametrize("dim", ["31", "400", "1e4"])
def test_calibrate_chi_outer_at_high_dim(capsys, dim):
    # exited 2 ("no offset |r|") for every feasible target from n = 31 on:
    # the lower incomplete gammas underflowed
    n = float(dim)
    lo, hi = 1.0 / (n * (n + 2.0)), 1.0 / (2.0 * n)
    var = repr(3e-5 if n == 400.0 else 0.5 * (lo + hi))
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "1",
                              "--var", var, "--dim", dim, "--trunc", "outer")
    assert code == 0
    assert doc["residuals"]["mean"] < 1e-12
    assert doc["residuals"]["var"] < 1e-8


@pytest.mark.parametrize("trunc", ["inner", "outer"])
@pytest.mark.parametrize("dim", [1e-3, 1e6, -40.0])
@pytest.mark.parametrize("mean", [1e-300, 1.0, 1e300])
def test_calibrate_chi_one_ulp_inside_each_limit(capsys, trunc, dim, mean):
    # Newton exits where Brent had none: a zero or undefined slope, a
    # variance at its limit, a root past the searched offsets.  Each ends
    # in an answer or a named diagnostic, never a traceback
    from trunc_moments.chi import LimitDirection, _var_limit
    refused = trunc == "outer" and dim <= 0.0  # the mass diverges at 0
    ends = [1.0, 2.0] if refused else [_var_limit(mean, dim, ChiKind(trunc), w)
                                       for w in LimitDirection]
    for end, other in (ends, ends[::-1]):
        var = math.nextafter(end, other if other != end else math.inf)
        var = min(max(var, 5e-324), sys.float_info.max)
        code, out, err = run(capsys, "calibrate-chi", "--mean", repr(mean),
                             "--var", repr(var), "--dim", repr(dim),
                             "--trunc", trunc)
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code:
            assert err.startswith("infeasible: ")
            assert "math domain" not in err and "division" not in err
        else:
            assert json.loads(out)["residuals"]["mean"] < 1e-12
        if refused:
            assert err.startswith("infeasible: outer truncation needs n > 0")


@pytest.mark.parametrize("var", ["1e-17", "5e-324"])
def test_calibrate_chi_rejects_a_target_inside_the_noise(capsys, var):
    # at n = -40 the inner variance falls to 0 as |r| grows; a target within
    # its stated noise 2e-14 (M^2 + V) of that limit is reproduced by any
    # |r| far enough out, and gave exit 0 with residuals.var 12.1 and 1.0
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1", "--var",
                         var, "--dim", "-40")
    assert code == 2 and out == ""
    assert err.startswith("infeasible: no offset |r| with inner-truncation "
                          "variance ")
    assert err.endswith("noise 2e-14 (M^2 + V) = 2e-14 of a limit\n")


def test_calibrate_chi_warns_on_a_residual_past_1e_8(capsys):
    # deep in the tail (|r| = 1000) the inner variance is rounding noise of
    # M^2: this exited 0 with residuals.var 1.33e-4.  It is still printed,
    # with calibrate-gauss's warning and exit 2
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "1",
                              "--var", "1e-12", "--dim", "3")
    assert code == 2
    assert err == "warning: residuals exceed 1e-8\n"
    assert doc["r"] == pytest.approx(999.999, rel=2e-4)  # mpmath's root
    assert doc["residuals"]["var"] > 1e-8


def test_calibrate_chi_double_reports_the_var_residual_alone(capsys):
    # --trunc double solves for the mean only: --var feeds residuals.var,
    # and no residual rule applies to it
    code, doc, err = run_json(capsys, "calibrate-chi", "--mean", "1.5",
                              "--var", "0.01", "--dim", "3", "--trunc",
                              "double", "--lower", "1", "--upper", "2")
    assert (code, err) == (0, "")
    assert doc["residuals"]["mean"] < 1e-12
    assert doc["residuals"]["var"] > 1.0


@pytest.mark.parametrize("method,code,warning", [
    ("two-point", 2, "warning: residuals exceed 1e-8\n"),
    ("point-slope", 0, ""),
])
def test_calibrate_gauss_form1_next_to_the_cutoff(capsys, method, code,
                                                  warning):
    # the Form I sigma at mu1 = 1e-300 (r about 1e-300) is about 0.909; the
    # former search of |r| in [1.5e-280, 1] found no root there and exited
    # 2 with "infeasible: no Form I offset r ...".  Now two-point answers
    # with the residual warning that its secants leave from so far off the
    # root, and point-slope's rounds converge
    got, out, err = run(capsys, "calibrate-gauss", "--mean", "1", "--var",
                        "0.3", "--cutoff", "0", "--method", method,
                        "--mu1", "1e-300")
    assert (got, err) == (code, warning)
    assert json.loads(out)["method"] == method


@pytest.mark.parametrize("trunc", ["inner", "outer"])
@pytest.mark.parametrize("option", ["--lower", "--upper"])
def test_calibrate_chi_window_options_need_double(capsys, trunc, option):
    # were ignored: a one-sided model's cutoff is solved for
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1", "--var",
                         "0.1", "--dim", "2", "--trunc", trunc, option, "0.5")
    assert code == 1
    assert out == ""
    assert f"{option} applies only to --trunc double" in err


@pytest.mark.parametrize("method,option,value,readers", [
    ("auto", "--rounds", "5", "point-slope"),
    ("point-slope", "--mu2", "1", "two-point"),
    ("approx1", "--mu1", "1", "two-point or point-slope"),
    ("two-point", "--rounds", "3", "point-slope"),
])
def test_calibrate_gauss_refuses_options_its_method_ignores(
        capsys, method, option, value, readers):
    # were silently dropped with exit 0
    code, out, err = run(capsys, "calibrate-gauss", "--mean", "1.3", "--var",
                         "3", "--cutoff", "-1", "--method", method, option,
                         value)
    assert code == 1
    assert out == ""
    assert f"{option} applies only to --method {readers}" in err


def test_calibrate_chi_double_needs_a_positive_lower(capsys):
    # a usage error, not "infeasible" (exit 2) from the model's own check
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1", "--var",
                         "0.1", "--dim", "2", "--trunc", "double",
                         "--lower", "0", "--upper", "2")
    assert code == 1
    assert "need 0 < lower < upper" in err


# ---------------------------------------------------------------------------
# vmax
# ---------------------------------------------------------------------------

def test_vmax_velocity_window(capsys):
    code, doc, err = run_json(capsys, "vmax", "--r", "2.2")
    assert code == 0
    assert doc["n_vmx_int"] == 11
    assert doc["n_vmx_real"] == pytest.approx(10.89380099, abs=1e-6)  # mpmath
    assert doc["vmax_int"] == pytest.approx(0.03622777, abs=1.5e-8)
    assert doc["n_vmx"] == doc["n_vmx_real"]


@pytest.mark.parametrize("r", ["0", "nan", "inf", "1300", "1e4"])
def test_vmax_rejects_bad_r(capsys, r):
    code, out, err = run(capsys, "vmax", "--r", r)
    assert code == 1
    assert out == ""
    assert err.startswith("vmax: error: |r| must be positive and finite")


def test_vmax_integer_selection(capsys):
    code, doc, err = run_json(capsys, "vmax", "--r", "0.1", "--integer-n")
    assert code == 0
    assert doc["n_vmx_real"] < 0  # the real optimum sits below any dimension
    assert doc["n_vmx"] == 1


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _write_column(path, values, header=None):
    lines = ([header] if header else []) + [f"{float(v)!r}" for v in values]
    path.write_text("\n".join(lines) + "\n")


def test_fit_insufficient_data(capsys, tmp_path):
    f = tmp_path / "tiny.txt"
    _write_column(f, [1.0, 2.0, 3.0, 4.0, 5.0])
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--model", "gauss")
    assert code == 0
    assert any("insufficient data" in w for w in doc["warnings"])
    assert doc["sigma_estimates"] == {"mean_based": None, "form1": None,
                                      "form2": None}
    assert doc["model_sigma"] is None
    assert doc["sample_mean"] == pytest.approx(3.0)


def test_fit_empty_window(capsys, tmp_path):
    f = tmp_path / "data.txt"
    _write_column(f, [1.0, 2.0, 3.0])
    code, out, err = run(capsys, "fit", "--input", str(f),
                         "--model", "gauss", "--lower", "10")
    assert code == 2
    assert "the truncation window contains no data" in err


def test_fit_no_data_rows(capsys, tmp_path):
    # a file with nothing to read is a usage error, not an empty window
    f = tmp_path / "data.txt"
    f.write_text("# header comment only\n\n")
    code, out, err = run(capsys, "fit", "--input", str(f),
                         "--model", "gauss", "--lower", "10")
    assert code == 1
    assert f"fit: error: {f}: no data rows" in err


def test_fit_header_only_has_no_data_rows(capsys, tmp_path):
    # a header alone is no data, not an empty truncation window
    f = tmp_path / "data.csv"
    f.write_text("id,value\n")
    code, out, err = run(capsys, "fit", "--input", str(f),
                         "--column", "value", "--model", "gauss")
    assert code == 1
    assert f"fit: error: {f}: no data rows" in err
    assert out == ""


@pytest.mark.parametrize("window", [(), ("--lower", "0"),
                                    ("--lower", "-5", "--upper", "5")])
@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_fit_non_finite_cell_names_its_line(capsys, tmp_path, window, cell):
    # with or without a window a nan or inf row is an error, never data
    # that nulls every estimate or a row dropped unseen
    rng = np.random.default_rng(3)
    f = tmp_path / "data.txt"
    rows = [repr(v) for v in rng.normal(1.0, 1.0, 100).tolist()]
    rows.insert(40, cell)
    f.write_text("\n".join(rows) + "\n")
    code, out, err = run(capsys, "fit", "--input", str(f),
                         "--model", "gauss", *window)
    assert code == 1
    assert f"fit: error: {f}: line 41: non-finite value {cell!r}" in err
    assert out == ""


def test_fit_chi_clamps_a_variance_just_past_the_supremum(capsys, tmp_path):
    # mean 1, sample variance 0.5834: 2.2% above the n = 1 supremum
    # pi/2 - 1, which no cutoff attains
    f = tmp_path / "data.txt"
    f.write_text("0.24\n1.76\n" * 50)
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--model", "chi", "--dim", "1")
    assert code == 0
    assert doc["sample_var"] > math.pi / 2.0 - 1.0
    assert doc["sigma_estimates"]["form2"] == pytest.approx(
        math.sqrt(math.pi / 2.0), rel=1e-8)
    assert doc["implied_cutoff"] == 0.0
    assert any("clamped to the untruncated limit" in w
               for w in doc["warnings"])


def test_fit_bad_row_reports_line(capsys, tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("1.0\n2.0\noops\n4.0\n")
    code, out, err = run(capsys, "fit", "--input", str(f),
                         "--model", "gauss")
    assert code == 1
    assert "line 3" in err


def test_fit_header_column(capsys, tmp_path):
    f = tmp_path / "data.csv"
    rng = np.random.default_rng(5)
    speeds = 3.14 * np.sqrt(rng.chisquare(2, size=3000))
    f.write_text("id,speed\n" + "\n".join(
        f"{i},{float(v)!r}" for i, v in enumerate(speeds)) + "\n")
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--column", "speed", "--model", "chi",
                              "--dim", "2")
    assert code == 0
    est = doc["sigma_estimates"]
    assert est["mean_based"] == pytest.approx(3.14, rel=0.05)
    assert est["form1"] == pytest.approx(3.14, rel=0.05)
    assert doc["model_sigma"] == "mean_based"
    assert doc["rmse_vs_data"] < 0.05


def test_fit_chi_double_window(capsys, tmp_path):
    # a folded normal on [0.5, 4]: both estimates solve on the window
    f = tmp_path / "radii.txt"
    rng = np.random.default_rng(3)
    _write_column(f, (1.5 * np.abs(rng.normal(size=4000))).tolist())
    code, doc, err = run_json(capsys, "fit", "--input", str(f), "--model",
                              "chi", "--dim", "1", "--lower", "0.5",
                              "--upper", "4.0")
    assert code == 0
    est = doc["sigma_estimates"]
    assert est["mean_based"] == pytest.approx(1.5, rel=0.05)
    assert est["form1"] == pytest.approx(1.5, rel=0.05)


def _var_slope(spec):
    """dV/d ln sigma of a chi spec, by a central difference in ln sigma."""
    h = 1e-3
    return (chi_var_form1(spec._replace(sigma=spec.sigma * math.exp(h)))
            - chi_var_form1(spec._replace(sigma=spec.sigma * math.exp(-h)))
            ) / (2.0 * h)


@pytest.mark.parametrize("n, sigma, lower, upper", [
    # at fixed cutoffs V(sigma) rises to a peak and falls to its limit;
    # each sigma is about twice the peak's, on the falling branch, where a
    # search up from small sigma meets the rising branch's root first
    (2.0, 1.34, 0.0, 1.0), (3.0, 0.91, 0.0, 1.0), (5.0, 0.66, 0.0, 1.0),
    (8.0, 0.52, 0.0, 1.0), (2.0, 2.47, 0.5, 1.5), (3.0, 1.57, 0.5, 1.5),
    (5.0, 1.07, 0.5, 1.5), (8.0, 0.80, 0.5, 1.5),
])
def test_fit_chi_form1_on_the_generating_branch(n, sigma, lower, upper):
    kind = ChiKind.OUTER if lower == 0.0 else ChiKind.DOUBLE
    spec = ScaledChiSpec(sigma, n, lower=lower, upper=upper, kind=kind)
    x = oracle._sample_chi(spec, 200_000, np.random.default_rng(int(n)))
    fit = fitting.fit_sample(x, "chi", n, lower or None, upper)
    s1 = fit["sigma_estimates"]["form1"]
    slope = _var_slope(spec)
    assert slope < 0.0
    assert _var_slope(spec._replace(sigma=s1)) < 0.0, s1
    # the sample variance's standard error through dV / d ln sigma
    c = x - x.mean()
    var_se = math.sqrt((np.mean(c ** 4) - np.var(c) ** 2) / x.size)
    assert abs(s1 - sigma) <= 4.0 * sigma * var_se / abs(slope), s1


def test_fit_chi_names_a_missing_form1_root():
    # outer at upper = 1, n = 2: V(sigma) peaks at 0.0587 (sigma = 0.67),
    # far below this sample's variance 0.2045
    fit = fitting.fit_sample([0.05, 0.95] * 50, "chi", 2.0, upper=1.0)
    assert fit["sigma_estimates"]["mean_based"] is not None
    assert fit["sigma_estimates"]["form1"] is None
    assert any(w.startswith("no sigma giving variance 0.204545 on [0, 1] "
                            "at n=2 in [") for w in fit["warnings"])


def test_fit_chi_outer_refuses_negative_dim(capsys, tmp_path):
    # the warnings told a CLI user to "set extended=True to opt in"
    f = tmp_path / "data.txt"
    _write_column(f, [0.5, 1.0, 1.5, 0.2, 1.8, 0.9] * 7)
    code, doc, err = run_json(capsys, "fit", "--input", str(f), "--model",
                              "chi", "--dim", "-1", "--upper", "2")
    assert code == 0
    assert set(doc["sigma_estimates"].values()) == {None}
    assert doc["warnings"][0] == OUTER_REFUSAL
    assert not any("extended" in w for w in doc["warnings"])


def test_fit_chi_requires_dim(capsys, tmp_path):
    f = tmp_path / "data.txt"
    _write_column(f, list(np.linspace(1, 2, 40)))
    code, out, err = run(capsys, "fit", "--input", str(f), "--model", "chi")
    assert code == 1
    assert "--dim" in err
    # the usage error comes first: the input is never opened
    code, out, err = run(capsys, "fit", "--input",
                         str(tmp_path / "nope.txt"), "--model", "chi")
    assert code == 1
    assert err == "fit: error: --model chi requires --dim\n"


def test_fit_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "fit", "--input",
                         str(tmp_path / "nope.txt"), "--model", "gauss")
    assert code == 1


@pytest.mark.parametrize("model, kw", [("gauss", {"lower": 0.0}),
                                       ("chi", {"dim": 3.0, "lower": 0.5})])
def test_fit_sample_leaves_its_argument_unchanged(model, kw):
    rng = np.random.default_rng(23)
    values = (np.abs(rng.normal(1.0, 1.0, 400)) + 0.5).tolist()
    kept = list(values)
    fit = fitting.fit_sample(values, model, **kw)
    assert values == kept
    # the reader's float64 buffer gives the same fit as a list
    assert fitting.fit_sample(array("d", values), model, **kw) == fit


def test_fit_gauss_recovers_sigma(capsys, tmp_path):
    rng = np.random.default_rng(17)
    draws = rng.normal(-1.0, 2.5, size=120_000)
    kept = draws[draws >= 0.0]
    f = tmp_path / "gauss.txt"
    _write_column(f, kept.tolist())
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--model", "gauss", "--lower", "0.0")
    assert code == 0
    est = doc["sigma_estimates"]
    for key in ("mean_based", "form1", "form2"):
        assert est[key] == pytest.approx(2.5, rel=0.03), key
    assert doc["divergence"] < 0.03
    assert doc["model_sigma"] == "form2"


def test_fit_gauss_far_above_cutoff(capsys, tmp_path):
    # vhat ~ 0.01 lies below approximating function 2's reach; the exact
    # calibration needs no seed there
    f = tmp_path / "far.txt"
    _write_column(f, np.random.default_rng(3).normal(10.0, 1.0, 5000))
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--model", "gauss", "--lower", "0")
    assert code == 0
    est = doc["sigma_estimates"]
    assert est["form2"] == pytest.approx(1.0, rel=0.03)
    # the cutoff sits ~10 sigma below: the mean pins no sigma there, so no
    # mean-based root is reported and the two variance forms agree
    assert est["mean_based"] is None
    assert any("truncated mass" in w for w in doc["warnings"])
    assert doc["divergence"] is not None and 0.0 <= doc["divergence"] < 1e-8
    assert doc["model_sigma"] == "form2"


def test_fit_gauss_exponential_quantiles(capsys, tmp_path):
    # exponential-like data above a cutoff at 0 calibrate to r0 = -81.6,
    # where the truncated mass erfc(-r0/sqrt(2)) underflows: the density's
    # height divided by it (ZeroDivisionError below r0 = -38.5)
    f = tmp_path / "exp.txt"
    _write_column(f, [-math.log1p(-(i + 0.5) / 20000) for i in range(20000)])
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--model", "gauss", "--lower", "0")
    assert code == 0
    assert err == ""
    assert isinstance(doc["rmse_vs_data"], float)
    assert math.isfinite(doc["rmse_vs_data"])


def test_fit_gauss_density_where_the_mass_is_subnormal():
    # r0 between -38.5 and -37.5: erfc(-r0/sqrt(2)) is subnormal, and the
    # height divided by it read inf
    est, density = fitting._fit_gauss(1.0, 0.99862, 0.0, [])
    pdf = density(est["form2"])
    assert all(math.isfinite(pdf(x)) and pdf(x) > 0.0
               for x in (0.0, 0.5, 1.0, 3.0))
    assert pdf(-0.5) == 0.0


def test_fit_gauss_constant_sample(capsys, tmp_path):
    f = tmp_path / "flat.txt"
    _write_column(f, [2.0] * 40)
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--model", "gauss", "--lower", "0")
    assert code == 0
    assert doc["sigma_estimates"]["form2"] is None
    assert "the variance of any such model is confined to " \
        "(0, (mean - cutoff)^2) = (0, 4); got 0" in doc["warnings"]


# ---------------------------------------------------------------------------
# usage, precision
# ---------------------------------------------------------------------------

def test_choice_literals_match_the_enums():
    # the parser names the choices itself, so that building it imports no
    # kernel module
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))

    def choices(command, dest):
        return next(a.choices for a in sub.choices[command]._actions
                    if a.dest == dest)

    assert choices("calibrate-gauss", "side") == [s.value for s in Side]
    assert choices("calibrate-chi", "trunc") == [k.value for k in ChiKind]

def test_missing_required_argument(capsys):
    code, out, err = run(capsys, "calibrate-gauss", "--mean", "1.0")
    assert code == 1


def test_unknown_command(capsys):
    code, out, err = run(capsys, "no-such-command")
    assert code == 1


def test_precision_flag(capsys):
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1.3",
                              "--var", "3.0", "--cutoff", "-1.0",
                              "--precision", "3")
    assert doc["sigma"] == 2.855


# ---------------------------------------------------------------------------
# fuzz: every input gets an exit code, never a traceback
# ---------------------------------------------------------------------------

def _spellings(name, x):
    """``--name value`` and ``--name=value``: argparse must read a negative
    number in either as the option's value."""
    text = repr(x) if isinstance(x, float) else str(x)
    return st.sampled_from([[f"--{name}", text], [f"--{name}={text}"]])


def _option(name, values, required=False):
    """The option with a drawn value in either spelling, or nothing when
    the option is optional."""
    arg = values.flatmap(lambda x: _spellings(name, x))
    return arg if required else st.one_of(st.just([]), arg)


_NUMBER = st.floats()  # nan, inf, subnormal and huge included
_PRECISION = _option("precision", st.integers(-3, 25))


def _command(name, *options):
    return st.tuples(*options).map(
        lambda opts: [name] + [a for opt in opts for a in opt])


def _plot_data():
    # --max lies at most 25 steps past --min: the number of rows is the
    # user's choice, and a huge one would only cost time
    def argv(fig, lo, step, k, precision):
        return _command("plot-data", st.just(["--figure", fig]),
                        _spellings("min", lo), _spellings("max", lo + k * step),
                        _spellings("step", step), st.just(precision))
    return st.tuples(st.sampled_from(sorted(tables._FIGURES) + ["no"]),
                     _NUMBER, _NUMBER, st.integers(-2, 25),
                     _PRECISION).flatmap(lambda t: argv(*t))


@pytest.fixture(scope="module")
def fuzz_data(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "radii.txt"
    rng = np.random.default_rng(11)
    path.write_text("\n".join(map(repr, np.sqrt(rng.chisquare(3, 200)))))
    return str(path)


_FUZZ_COMMANDS = st.one_of(
    _command("calibrate-gauss", *(_option(o, _NUMBER, True)
                                  for o in ("mean", "var", "cutoff")),
             _option("side", st.sampled_from(["left", "right"])),
             _option("method", st.sampled_from(
                 ["auto", "approx1", "approx2", "two-point", "point-slope"])),
             _option("mu1", _NUMBER), _option("mu2", _NUMBER),
             # each round is a solve: a count in the millions is a long run
             _option("rounds", st.integers(-1, 6)), _PRECISION),
    _command("calibrate-chi", *(_option(o, _NUMBER, True)
                                for o in ("mean", "var", "dim")),
             _option("trunc", st.sampled_from(["inner", "outer", "double"])),
             _option("lower", _NUMBER), _option("upper", _NUMBER),
             _PRECISION),
    _command("vmax", _option("r", _NUMBER, True), _option("mean", _NUMBER),
             st.sampled_from([[], ["--integer-n"]]), _PRECISION),
    _command("table", _option("name", st.sampled_from(
        ["mu-sigma-r", "ndim-variance", "limits", "slope-table", "no"]),
        True)),
    _plot_data(),
    _command("fit", _option("model", st.sampled_from(["gauss", "chi"]), True),
             _option("dim", _NUMBER), _option("lower", _NUMBER),
             _option("upper", _NUMBER),
             # the histogram allocates a float per bin
             _option("bins", st.integers(-1, 500)), _PRECISION),
)


def _ignored_gauss_option(argv):
    """Whether a calibrate-gauss argv gives an option that its --method
    does not read."""
    words = [w for arg in argv for w in arg.split("=", 1)]
    method = (words[words.index("--method") + 1] if "--method" in words
              else "auto")
    readers = {"--mu1": ("two-point", "point-slope"),
               "--mu2": ("two-point",), "--rounds": ("point-slope",)}
    return any(option in words and method not in methods
               for option, methods in readers.items())


@given(argv=_FUZZ_COMMANDS)
@settings(max_examples=200, deadline=None)
@example(argv=["vmax", "--r", "1300"])
@example(argv=["vmax", "--r", "2", "--mean", "1e200"])
@example(argv=["plot-data", "--figure", "var-vs-r", "--precision", "-1"])
@example(argv=["plot-data", "--figure", "var-vs-r", "--min", "1e20",
               "--max", "1e20", "--step", "1"])
@example(argv=["plot-data", "--figure", "dvar-vs-r", "--min=-5.6e102",
               "--max=-5.6e102"])
# solves whose evaluations divide by zero or overflow
@example(argv=["calibrate-chi", "--mean", "261", "--var", "1", "--dim", "0"])
@example(argv=["calibrate-chi", "--mean", "1", "--var", "1",
               "--dim", "1.175494351e-38"])
@example(argv=["calibrate-chi", "--mean", "1", "--var", "1", "--dim", "5e-324"])
@example(argv=["calibrate-chi", "--mean", "1.5", "--var", "0", "--dim", "3",
               "--trunc", "double", "--lower", "1", "--upper", "2"])
# the powers of the window leave the double range
@example(argv=["calibrate-chi", "--mean", "1", "--var", "1", "--dim", "-0.5",
               "--trunc", "double", "--lower", "5e-324", "--upper", "1e308"])
@example(argv=["calibrate-gauss", "--mean", "1.3e154", "--var", "1",
               "--cutoff", "1", "--method", "point-slope", "--mu1", "0"])
# options that the chosen method does not read
@example(argv=["calibrate-gauss", "--mean", "1.3", "--var", "3",
               "--cutoff", "-1", "--rounds", "5"])
@example(argv=["calibrate-gauss", "--mean", "1.3", "--var", "3",
               "--cutoff", "-1", "--method", "point-slope", "--mu2", "1"])
# a tie: 1.5779353160075068e16 + 1 rounds back to itself
@example(argv=["plot-data", "--figure", "vmax-vs-n",
               "--min=1.5779353160075068e+16", "--max=1.5779353160075078e+16",
               "--step=1.0"])
@example(argv=["plot-data", "--figure", "var-vs-r", "--min", "0",
               "--max", "2.5e-299", "--step", "1e-300"])
def test_fuzz_exit_codes(fuzz_data, argv):
    if argv[0] == "fit":
        argv = argv + ["--input", fuzz_data]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    # a failing run says why, in a diagnostic and never a traceback
    if code:
        assert err.getvalue().strip()
    assert "Traceback" not in err.getvalue()
    # every drawn option has its value: none is taken for an option name
    assert "expected one argument" not in err.getvalue()
    # an option that the method does not read is a usage error
    if argv[0] == "calibrate-gauss" and _ignored_gauss_option(argv):
        assert code == 1
