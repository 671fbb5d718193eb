import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import trunc_moments
from trunc_moments import cli, tables

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
])
def test_rejects_bad_numbers(option, argv):
    proc = run_cli(*argv, timeout=30)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert f"error: argument {option}: expected a " in proc.stderr
    assert "Traceback" not in proc.stderr


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
    # beyond an approximating function's reach its diagnostic is named;
    # no solver message leaks and no traceback escapes
    method = "approx2" if var == "1e-14" else "approx1"
    code, out, err = run(capsys, "calibrate-gauss", "--mean", "1",
                         "--var", var, "--cutoff", "0", "--method", method)
    assert code == 2
    assert err.startswith("infeasible: ")
    assert "different signs" not in err
    assert ("function-2 location U" if var == "1e-14"
            else "validity U in [-100, 0.9]") in err


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


def test_calibrate_gauss_right_side_mirror(capsys):
    _, left, _ = run_json(capsys, "calibrate-gauss", "--mean", "1.3",
                          "--var", "3.0", "--cutoff", "-1.0")
    code, right, _ = run_json(capsys, "calibrate-gauss", "--mean", "-1.3",
                              "--var", "3.0", "--cutoff", "1.0",
                              "--side", "right")
    assert code == 0
    assert right["mu"] == pytest.approx(-left["mu"], rel=1e-9)
    assert right["sigma"] == pytest.approx(left["sigma"], rel=1e-9)


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


def test_calibrate_chi_infeasible(capsys):
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1.0",
                         "--var", "0.6", "--dim", "1")
    assert code == 2
    assert "maximal variance" in err


def test_calibrate_chi_double_unattainable_mean(capsys):
    # for n = 1 the window mean tops out at its midpoint as sigma -> inf
    code, out, err = run(capsys, "calibrate-chi", "--mean", "1.8", "--var",
                         "0.1", "--dim", "1", "--trunc", "double",
                         "--lower", "1", "--upper", "2")
    assert code == 2
    assert err.startswith("infeasible: no sigma")


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


@pytest.mark.parametrize("r", ["0", "nan", "inf"])
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
    # small trial sigmas empty the window (its mass underflows); the scan
    # for the sigma estimates must step over them
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


def test_fit_chi_requires_dim(capsys, tmp_path):
    f = tmp_path / "data.txt"
    _write_column(f, list(np.linspace(1, 2, 40)))
    code, out, err = run(capsys, "fit", "--input", str(f), "--model", "chi")
    assert code == 1
    assert "--dim" in err


def test_fit_missing_file(capsys, tmp_path):
    code, out, err = run(capsys, "fit", "--input",
                         str(tmp_path / "nope.txt"), "--model", "gauss")
    assert code == 1


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


def test_fit_gauss_constant_sample(capsys, tmp_path):
    f = tmp_path / "flat.txt"
    _write_column(f, [2.0] * 40)
    code, doc, err = run_json(capsys, "fit", "--input", str(f),
                              "--model", "gauss", "--lower", "0")
    assert code == 0
    assert doc["sigma_estimates"]["form2"] is None
    assert any("target variance" in w for w in doc["warnings"])


# ---------------------------------------------------------------------------
# usage, precision
# ---------------------------------------------------------------------------

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


def test_precision_env(capsys, monkeypatch):
    monkeypatch.setenv("TRUNC_MOMENTS_PRECISION", "2")
    code, doc, err = run_json(capsys, "calibrate-gauss", "--mean", "1.3",
                              "--var", "3.0", "--cutoff", "-1.0")
    assert doc["sigma"] == 2.86
