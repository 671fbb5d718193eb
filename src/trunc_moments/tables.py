"""Reference-table generation for the command line interface.

Each builder returns a list of tab-separated rows (header first) rendered
at a fixed precision, so the output can be frozen as golden files.  A table
or figure imports its own kernel module when it is built, once per call,
so a command loads no kernel it does not evaluate.
"""

from __future__ import annotations

import math

__all__ = ["TABLE_NAMES", "build_table"]


def _mu_sigma_r() -> list[str]:
    from . import utgd

    rows = ["r\tsigma\tmu\tvar"]
    for r in (-2.0, -1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0):
        sigma = utgd.sigma_from_mean_r(1.0, r, 0.0)
        rows.append(f"{r:.2f}\t{sigma:.5f}\t{r * sigma:.5f}"
                    f"\t{utgd.var_form2(1.0, r, 0.0):.5f}")
    return rows


def _ndim_variance() -> list[str]:
    from . import chi

    rows = ["n\tr\tsigma\ta\tvar"]
    for n in (-6.0, -3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 6.0):
        for r in (-4.0, -2.0, -1.0, -0.5, 0.0):
            if r == 0.0:
                var, sigma, a = chi.chi_limits(n, chi.ChiKind.INNER, "r_to_0")
            else:
                sigma = chi.chi_sigma_from_mean(1.0, abs(r), n)
                a = abs(r) * sigma
                var = chi.chi_var_form2(1.0, abs(r), n)
            rows.append(f"{n:g}\t{r:.1f}\t{sigma:.5f}\t{a:.5f}\t{var:.5f}")
    return rows


def _limits() -> list[str]:
    from . import chi

    rows = ["n\tkind\tdirection\tvar\tsigma\tcutoff"]
    for n in (1.0, 2.0, 3.0):
        for kind in (chi.ChiKind.OUTER, chi.ChiKind.INNER):
            for which in ("r_to_0", "r_to_inf"):
                var, sigma, a = chi.chi_limits(n, kind, which)
                rows.append(f"{n:g}\t{kind.value}\t{which}"
                            f"\t{var:.8f}\t{sigma:.8f}\t{a:.8f}")
    return rows


def _slope_table() -> list[str]:
    from . import utgd

    rows = ["r\tdvar_dr\tvar"]
    ks = [float(2 ** k) for k in range(18, -1, -1)]
    grid = [-k for k in ks] + [-(2.0 ** k) for k in range(-1, -13, -1)]
    grid += [2.0 ** k for k in range(-12, 0)] + [float(2 ** k) for k in range(0, 18)]
    for r in grid:
        rows.append(f"{r:.17g}\t{utgd.dvar_dr(1.0, r, 0.0):.8e}"
                    f"\t{utgd.var_form2(1.0, r, 0.0):.8e}")
    return rows


TABLE_NAMES = {
    "mu-sigma-r": _mu_sigma_r,
    "ndim-variance": _ndim_variance,
    "limits": _limits,
    "slope-table": _slope_table,
}


def build_table(name: str) -> list[str]:
    try:
        builder = TABLE_NAMES[name]
    except KeyError:
        raise ValueError(
            f"unknown table {name!r}; choose from {sorted(TABLE_NAMES)}")
    return builder()


# -- plot-ready sweeps -------------------------------------------------------
# Each figure's row maker imports its kernel module and returns the function
# that renders the row at x, with its format bound once to p digits.

def _row_format(p: int, columns: int):
    return "\t".join([f"{{:.{p}g}}"] + [f"{{:.{p}f}}"] * columns).format


# The utgd figures are drawn at unit mean and zero cutoff, where the
# variance, its slope and the shape measures are their normalized kernels.

def _var_rows(p: int):
    from .utgd import normalized_variance
    fmt = _row_format(p, 1)
    return lambda r: fmt(r, normalized_variance(r))


def _dvar_rows(p: int):
    from .utgd import dnormalized_variance_dr
    fmt = _row_format(p, 1)
    return lambda r: fmt(r, dnormalized_variance_dr(r))


def _kurtosis_rows(p: int):
    from .utgd import normalized_shape
    fmt = _row_format(p, 2)
    return lambda r: fmt(r, *normalized_shape(r))


def _slope_form1_rows(p: int):
    from .utgd import dsigma1_dmu
    fmt = _row_format(p, 1)
    return lambda r: fmt(r, dsigma1_dmu(r))


def _nvmx_rows(p: int):
    from . import chi
    fmt = _row_format(p, 4)

    def row(r: float) -> str:
        rep = chi.nvmx_search(1.0, r)
        return fmt(r, chi.nvmx_approx(r), rep.n_vmx_real, rep.vmax_real,
                   chi.vmax_fixed_r_approx(r))
    return row


def _vmax_rows(p: int):
    from .chi import vmax_fixed_n
    fmt = _row_format(p, 1)
    return lambda n: fmt(n, vmax_fixed_n(1.0, n))


# figure: (default min, max, step), header, row maker
_FIGURES = {
    "var-vs-r": ((-5.0, 5.0, 0.05), "r\tvar", _var_rows),
    "dvar-vs-r": ((-5.0, 5.0, 0.05), "r\tdvar_dr", _dvar_rows),
    "kurtosis": ((-5.0, 5.0, 0.05), "r\tskewness\tkurtosis", _kurtosis_rows),
    "slope-form1": ((-5.0, 5.0, 0.05), "r\tdsigma1_dmu", _slope_form1_rows),
    "nvmx-vs-r": ((0.05, 5.0, 0.05),
                  "r\tn_vmx_fit\tn_vmx_real\tvmax_real\tvmax_fit", _nvmx_rows),
    "vmax-vs-n": ((0.25, 30.0, 0.25), "n\tvmax", _vmax_rows),
}


def plot_series(figure: str, lo: float | None, hi: float | None,
                step: float | None, precision: int) -> list[str]:
    """Columnar data sufficient to re-plot the named figure."""
    if figure not in _FIGURES:
        raise ValueError(f"unknown figure {figure!r}; choose from "
                         f"{list(_FIGURES)}")
    (x, end, s), header, rows_of = _FIGURES[figure]
    x = x if lo is None else lo
    end = end if hi is None else hi
    s = s if step is None else step
    if not 0.0 < s < math.inf:
        raise ValueError(f"step must be positive and finite, got {s:g}")
    # slack for the rounding of x += s; below a step of 1e-6 it shrinks
    # with the step, which would otherwise run 1e-12/s rows past the end
    stop = end + min(1e-12, 1e-6 * s)
    far = max(abs(x), abs(stop))
    if x <= stop and s <= 0.5 * math.ulp(far):
        # x += s rounds back to x (or, on a tie, may), so x would stop
        # moving before it passes the end
        raise ValueError(f"step {s:g} is below the spacing of floats near "
                         f"{far:g}")
    row = rows_of(precision)
    rows = [header]
    while x <= stop:
        rows.append(row(round(x / s) * s if s < 1 else x))
        x += s
    return rows
