"""Command-line interface.

Subcommands
-----------
calibrate-gauss   solve (mu, sigma) of a one-sided truncated Gaussian from
                  target mean/variance at a fixed cutoff
calibrate-chi     solve (r, sigma, cutoff) of a truncated scaled chi model
vmax              variance-maximizing dimension and peak variance at fixed |r|
fit               estimate sigma three ways from a raw data column and report
                  their divergence plus a histogram RMSE
table             regenerate the reference tables (TSV)
plot-data         emit plot-ready sweeps (TSV)

Exit codes: 0 success, 1 usage/IO error, 2 infeasible or degenerate model.
Calibration and fit output is JSON on stdout; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

from . import _roots, calibrate, chi, tables, utgd
from .calibrate import Method
from .chi import ChiKind, ScaledChiSpec
from .utgd import Side, TruncatedGaussianSpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; we reserve 2 for infeasible targets
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _finite(text: str) -> float:
    """argparse type: a finite float (NaN and inf reach no solver)."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return x


def _positive(cast):
    """argparse type: a positive ``cast`` (int or float), for counts and
    steps."""
    def parse(text: str):
        try:
            x = cast(text)
        except ValueError:
            x = math.nan
        if not 0 < x < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a positive {cast.__name__}, got {text!r}")
        return x
    return parse


def _default_precision() -> int:
    env = os.environ.get("TRUNC_MOMENTS_PRECISION")
    if env is not None:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 8


def _rounded(obj, nd: int):
    if isinstance(obj, float):
        if math.isfinite(obj):
            return round(obj, nd)
        return None if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {k: _rounded(v, nd) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(v, nd) for v in obj]
    return obj


def _emit_json(payload: dict, nd: int) -> None:
    json.dump(_rounded(payload, nd), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _add_precision(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=int, default=_default_precision(),
                   help="decimal places in numeric output (default 8, or "
                        "TRUNC_MOMENTS_PRECISION)")


# ---------------------------------------------------------------------------
# calibrate-gauss
# ---------------------------------------------------------------------------

def cmd_calibrate_gauss(args) -> int:
    M, v, a = args.mean, args.var, args.cutoff
    side = Side(args.side)
    # mirror a right-side problem onto the left-side solvers
    refl = side is Side.RIGHT
    M_l = 2.0 * a - M if refl else M
    d = M_l - a
    if not d > 0.0:
        lo = "above" if refl else "below"
        print(f"infeasible: the cutoff must lie strictly {lo} the target "
              f"mean", file=sys.stderr)
        return EXIT_INFEASIBLE
    if not 0.0 < v < d * d:
        print(f"infeasible: the variance of any such model is confined to "
              f"(0, (mean - cutoff)^2) = (0, {d * d:g}); got {v:g}",
              file=sys.stderr)
        return EXIT_INFEASIBLE

    method = Method(args.method) if args.method != "auto" else None
    mu1 = 2.0 * a - args.mu1 if (refl and args.mu1 is not None) else args.mu1
    mu2 = 2.0 * a - args.mu2 if (refl and args.mu2 is not None) else args.mu2
    try:
        if method is None:
            res = calibrate.calibrate_auto(M_l, v, a)
        elif method is Method.APPROX1:
            res = calibrate.calibrate_approx1(M_l, v, a)
        elif method is Method.APPROX2:
            res = calibrate.calibrate_approx2(M_l, v, a)
        else:  # the two intersection methods, seeded by fn 1 or fn 2
            if mu1 is None:
                mu1 = calibrate._approx_seed(M_l, v, a)[1]
            if method is Method.TWO_POINT:
                res = calibrate.two_point(M_l, v, a, mu1,
                                          mu1 + 0.02 * d if mu2 is None else mu2)
            else:
                res = calibrate.point_slope(M_l, v, a, mu1, rounds=args.rounds)
    except ValueError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE

    mu = 2.0 * a - res.mu0 if refl else res.mu0
    mean = 2.0 * a - res.mean_achieved if refl else res.mean_achieved
    _emit_json({
        "mu": mu,
        "sigma": res.sigma0,
        "r": (mu - a) / res.sigma0,
        "side": side.value,
        "achieved_mean": mean,
        "achieved_var": res.var_achieved,
        "method": res.method.value,
        "iterations": res.iterations,
        "residuals": {"mean": res.mean_resid, "var": res.var_resid},
    }, args.precision)
    if max(res.mean_resid, res.var_resid) > 1e-8:
        print("warning: residuals exceed 1e-8", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# calibrate-chi
# ---------------------------------------------------------------------------

def _double_sigma(M: float, n: float, lo: float, up: float) -> float:
    """The sigma that puts the mean of the window [lo, up] at M."""
    if not lo < M < up:
        raise ValueError(f"the doubly truncated mean is confined to "
                         f"({lo:g}, {up:g}); got {M:g}")

    # the window pins the mean between its endpoints, and the mean grows
    # with sigma; bracket by expansion
    def f(sigma: float) -> float:
        try:
            return chi.chi_raw_moment(
                ScaledChiSpec(sigma, n, lower=lo, upper=up,
                              kind=ChiKind.DOUBLE), 1) - M
        except ZeroDivisionError:
            # window mass underflows when sigma << lower; the conditional
            # mean collapses onto the lower edge in that limit
            return lo - M

    what = f"sigma giving mean {M:g} on [{lo:g}, {up:g}] at n={n:g}"
    bracket = _roots.expand(f, up * 1e-6, up, increasing=True, what=what,
                            huge=up * 1e12, factor=4.0)
    return _roots.brentq(f, *bracket, what=what)


def cmd_calibrate_chi(args) -> int:
    kind = ChiKind(args.trunc)
    M, v, n, lo, up = args.mean, args.var, args.dim, args.lower, args.upper
    if kind is ChiKind.DOUBLE and (lo is None or up is None):
        print("calibrate-chi: error: --trunc double requires --lower "
              "and --upper", file=sys.stderr)
        return EXIT_USAGE
    if kind is ChiKind.DOUBLE and not 0.0 <= lo < up:
        print("calibrate-chi: error: need 0 <= lower < upper", file=sys.stderr)
        return EXIT_USAGE
    try:
        if kind is ChiKind.DOUBLE:
            sigma = _double_sigma(M, n, lo, up)
            r_abs, a = lo / sigma, lo
            spec = ScaledChiSpec(sigma, n, lower=lo, upper=up, kind=kind)
        else:
            r_abs, sigma, a = chi.chi_calibrate(M, v, n, kind)
            spec = (ScaledChiSpec(sigma, n, lower=a, kind=kind)
                    if kind is ChiKind.INNER
                    else ScaledChiSpec(sigma, n, upper=a, kind=kind))
    except ValueError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    mean = chi.chi_raw_moment(spec, 1)
    var = chi.chi_var_form1(spec)
    _emit_json({
        "r": r_abs,
        "sigma": sigma,
        "cutoff": a,
        **({"upper": up} if kind is ChiKind.DOUBLE else {}),
        "dim": n,
        "trunc": kind.value,
        "achieved_mean": mean,
        "achieved_var": var,
        "residuals": {"mean": abs(mean - M) / M, "var": abs(var - v) / v},
    }, args.precision)
    return EXIT_OK


# ---------------------------------------------------------------------------
# vmax
# ---------------------------------------------------------------------------

def cmd_vmax(args) -> int:
    try:
        rep = chi.nvmx_search(args.mean, args.r)
    except ValueError as exc:
        print(f"vmax: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    n_fit = chi.nvmx_approx(args.r)
    payload = {
        "r": args.r,
        "mean": args.mean,
        "n_vmx_real": rep.n_vmx_real,
        "n_vmx_int": rep.n_vmx_int,
        "vmax_real": rep.vmax_real,
        "vmax_int": rep.vmax_int,
        "n_vmx_fit": n_fit,
        "vmax_fit": chi.vmax_fixed_r_approx(args.r) * args.mean ** 2,
        "n_vmx": rep.n_vmx_int if args.integer_n else rep.n_vmx_real,
        "vmax": rep.vmax_int if args.integer_n else rep.vmax_real,
    }
    _emit_json(payload, args.precision)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _read_column(path: str, selector: str, lower: float | None = None,
                 upper: float | None = None) -> list[float]:
    """One numeric column from a UTF-8 CSV/whitespace file, in one pass.

    Blank and '#' lines are skipped; the first other line decides CSV (it
    holds a comma) or whitespace, and is a header if the column is picked
    by name or its cell in the column does not parse.  Values outside
    [lower, upper] are dropped as they are read, so memory follows the
    rows kept.  The first data row that lacks the column or holds a
    non-numeric cell in it is an error naming its line.
    """
    with open(path, encoding="utf-8") as fh:
        lines = enumerate(fh, 1)
        for no, first in lines:
            first = first.strip()
            if first and not first.startswith("#"):
                break
        else:
            raise ValueError(f"{path}: no data rows")
        sep = "," if "," in first else None
        split = (lambda s: [c.strip() for c in s.split(",")]) if sep \
            else str.split

        try:
            idx = int(selector) - 1
        except ValueError:
            idx = None
        else:
            if idx < 0:
                raise ValueError(f"column index must be >= 1, got {selector}")
        cells = split(first)
        first_is_data = False  # else it is a header
        if idx is None:
            if selector not in cells:
                raise ValueError(
                    f"{path}: no column named {selector!r} in header")
            idx = cells.index(selector)
        elif idx < len(cells):
            try:
                float(cells[idx])
                first_is_data = True
            except ValueError:
                pass
        if first_is_data:
            lines = itertools.chain([(no, first)], lines)

        def parse(no: int, line: str) -> float | None:
            """The value on line ``no``, None for a blank or '#' line."""
            line = line.strip()
            if not line or line.startswith("#"):
                return None
            cells = split(line)
            if idx >= len(cells):
                raise ValueError(
                    f"{path}: line {no}: missing column {idx + 1}")
            try:
                return float(cells[idx])
            except ValueError:
                raise ValueError(f"{path}: line {no}: non-numeric value "
                                 f"{cells[idx]!r}") from None

        out = []
        keep = out.append
        for no, line in lines:
            # float() strips the same whitespace as parse(), so where the
            # plain split reads a number it is parse()'s number; '#' lines
            # and lines it cannot read go to parse()
            x = None
            if "#" not in line:
                try:
                    x = float(line.split(sep)[idx])
                except (ValueError, IndexError):
                    pass
            if x is None:
                x = parse(no, line)
                if x is None:
                    continue
            if (lower is None or x >= lower) and (upper is None or x <= upper):
                keep(x)
    return out


def _solve_scalar(f, lo: float, hi: float):
    """Root of f in the first sign-changing cell of a 200-point log-spaced
    scan of [lo, hi]; None if no sign change shows up."""
    grid = [lo * (hi / lo) ** (k / 199) for k in range(200)]
    try:
        return _roots.brentq(f, *_roots.scan(f, grid, what="sigma"),
                             what="sigma")
    except ValueError:
        return None


_ESTIMATES = ("mean_based", "form1", "form2")
# which estimate each model's density curve (and so the RMSE) uses, first
# present wins
_MODEL_SIGMA = {"gauss": ("form2", "form1", "mean_based"),
                "chi": ("mean_based", "form1")}


def _fit_gauss(M: float, v: float, a: float, warnings: list[str]):
    d = M - a
    est = dict.fromkeys(_ESTIMATES)
    if not d > 0.0:
        warnings.append("sample mean does not exceed the cutoff; no "
                        "left-truncated Gaussian fits")
        return est, None
    if v >= d * d:
        warnings.append(
            f"sample variance {v:g} exceeds the attainable bound "
            f"(mean - cutoff)^2 = {d * d:g}; model anomalous")
        return est, None
    try:
        res = calibrate.calibrate_auto(M, v, a)
    except ValueError as exc:
        warnings.append(str(exc))
        return est, None
    # three single-functional sigma estimates at the calibrated location
    mu0, sigma0 = res.mu0, res.sigma0
    r0 = (mu0 - a) / sigma0
    t = utgd.inverse_mills(r0)
    # at fixed mu0 the mean moves with sigma at the rate t*(1 + r*(r + t));
    # once the truncated mass is so small that the rounding of M alone moves
    # the root by more than 1e-8 relative, the mean pins no sigma
    if r0 > 0.0 and abs(M) * sys.float_info.epsilon > \
            1e-8 * sigma0 * t * (1.0 + r0 * (r0 + t)):
        warnings.append(
            f"mean-based estimate omitted: the truncated mass "
            f"{0.5 * math.erfc(r0 / math.sqrt(2.0)):.3g} (r = {r0:.3g}) is "
            f"too small for the sample mean to determine sigma")
    elif mu0 == a:
        est["mean_based"] = utgd.sigma_from_mean_r(M, 0.0, a)
    else:
        est["mean_based"] = _solve_scalar(
            lambda s: utgd.mean_from_params(TruncatedGaussianSpec(mu0, s, a)) - M,
            1e-6 * d, 1e3 * d)
    try:
        est["form1"] = calibrate.sigma_newton(v, mu0, a, M,
                                              calibrate.VarianceForm.I)
        est["form2"] = calibrate.sigma_newton(v, mu0, a, M,
                                              calibrate.VarianceForm.II)
    except ValueError as exc:
        warnings.append(str(exc))

    def density(sigma: float, x: float) -> float:
        spec = TruncatedGaussianSpec(mu0, sigma, a)
        mean = utgd.mean_from_params(spec)
        h = (math.sqrt(2.0 / math.pi) / sigma
             / math.erfc(-(mu0 - a) / sigma / math.sqrt(2.0)))
        return utgd.density(mean, spec.r, a, x, h)

    return est, density


def _fit_chi(M: float, v: float, n: float, lo: float | None,
             up: float | None, warnings: list[str]):
    if lo is not None and up is not None:
        kind, a1, a2 = ChiKind.DOUBLE, lo, up
    elif up is not None:
        kind, a1, a2 = ChiKind.OUTER, 0.0, up
    else:
        kind, a1, a2 = ChiKind.INNER, lo if lo is not None else 0.0, math.inf

    def spec(sigma: float) -> ScaledChiSpec:
        return ScaledChiSpec(sigma, n, lower=a1, upper=a2, kind=kind)

    est = dict.fromkeys(_ESTIMATES)
    s_hi = max(M, a1, 0.0 if math.isinf(a2) else a2) * 1e3 + 1.0
    est["mean_based"] = _solve_scalar(
        lambda s: chi.chi_raw_moment(spec(s), 1) - M, M * 1e-6, s_hi)
    est["form1"] = _solve_scalar(
        lambda s: chi.chi_var_form1(spec(s)) - v, M * 1e-6, s_hi)
    implied_cutoff = None
    if kind is ChiKind.DOUBLE:
        warnings.append("Form II estimate is undefined for a two-sided window")
    else:
        try:
            _, s2, implied_cutoff = chi.chi_calibrate(M, v, n, kind)
            est["form2"] = s2
        except ValueError as exc:
            sup = chi.vmax_fixed_n(M, n) if (n > 0.0 or n < -2.0) else math.inf
            if kind is ChiKind.INNER and v < 1.05 * sup:
                # sampling noise can nudge the variance just past the
                # supremum (the untruncated limit); clamp instead of flagging
                est["form2"] = chi.chi_sigma_from_mean(M, 0.0, n, kind)
                implied_cutoff = 0.0
                warnings.append(
                    "sample variance sits at the attainable bound; Form II "
                    "estimate clamped to the untruncated limit")
            else:
                warnings.append(f"anomalous: {exc}")

    def density(sigma: float, x: float) -> float:
        return chi.chi_density(spec(sigma), x)

    return est, density, implied_cutoff


def cmd_fit(args) -> int:
    try:
        data = _read_column(args.input, args.column, args.lower, args.upper)
    except (OSError, ValueError) as exc:
        print(f"fit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not data:
        print("fit: the truncation window contains no data", file=sys.stderr)
        return EXIT_INFEASIBLE
    if len(data) < 2:
        print("fit: need at least two rows for a variance", file=sys.stderr)
        return EXIT_INFEASIBLE

    import numpy as np  # only the moments and the histogram need numpy

    values = np.asarray(data, dtype=float)
    del data  # 32 B a row; freed before scipy and the histogram allocate
    warnings: list[str] = []
    refused = values.size < 30
    if refused:
        warnings.append(f"insufficient data: {values.size} rows in the "
                        "window (need 30); reporting sample moments only")

    M, v = float(values.mean()), float(values.var(ddof=1))
    est, density, implied_cutoff = dict.fromkeys(_ESTIMATES), None, None
    if args.model == "gauss":
        a = args.lower if args.lower is not None else float(values.min())
        if not refused:
            est, density = _fit_gauss(M, v, a, warnings)
        window = {"lower": a, "upper": args.upper}
    else:
        if args.dim is None:
            print("fit: error: --model chi requires --dim", file=sys.stderr)
            return EXIT_USAGE
        if not refused:
            est, density, implied_cutoff = _fit_chi(
                M, v, args.dim, args.lower, args.upper, warnings)
        window = {"lower": args.lower, "upper": args.upper}

    present = [s for s in est.values() if s is not None]
    divergence = (max(present) - min(present)) / min(present) \
        if len(present) >= 2 else None
    model_sigma = next((k for k in _MODEL_SIGMA[args.model]
                        if est[k] is not None), None)

    rmse = None
    if model_sigma is not None:
        sigma = est[model_sigma]
        bins = args.bins if args.bins else "fd"
        hist, edges = np.histogram(values, bins=bins, density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        model = np.array([density(sigma, c) for c in centers])
        # both curves integrate to 1 over the window by construction
        rmse = float(np.sqrt(np.mean((hist - model) ** 2)))

    _emit_json({
        "model": args.model,
        "dim": args.dim,
        "window": window,
        "count": int(values.size),
        "sample_mean": M,
        "sample_var": v,
        "sigma_estimates": est,
        "model_sigma": model_sigma,
        "divergence": divergence,
        "implied_cutoff": implied_cutoff,
        "rmse_vs_data": rmse,
        "warnings": warnings,
    }, args.precision)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table / plot-data
# ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    try:
        rows = tables.build_table(args.name)
    except ValueError as exc:
        print(f"table: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    try:
        rows = tables.plot_series(args.figure, args.min, args.max, args.step,
                                  args.precision)
    except ValueError as exc:
        print(f"plot-data: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="trunc-moments",
                     description="moments and calibration of one-sided "
                                 "truncated Gaussian and scaled chi models")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("calibrate-gauss",
                       help="solve (mu, sigma) from mean/variance targets")
    p.add_argument("--mean", type=_finite, required=True)
    p.add_argument("--var", type=_finite, required=True)
    p.add_argument("--cutoff", type=_finite, required=True)
    p.add_argument("--side", choices=[s.value for s in Side], default="left")
    p.add_argument("--method", default="auto",
                   choices=["auto", "approx1", "approx2", "two-point",
                            "point-slope"])
    p.add_argument("--mu1", type=_finite, default=None)
    p.add_argument("--mu2", type=_finite, default=None)
    p.add_argument("--rounds", type=_positive(int), default=3)
    _add_precision(p)
    p.set_defaults(func=cmd_calibrate_gauss)

    p = sub.add_parser("calibrate-chi",
                       help="solve (r, sigma, cutoff) of a chi model")
    p.add_argument("--mean", type=_finite, required=True)
    p.add_argument("--var", type=_finite, required=True)
    p.add_argument("--dim", type=_finite, required=True)
    p.add_argument("--trunc", choices=[k.value for k in ChiKind],
                   default="inner")
    p.add_argument("--lower", type=_finite, default=None)
    p.add_argument("--upper", type=_finite, default=None)
    _add_precision(p)
    p.set_defaults(func=cmd_calibrate_chi)

    p = sub.add_parser("vmax",
                       help="variance-maximizing dimension at fixed |r|")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--mean", type=_finite, default=1.0)
    p.add_argument("--integer-n", action="store_true")
    _add_precision(p)
    p.set_defaults(func=cmd_vmax)

    p = sub.add_parser("fit", help="fit a model to a raw data column")
    p.add_argument("--input", required=True)
    p.add_argument("--column", default="1",
                   help="1-based index or header name (default 1)")
    p.add_argument("--model", choices=["gauss", "chi"], required=True)
    p.add_argument("--dim", type=_finite, default=None)
    p.add_argument("--lower", type=_finite, default=None)
    p.add_argument("--upper", type=_finite, default=None)
    p.add_argument("--bins", type=_positive(int), default=None,
                   help="histogram bin count (default Freedman-Diaconis)")
    _add_precision(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("table", help="regenerate a reference table as TSV")
    p.add_argument("--name", required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("plot-data", help="emit plot-ready sweep data as TSV")
    p.add_argument("--figure", required=True)
    p.add_argument("--min", type=_finite, default=None)
    p.add_argument("--max", type=_finite, default=None)
    p.add_argument("--step", type=_positive(float), default=None)
    _add_precision(p)
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
