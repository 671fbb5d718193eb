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

Each command imports the package modules it evaluates, and no others, so a
cold process compiles and runs only those.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
import warnings

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2


_NEGATIVE_NUMBER = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes an argument for a negative number, and so for an
        # option's value, only in the forms -1 and -1.5 (Python 3.11); also
        # read -1e-3, -inf and -nan as values, so that every numeric option
        # accepts them and its type gives the diagnostic
        self._negative_number_matcher = _NEGATIVE_NUMBER

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
    import json

    json.dump(_rounded(payload, nd), sys.stdout, indent=2)
    sys.stdout.write("\n")


def _add_precision(p: argparse.ArgumentParser) -> None:
    p.add_argument("--precision", type=_positive(int), default=8,
                   help="decimal places in numeric output (default 8)")


# ---------------------------------------------------------------------------
# calibrate-gauss
# ---------------------------------------------------------------------------

def cmd_calibrate_gauss(args) -> int:
    from . import calibrate
    from .utgd import Side

    # an option that the chosen method does not read is refused, not dropped
    for option, methods in (("mu1", ("two-point", "point-slope")),
                            ("mu2", ("two-point",)),
                            ("rounds", ("point-slope",))):
        if getattr(args, option) is not None and args.method not in methods:
            print(f"calibrate-gauss: error: --{option} applies only to "
                  f"--method {' or '.join(methods)}", file=sys.stderr)
            return EXIT_USAGE
    M, v, a, side = args.mean, args.var, args.cutoff, Side(args.side)
    try:
        calibrate._frame(M, v, a, side)
    except ValueError as exc:  # it names the attainable bound
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        if args.method == "auto":
            res = calibrate.calibrate_auto(M, v, a, side)
        elif args.method == "approx1":
            res = calibrate.calibrate_approx1(M, v, a, side=side)
        elif args.method == "approx2":
            res = calibrate.calibrate_approx2(M, v, a, side=side)
        elif args.method == "two-point":
            res = calibrate.two_point(M, v, a, args.mu1, args.mu2, side)
        else:
            rounds = 3 if args.rounds is None else args.rounds
            res = calibrate.point_slope(M, v, a, args.mu1, rounds, side)
    except ValueError as exc:
        # the target is attainable: a paper method's failure is its own
        print(f"infeasible: {exc}" if args.method == "auto" else
              f"method {args.method} failed: {exc}; the target is "
              "attainable: --method auto reaches it", file=sys.stderr)
        return EXIT_INFEASIBLE

    _emit_json({
        "mu": res.mu0,
        "sigma": res.sigma0,
        "r": (res.mu0 - a) / res.sigma0,
        "side": side.value,
        "achieved_mean": res.mean_achieved,
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

def cmd_calibrate_chi(args) -> int:
    from . import chi
    from .chi import ChiKind, ScaledChiSpec

    kind = ChiKind(args.trunc)
    M, v, n, lo, up = args.mean, args.var, args.dim, args.lower, args.upper
    if kind is not ChiKind.DOUBLE and (lo, up) != (None, None):
        # the cutoff of a one-sided model is solved for, not given
        option = "--lower" if lo is not None else "--upper"
        print(f"calibrate-chi: error: {option} applies only to --trunc "
              "double", file=sys.stderr)
        return EXIT_USAGE
    if kind is ChiKind.DOUBLE and (lo is None or up is None):
        print("calibrate-chi: error: --trunc double requires --lower "
              "and --upper", file=sys.stderr)
        return EXIT_USAGE
    if kind is ChiKind.DOUBLE and not 0.0 < lo < up:
        print("calibrate-chi: error: need 0 < lower < upper", file=sys.stderr)
        return EXIT_USAGE
    try:
        if kind is ChiKind.DOUBLE:
            if not v > 0.0:  # it feeds residuals.var alone, as a divisor
                raise ValueError("target variance must be positive")
            sigma = chi.double_sigma(M, n, lo, up)
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
    resid = {"mean": abs(mean - M) / M, "var": abs(var - v) / v}
    _emit_json({
        "r": r_abs,
        "sigma": sigma,
        "cutoff": a,
        **({"upper": up} if kind is ChiKind.DOUBLE else {}),
        "dim": n,
        "trunc": kind.value,
        "achieved_mean": mean,
        "achieved_var": var,
        "residuals": resid,
    }, args.precision)
    # --trunc double solves for the mean alone: there --var only feeds
    # residuals.var
    if kind is not ChiKind.DOUBLE and max(resid.values()) > 1e-8:
        print("warning: residuals exceed 1e-8", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# vmax
# ---------------------------------------------------------------------------

def cmd_vmax(args) -> int:
    from . import chi

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
        "vmax_fit": chi.vmax_fixed_r_approx(args.r) * args.mean * args.mean,
        "n_vmx": rep.n_vmx_int if args.integer_n else rep.n_vmx_real,
        "vmax": rep.vmax_int if args.integer_n else rep.vmax_real,
    }
    _emit_json(payload, args.precision)
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

# lines handed to numpy's text reader at a time, by their length in
# characters: big enough that the per-call cost is small, small next to
# the rows kept (test_read_column's memory bound)
_BLOCK = 8192


def _read_column(path: str, selector: str, lower: float | None = None,
                 upper: float | None = None) -> array:
    """One numeric column from a UTF-8 CSV/whitespace file, read once.

    Blank and '#' lines are skipped; the first other line decides CSV (it
    holds a comma) or whitespace, and is a header if the column is picked
    by name or its cell in the column does not parse; a UTF-8 byte-order
    mark at the start of the file is dropped.  Values outside [lower,
    upper] are dropped as they are read, and an ``array("d")`` holds the
    rows kept, 8 bytes each.  The first data row that lacks the column or
    holds a non-numeric or non-finite (nan, inf) cell in it is an error
    naming its line, and so is a file without data rows, a header alone
    included.

    After the first line the file is read in blocks of lines.  numpy's C
    text reader parses a block without its '#' lines, if no other '#' is
    left in it; a block it refuses, or that holds nan or inf, goes through
    ``float()`` line by line, the one path that names a line.  Where numpy
    accepts a cell it reads the value ``float()`` reads; it refuses some
    that ``float()`` takes ('1_000', non-ASCII digits), and those go the
    exact way too.
    """
    from array import array

    with open(path, encoding="utf-8-sig") as fh:
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

        out = array("d")
        keep = out.append
        seen = False

        def read_lines(numbered) -> None:
            """Keep the values of ``(line no, line)`` pairs, line by line,
            skipping blank and '#' lines."""
            nonlocal seen
            for no, line in numbered:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                cells = split(line)
                if idx >= len(cells):
                    raise ValueError(
                        f"{path}: line {no}: missing column {idx + 1}")
                try:
                    x = float(cells[idx])
                except ValueError:
                    raise ValueError(f"{path}: line {no}: non-numeric value "
                                     f"{cells[idx]!r}") from None
                if not math.isfinite(x):
                    raise ValueError(f"{path}: line {no}: non-finite value "
                                     f"{cells[idx]!r}")
                seen = True
                if (lower is None or x >= lower) and \
                        (upper is None or x <= upper):
                    keep(x)

        if first_is_data:
            read_lines([(no, first)])
        import numpy as np

        with warnings.catch_warnings():
            # numpy warns of a block of blank lines; it is no error here
            warnings.filterwarnings("ignore", "loadtxt: input contained no "
                                    "data", UserWarning)
            while block := fh.readlines(_BLOCK):
                start, no = no + 1, no + len(block)
                # numpy would read '#' lines as data with comments=None, and
                # with comments="#" it would also take '1 # note', which is
                # an error here: the comment lines are dropped, and a block
                # with any other '#' goes line by line
                data = block
                if "#" in "".join(block):
                    data = [line for line in block if "#" not in line
                            or not line.lstrip().startswith("#")]
                x = None
                if data is block or "#" not in "".join(data):
                    try:
                        x = np.loadtxt(data, delimiter=sep, usecols=idx,
                                       comments=None, ndmin=1, dtype=float)
                    except ValueError:
                        pass
                if x is None or not np.isfinite(x).all():
                    read_lines(enumerate(block, start))
                    continue
                seen = seen or x.size > 0
                if lower is not None:
                    x = x[x >= lower]
                if upper is not None:
                    x = x[x <= upper]
                out.frombytes(memoryview(x).cast("B"))
    if not seen:
        raise ValueError(f"{path}: no data rows")
    return out


def cmd_fit(args) -> int:
    from . import fitting

    if args.model == "chi" and args.dim is None:
        print("fit: error: --model chi requires --dim", file=sys.stderr)
        return EXIT_USAGE
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

    _emit_json(fitting.fit_sample(data, args.model, args.dim, args.lower,
                                  args.upper, args.bins), args.precision)
    return EXIT_OK


# ---------------------------------------------------------------------------
# table / plot-data
# ---------------------------------------------------------------------------

def cmd_table(args) -> int:
    from . import tables

    try:
        rows = tables.build_table(args.name)
    except ValueError as exc:
        print(f"table: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write("\n".join(rows) + "\n")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    from . import tables

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
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--method", default="auto",
                   choices=["auto", "approx1", "approx2", "two-point",
                            "point-slope"])
    p.add_argument("--mu1", type=_finite, default=None)
    p.add_argument("--mu2", type=_finite, default=None)
    p.add_argument("--rounds", type=_positive(int), default=None)
    _add_precision(p)
    p.set_defaults(func=cmd_calibrate_gauss)

    p = sub.add_parser("calibrate-chi",
                       help="solve (r, sigma, cutoff) of a chi model")
    p.add_argument("--mean", type=_finite, required=True)
    p.add_argument("--var", type=_finite, required=True)
    p.add_argument("--dim", type=_finite, required=True)
    p.add_argument("--trunc", choices=["inner", "outer", "double"],
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
