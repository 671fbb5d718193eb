import ast
import importlib
import json
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import trunc_moments
from trunc_moments import _roots
from trunc_moments.utgd import normalized_variance

CASES = [
    (lambda x: x ** 3 - 2.0, 0.0, 3.0, 1e-300),
    (lambda x: x ** 3 - 2.0, 3.0, -5.0, 1e-6),
    (lambda x: math.exp(x) - 1.0 - 1e-9, -1.0, 40.0, 1e-300),
    (lambda x: math.tanh(x - 0.3) * 1e-200, -7.0, 2.0, 1e-14),
    (lambda x: math.atan(x) - 1.5, -1.0, 1e6, 1e-12),
    (lambda x: normalized_variance(x) - 0.25, -1.0, 4.0, 1e-300),
    (lambda x: normalized_variance(x) - 1e-12, 1.0, 2.0 ** 21, 1e-300),
    (lambda x: math.copysign(abs(x - 0.7) ** 0.3, x - 0.7), 0.0, 5.0, 1e-300),
    (lambda x: 1e300 * (x - 1.0 / 3.0), 0.0, 1.0, 1e-15),
]


def _scipy(f, a, b, xtol):
    return scipy_brentq(f, a, b, xtol=xtol, rtol=_roots.RTOL)


@pytest.mark.parametrize("f,a,b,xtol", CASES)
def test_brentq_matches_scipy_bitwise(f, a, b, xtol):
    assert _roots.brentq(f, a, b, what="x", xtol=xtol) == _scipy(f, a, b, xtol)


def test_brentq_matches_scipy_on_random_brackets():
    rng = np.random.default_rng(11)
    shapes = [lambda c: lambda x: x ** 3 - c ** 3,
              lambda c: lambda x: math.atan(x) - math.atan(c),
              lambda c: lambda x: math.tanh(x - c) * 1e-200,
              lambda c: lambda x: math.copysign(abs(x - c) ** 0.3, x - c)]
    for i in range(400):
        c = float(rng.uniform(-3.0, 3.0))
        f = shapes[i % len(shapes)](c)
        a = c - float(10.0 ** rng.uniform(-8.0, 2.0))
        b = c + float(10.0 ** rng.uniform(-8.0, 2.0))
        xtol = float(10.0 ** rng.uniform(-300.0, -1.0))
        got = _roots.brentq(f, a, b, what="x", xtol=xtol)
        assert got == _scipy(f, a, b, xtol), i


def test_brentq_uses_supplied_endpoint_values():
    calls = []

    def f(x):
        calls.append(x)
        return x - 0.25

    assert _roots.brentq(f, 0.0, 1.0, -0.25, 0.75, what="x") == 0.25
    assert 0.0 not in calls and 1.0 not in calls


@pytest.mark.parametrize("quantum,xtol", [(1e-6, 1e-300), (1e-6, 1e-14),
                                          (1e-12, 1e-300), (1e-15, 1e-300)])
def test_brentq_evaluates_each_x_at_most_once(quantum, xtol):
    # a step function is flat about its root, where Brent's last steps are
    # the least ones it takes: delta = (xtol + RTOL|x|)/2 is at least two
    # ulps of x, so every step reaches a new x, and f is called once there
    def step(x):  # never 0: it jumps across 0 at 0.3
        return math.floor(x / quantum) * quantum - 0.3 + 0.5 * quantum

    calls = []

    def f(x):
        calls.append(x)
        return step(x)

    root = _roots.brentq(f, 0.0, 1.0, what="x", xtol=xtol)
    assert root == _scipy(step, 0.0, 1.0, xtol)
    assert abs(root - 0.3) <= 2 * quantum
    assert len(calls) == len(set(calls))


def test_brentq_names_quantity_and_range():
    with pytest.raises(ValueError, match=r"no widget in \[1, 2\]"):
        _roots.brentq(lambda x: x, 1.0, 2.0, what="widget")
    with pytest.raises(ValueError, match="no widget"):
        _roots.brentq(lambda x: math.nan if x > 0.1 else x - 0.5, 0.0, 1.0,
                      what="widget")


@pytest.mark.parametrize("increasing,a,root,want", [
    (True, -1.0, 100.0, (-1.0, 128.0)),       # b grows outwards
    (True, -1.0, -3.0, (-4.0, 1.0)),          # a grows outwards
    (False, 1e-3, 1e-9, (1e-3 / 2 ** 20, 1.0)),  # a shrinks towards 0
])
def test_expand_moves_the_endpoint_on_the_root_side(increasing, a, root,
                                                    want):
    sign = 1.0 if increasing else -1.0
    a, b, fa, fb = _roots.expand(lambda x: sign * (x - root), a, 1.0,
                                 increasing=increasing, what="x")
    assert (a, b) == want
    assert fa * fb <= 0.0


def test_expand_follows_the_stated_direction_on_flat_curves():
    # |f| is equal at both ends, so only the stated monotonicity says that
    # the root lies beyond b
    def step(x):
        return 1.0 if x < 5.0 else -1.0

    assert _roots.expand(step, 1e-3, 1.0, increasing=False, what="x") == \
        (1e-3, 8.0, 1.0, -1.0)


def test_expand_stops_at_its_limit():
    # b doubles from 1 while it stays below _HUGE, a halves from 0.5 while
    # it stays above _TINY; the message names the last bracket searched
    top = 2.0 ** math.floor(math.log2(_roots._HUGE))
    with pytest.raises(ValueError,
                       match=re.escape(f"no x in [0.5, {top:.6g}]")):
        _roots.expand(lambda x: x - math.inf, 0.5, 1.0, increasing=True,
                      what="x")
    bottom = 2.0 ** math.ceil(math.log2(_roots._TINY))
    with pytest.raises(ValueError,
                       match=re.escape(f"no x in [{bottom:.6g}, 1]")):
        _roots.expand(lambda x: x, 0.5, 1.0, increasing=True, what="x")


def test_scan_skips_undefined_cells():
    grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def f(x, root):
        if x == 2.0:
            raise OverflowError
        return math.nan if x == 5.0 else x - root

    assert _roots.scan(lambda x: f(x, 3.5), grid, what="x") == \
        (3.0, 4.0, -0.5, 0.5)
    # the sign changes only over cells with an undefined endpoint
    for root in (1.5, 4.5):
        with pytest.raises(ValueError, match=r"no x in \[0, 6\]"):
            _roots.scan(lambda x: f(x, root), grid, what="x")


_UNDEFINED = object()


def _former_scan_each(at, fs, grid) -> list:
    """The former ``_roots.scan_each``, kept as the oracle: one walk up
    ``grid`` to each f's first sign-change cell, with p = at(x) shared by
    the functions and a raise in ``at`` leaving them all undefined at x."""
    cells = [None] * len(fs)
    fprev = [math.nan] * len(fs)  # each f at the previous point
    xprev = math.nan
    for x in grid:
        try:
            p = x if at is None else at(x)
        except (ArithmeticError, ValueError):
            p = _UNDEFINED
        searching = False
        for k, f in enumerate(fs):
            if cells[k] is not None:
                continue
            try:
                fx = math.nan if p is _UNDEFINED else f(p)
            except (ArithmeticError, ValueError):
                fx = math.nan
            if _roots._straddles(fprev[k], fx):
                cells[k] = (xprev, x, fprev[k], fx)
            else:
                fprev[k] = fx
                searching = True
        if not searching:
            return cells
        xprev = x
    missing = (min(grid), max(grid), math.nan, math.nan)
    return [missing if c is None else c for c in cells]


def _count_walks(monkeypatch):
    walks, walk = [], _roots._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(_roots, "_walk", counted)
    return walks


def _scan_or_raise(f, grid, start=None):
    try:
        return _roots.scan(f, grid, what="x", start=start)
    except ValueError as exc:
        return str(exc)


def _former_cell(at, f, grid):
    """The oracle's cell, or the error that ``scan`` raises for its
    whole-grid cell with NaN ends."""
    cell = _former_scan_each(at, (f,), grid)[0]
    return cell if cell[2] == cell[2] else "no x in [0, 6]"


def test_scan_evaluates_each_point_once():
    grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    visited = []

    def f_of(root):
        def f(x):
            visited.append(x)
            if x == 2.0:  # undefined
                raise ZeroDivisionError
            return x - root
        return f

    # bisection between the grid's ends: four of the seven points
    assert _roots.scan(f_of(0.5), grid, what="x") == (0.0, 1.0, -0.5, 0.5)
    assert sorted(visited) == [0.0, 1.0, 3.0, 6.0]
    # the sign changes only over a cell with an undefined end, or never:
    # the walk that vouches for it reuses the bisection's probes
    for root in (2.5, -1.0):
        visited.clear()
        with pytest.raises(ValueError, match=r"no x in \[0, 6\]"):
            _roots.scan(f_of(root), grid, what="x")
        assert sorted(visited) == grid
        assert _former_cell(None, f_of(root), grid) == "no x in [0, 6]"


def test_scan_finds_the_walks_cells():
    # f changes sign once, is undefined above a cap (sometimes below its
    # root) and at a few holes; from any start the bisection gives the
    # walk's cell, evaluating f once per point at most
    rng = np.random.default_rng(12)
    grid = [float(x) for x in np.linspace(0.0, 10.0, 41)]
    for i in range(300):
        holes = set(rng.choice(grid, size=int(rng.integers(0, 3))).tolist())
        visited = []

        def at(x):
            visited.append(x)
            if x in holes:
                raise OverflowError
            return x

        root, sign, cap = (float(rng.uniform(-0.5, 10.5)),
                           float(rng.choice([-1.0, 1.0])),
                           float(rng.uniform(0.0, 20.0)))

        def f(x):
            return math.nan if x > cap else sign * (x - root)

        start = None if i % 3 == 0 else int(rng.integers(0, len(grid) - 1))
        want = _former_scan_each(at, (f,), grid)[0]
        visited.clear()
        got = _scan_or_raise(lambda x: f(at(x)), grid, start)
        if want[2] != want[2]:
            assert got == "no x in [0, 10]", i
        else:
            assert repr(got) == repr(want), i
        assert len(set(visited)) == len(visited), i


@pytest.mark.parametrize("f", [
    lambda x: math.nan if x == 0.0 else x - 3.5,  # undefined at grid[0]
    lambda x: 0.0 if x == 0.0 else x - 3.5,       # zero at grid[0]
    lambda x: math.nan if x == 3.0 else x - 4.5,  # undefined below the root
    lambda x: x + 1.0,                            # no sign change
])
def test_bisect_each_walks_where_it_cannot_vouch(monkeypatch, f):
    # named, as its test ids are, for the grid bisection that
    # ``_roots.bisect_each`` ran and ``scan`` now runs
    grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    want = _former_cell(None, f, grid)
    walks = _count_walks(monkeypatch)
    got = _scan_or_raise(f, grid)
    assert len(walks) == 1
    assert repr(got) == repr(want)


@pytest.mark.parametrize("start", [None, 0, 1, 3, 5])
@pytest.mark.parametrize("f", [
    lambda x: math.nan if x >= 5.0 else x - 3.5,  # undefined above the root
    lambda x: math.nan if x == 6.0 else 3.5 - x,  # undefined at grid[-1]
    lambda x: math.nan if x in (4.0, 6.0) else x - 2.5,
])
def test_bisect_each_reads_an_undefined_probe_as_past_the_change(
        monkeypatch, f, start):
    # named, as its test ids are, for the grid bisection that
    # ``_roots.bisect_each`` ran and ``scan`` now runs
    grid = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    want = _former_cell(None, f, grid)
    walks = _count_walks(monkeypatch)
    got = _roots.scan(f, grid, what="x", start=start)
    assert not walks
    assert repr(got) == repr(want)


def test_every_public_helper_has_a_caller():
    # a function of _roots that no other module of the package calls is
    # dead code, whatever its tests
    package = pathlib.Path(_roots.__file__).parent
    public = {node.name for node in ast.parse(
        pathlib.Path(_roots.__file__).read_text()).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in package.glob("*.py"):
        if path.name == "_roots.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in public
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "_roots"):
                called.add(node.attr)
    assert "scan" in public
    assert called == public


def test_import_leaves_optimize_and_integrate_unloaded(tmp_path):
    # scipy is a test dependency only: with sys.modules['scipy'] = None any
    # scipy import raises, and every command but fit must also run without
    # numpy.  fit needs numpy to parse its column and for its moments and
    # histogram, not scipy.
    # Each command runs in a fresh process, which must load only the
    # package modules that the command evaluates.
    src = str(pathlib.Path(trunc_moments.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    rng = np.random.default_rng(5)
    gauss = tmp_path / "gauss.csv"
    gauss.write_text("\n".join(map(repr, rng.normal(1.0, 1.0, 500).tolist())))
    radii = tmp_path / "radii.txt"
    radii.write_text("\n".join(
        map(repr, np.sqrt(rng.chisquare(3, 500)).tolist())))
    gauss_mods = "['_roots', 'calibrate', 'cli', 'specfun', 'utgd']"
    chi_mods = "['_roots', 'chi', 'cli', 'specfun']"
    chi_table_mods = "['_roots', 'chi', 'cli', 'specfun', 'tables']"
    # the n_vmx search alone takes the slope kernel
    vmax_mods = "['_nvmx_slope', '_roots', 'chi', 'cli', 'specfun']"
    commands = [
        (["calibrate-gauss", "--mean", "1.3", "--var", "3", "--cutoff", "-1"],
         gauss_mods),
        (["calibrate-chi", "--mean", "1", "--var", "0.1", "--dim", "3"],
         chi_mods),
        (["calibrate-chi", "--mean", "1", "--var", "0.1", "--dim", "3",
          "--trunc", "outer"], chi_mods),
        (["calibrate-chi", "--mean", "1.0", "--var", "0.05", "--dim", "2",
          "--trunc", "double", "--lower", "0.5", "--upper", "1.5"], chi_mods),
        (["vmax", "--r", "2.2"], vmax_mods),
        (["table", "--name", "ndim-variance"], chi_table_mods),
        (["table", "--name", "mu-sigma-r"],
         "['cli', 'specfun', 'tables', 'utgd']"),
        (["plot-data", "--figure", "nvmx-vs-r"],
         "['_nvmx_slope', '_roots', 'chi', 'cli', 'specfun', 'tables']"),
        (["plot-data", "--figure", "vmax-vs-n"], chi_table_mods),
        (["plot-data", "--figure", "slope-form1"],
         "['cli', 'specfun', 'tables', 'utgd']"),
    ]
    fits = [
        (["fit", "--input", str(gauss), "--model", "gauss", "--lower", "0"],
         "['_roots', 'calibrate', 'cli', 'fitting', 'specfun', 'utgd']"),
        (["fit", "--input", str(radii), "--model", "chi", "--dim", "3"],
         "['_roots', 'chi', 'cli', 'fitting', 'specfun']"),
    ]
    # usage errors exit 1 before numpy or a kernel module loads
    fit_errors = [
        (["fit", "--input", str(tmp_path / "missing.csv"), "--model", "gauss"],
         "['_roots', 'cli', 'fitting']"),
        (["fit", "--input", str(radii), "--model", "chi"],
         "['_roots', 'cli', 'fitting']"),
        (["fit", "--input", str(gauss), "--column", "nosuch", "--model",
          "gauss"], "['_roots', 'cli', 'fitting']"),
    ]
    code = ("import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import trunc_moments\n"
            "def loaded():\n"
            "    return sorted(m[len('trunc_moments.'):] for m, v in"
            " sys.modules.items()"
            " if v is not None and m.startswith('trunc_moments.'))\n"
            "print(loaded())\n"
            "import trunc_moments.cli as cli\n"
            "argv = json.loads(sys.argv[1])\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(argv)\n"
            "third = {m.split('.')[0] for m, v in sys.modules.items()"
            " if v is not None}\n"
            "print(rc, sorted(third & {'numpy', 'scipy'}), loaded())\n"
            "print(sorted(third & {'dataclasses', 'inspect'}))\n")
    for argv, modules in commands + fits + fit_errors:
        out = subprocess.run([sys.executable, "-c", code, json.dumps(argv)],
                             env=env, check=True, capture_output=True,
                             text=True, timeout=120).stdout
        print(argv[0], out)
        rc = int((argv, modules) in fit_errors)
        numpy = "['numpy']" if argv[0] == "fit" and not rc else "[]"
        lines = out.split("\n")[:-1]
        # import trunc_moments alone loads no submodule
        assert lines[:2] == ["[]", f"{rc} {numpy} {modules}"]
        # the records are namedtuples; only numpy, for fit, loads inspect
        assert argv[0] == "fit" or lines[2] == "[]"


def test_public_names_resolve():
    # the package namespace loads each name's submodule on first access
    ns = {}
    exec("from trunc_moments import *", ns)
    for name in trunc_moments.__all__:
        assert ns[name] is getattr(trunc_moments, name)
    assert set(trunc_moments.__all__) <= set(dir(trunc_moments))
    with pytest.raises(AttributeError, match="no_such_name"):
        trunc_moments.no_such_name
    # an unknown name falls through to the submodule import
    from trunc_moments import lognormal
    assert lognormal.__name__ == "trunc_moments.lognormal"


def test_package_map_matches_each_modules_all():
    # a name is public where its module's __all__ lists it, and the package
    # map sends it to that module; the modules outside the map serve the CLI
    # or, as _roots and _nvmx_slope, the solvers
    by_module = {}
    for name, module in trunc_moments._SOURCES.items():
        by_module.setdefault(module, set()).add(name)
    for module, names in by_module.items():
        mod = importlib.import_module(f"trunc_moments.{module}")
        assert set(mod.__all__) == names, module
    package = pathlib.Path(trunc_moments.__file__).parent
    others = {m.name for m in pkgutil.iter_modules([str(package)])}
    assert others - set(by_module) == {"__main__", "_nvmx_slope", "_roots",
                                       "cli", "tables"}


# -- newton --------------------------------------------------------------------

def _traced(g):
    """g, recording each point it is evaluated at in ``g.xs``."""
    def traced(x):
        traced.xs.append(x)
        return g(x)
    traced.xs = []
    return traced


def _cube(x):  # x**3 and the Newton step towards 2
    return x ** 3, (2.0 - x ** 3) / (3.0 * x * x) if x else math.nan


@pytest.mark.parametrize("seed", [1e-3, 0.5, 40.0, -30.0])
def test_newton_brings_back_a_poor_seed(seed):
    # from each seed plain Newton on x**3 = 2 overshoots, or crawls in from
    # the wrong side of 0; the bracket and the domain's end bring it back
    g = _traced(_cube)
    x = _roots.newton(g, seed, 2.0, increasing=True, domain=(-100.0, 100.0),
                      what="x", noise_evals=4)
    assert abs(x ** 3 - 2.0) <= 2.0 * math.ulp(2.0)
    assert abs(x - 2.0 ** (1.0 / 3.0)) <= math.ulp(x)
    assert len(g.xs) <= 30


@pytest.mark.parametrize("seed", [1e-3, 0.5, 40.0, -30.0])
def test_newton_steps_from_a_slope_as_from_a_step(seed):
    # with ``slope`` g gives x**3 and its derivative, and the iterates are
    # those of the Newton steps that _cube gives, bit for bit
    stepped = _traced(_cube)
    sloped = _traced(lambda x: (x ** 3, 3.0 * x * x))
    for g, kw in ((stepped, {}), (sloped, {"slope": True})):
        _roots.newton(g, seed, 2.0, increasing=True, domain=(-100.0, 100.0),
                      what="x", noise_evals=4, **kw)
    assert sloped.xs == stepped.xs


def test_newton_bisects_past_a_wrong_signed_step():
    # every step points away from the root: only the bracket's jump and
    # bisection reach it, and the bisection's steps fall below 1e-8 like
    # Newton's, after which 4 evaluations follow
    def away(x):
        value, step = _cube(x)
        return value, -step

    g = _traced(away)
    x = _roots.newton(g, 0.5, 2.0, increasing=True, domain=(-8.0, 8.0),
                      what="x", noise_evals=4)
    assert g.xs[:3] == [0.5, 1.5, 1.0]  # a jump up, then the midpoint
    assert abs(x - 2.0 ** (1.0 / 3.0)) <= 2.0 ** -27
    # the k-th bisection steps by 2**-k; 2**-27 is the first below 1e-8,
    # and its evaluation is the first of the 4
    assert len(g.xs) == 2 + 26 + 4


@pytest.mark.parametrize("log,seed,want", [
    (False, 0.0, [0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0, 95.0]),
    (False, 200.0, [200.0, 199.0, 197.0, 193.0, 185.0, 169.0, 137.0, 73.0,
                    105.0]),
    (True, 1.0, [1.0, math.e, math.e ** 3, math.e ** 7, math.e ** 5]),
])
def test_newton_jumps_while_one_side_is_open(log, seed, want):
    # without a Newton step the iterate moves 1, 2, 4, ... (in ln x with
    # ``log``) towards the root until it has a point on either side, then
    # bisects (geometrically with ``log``)
    g = _traced(lambda x: (x, math.nan))
    root = math.exp(5.5) if log else 100.0
    x = _roots.newton(g, seed, root, increasing=True,
                      domain=(1e-300 if log else -1e6, 1e6), what="x",
                      noise_evals=4, log=log)
    assert g.xs[:len(want)] == pytest.approx(want, rel=1e-15)
    assert x == pytest.approx(root, rel=1e-15)


@pytest.mark.parametrize("log,seed,root,domain,match", [
    (False, 0.0, 100.0, (-10.0, 10.0), r"no widget in \[-10, 10\]"),
    (False, 0.0, -100.0, (-10.0, 10.0), r"no widget in \[-10, 10\]"),
    (True, 1.0, 1e6, (1e-3, 1e3), r"no widget in \[0\.001, 1000\]"),
    (True, 1.0, 1e-6, (1e-3, 1e3), r"no widget in \[0\.001, 1000\]"),
])
def test_newton_names_the_domain_past_its_end(log, seed, root, domain, match):
    # the Newton step (exact for this line) lands past the end: the iterate
    # stops at the end, and a step past it from there raises
    g = _traced(lambda x: (x, math.log(root / x) if log else root - x))
    with pytest.raises(ValueError, match=match):
        _roots.newton(g, seed, root, increasing=True, domain=domain,
                      what="widget", noise_evals=4, log=log)
    assert g.xs[-1] in domain and len(g.xs) == 2


def test_newton_names_the_quantity_on_nan():
    def g(x):
        return (math.nan if x > 1.0 else x), 5.0

    with pytest.raises(ValueError, match=r"^no widget in \[-8, 8\]$"):
        _roots.newton(g, 0.0, 3.0, increasing=True, domain=(-8.0, 8.0),
                      what="widget", noise_evals=4)


@pytest.mark.parametrize("fault", [ZeroDivisionError, OverflowError])
def test_newton_reads_an_arithmetic_error_as_nan(fault):
    # as in brentq, an evaluation that divides by zero or overflows is
    # undefined: it raised out of the solve
    def g(x):
        if x > 1.0:
            raise fault
        return x, 5.0

    with pytest.raises(ValueError, match=r"^no widget in \[-8, 8\]$"):
        _roots.newton(g, 0.0, 3.0, increasing=True, domain=(-8.0, 8.0),
                      what="widget", noise_evals=4)


def test_newton_stops_on_a_zero_step():
    # a step that leaves x unchanged ends the search at x, whatever the
    # residual: where the value is flat to its last bit (Form I's Q
    # rounding to 1), bisecting instead took up to 35 evaluations.  A best
    # residual above ``tol`` raises
    g = _traced(lambda x: (1.0 - x * 1e-20, 1e-20))
    assert _roots.newton(g, 1.0, 0.5, increasing=False, domain=(0.0, 10.0),
                         what="x", noise_evals=4, tol=0.5) == 1.0
    assert g.xs == [1.0]
    with pytest.raises(ValueError, match=r"^no x in \[0, 10\]$"):
        _roots.newton(g, 1.0, 0.5, increasing=False, domain=(0.0, 10.0),
                      what="x", noise_evals=4, tol=0.25)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_newton_makes_k_evaluations_after_a_small_step(k):
    # the value is x plus a noise of 1e-12 that no step resolves: after the
    # first step below 1e-8 (the second), exactly k evaluations follow, and
    # the point with the smallest residual is kept
    def noisy(x):
        value = x + 1e-12 * math.sin(1e15 * x)
        return value, 0.5 - value

    g = _traced(noisy)
    x = _roots.newton(g, 0.0, 0.5, increasing=True, domain=(-1.0, 1.0),
                      what="x", noise_evals=k)
    assert len(g.xs) == 2 + k
    assert abs(g.xs[2] - g.xs[1]) <= 1e-8
    residuals = [abs(noisy(p)[0] - 0.5) for p in g.xs]
    assert min(residuals) > 2.0 * math.ulp(0.5)
    assert x == g.xs[residuals.index(min(residuals))]
