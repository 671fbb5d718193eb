"""Root finding for the package's monotone 1-D solves.

``newton`` is the one Newton iteration, for the solves with a closed-form
slope: ``calibrate.r_from_variance`` in r, ``calibrate.solve_U_approx2``
in ln(1 - U), ``chi.chi_calibrate`` in ln|r|, and in ln sigma
``chi.double_sigma``, Form I of ``calibrate.sigma_newton`` and both
sigma-roots of ``lognormal.calibrate_original``, and the ``fit``
command's sigma estimates.  ``secant``, for ``chi.nvmx_search``, takes
secant steps from a close seed and hands a bracket on which they stall to
Brent's steps, which port scipy's Brent solver step for step (same
``xtol + rtol*|x|`` stopping rule), so the package need not import
``scipy.optimize``.  ``scan``, the one grid search, finds a function's
first sign-change cell on a grid by bisecting over the grid's indices.  A
missing root or bracket is a ValueError naming the quantity and the range
searched; an evaluation that overflows or divides by zero counts as
undefined (NaN).
"""

import functools
import math

RTOL = 8.9e-16  # just above 4 * machine epsilon, the floor scipy accepts


def _fail(what: str, a: float, b: float) -> ValueError:
    return ValueError(f"no {what} in [{min(a, b):.6g}, {max(a, b):.6g}]")


def _eval(f, x: float, undefined=ArithmeticError) -> float:
    # f(x), or NaN where it raises ``undefined``; the grid search also
    # reads a ValueError so
    try:
        return f(x)
    except undefined:
        return math.nan


def _straddles(fa: float, fb: float) -> bool:
    return fa <= 0.0 <= fb or fb <= 0.0 <= fa  # False if either is NaN


def _brent(f, xpre: float, xcur: float, fpre: float, fcur: float,
           xtol: float, settle: bool) -> float | None:
    """Brent's steps over [xpre, xcur], across which f changes sign; None
    where f turns undefined or 100 steps do not reach the tolerance.  With
    ``settle``, an interpolation step within the tolerance ends the search
    at its end, unevaluated, where Brent's method would step on by the
    tolerance to close the bracket."""
    xblk, fblk, spre, scur = xpre, fpre, 0.0, 0.0  # returns xpre if fpre == 0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # bisect unless interpolation earns a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # inf or NaN in C: bisect
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            if settle and abs(stry) <= 2 * delta:
                return xcur + stry
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        try:  # inline, not _eval: this is the solvers' inner loop
            fcur = f(xcur)
        except ArithmeticError:
            break
        if fcur != fcur:
            break
    return None


def secant(f, x: float, *, what: str, xtol: float) -> float:
    """Root of f, decreasing on x > 0, by secant steps from a seed x close
    to it: the first to x (1 +- 1e-3), on the root's side, each later one
    through the last two points.

    Until f changes sign no step leaves the band [0.95 x, 1.05 x], whose
    end on the root's side moves away by a factor of 2 (dividing towards
    0) each time the iterate reaches it: far from its root, f may sit at
    its rounding level with either sign.  Once f has changed sign, a step
    that leaves the bracket of evaluated points, or is not below half the
    step before it, hands the bracket to Brent's steps, which bisect where
    interpolation stalls.  The search stops on a step within xtol + RTOL
    |x|, at the step's end, unevaluated, or on a bracket that narrow.  A
    NaN value, or no root in 100 steps, raises the no-root error naming
    the band.
    """
    lo, hi = 0.95 * x, 1.05 * x
    below = above = None  # (x, f(x)), the latest on each side of the root
    xpre = fpre = None
    last = math.inf  # the last step
    for _ in range(100):
        fx = _eval(f, x)
        if fx != fx:
            break
        if fx == 0.0:
            return x
        up = fx > 0.0  # the root lies above x
        if up:
            below = x, fx
        else:
            above = x, fx
        if xpre is None:
            x_next = x * (1.0 + 1e-3 if up else 1.0 - 1e-3)
        elif fx != fpre:
            x_next = x - fx * (x - xpre) / (fx - fpre)
        else:
            x_next = math.nan
        step = abs(x_next - x)
        if below and above:
            if not (below[0] < x_next < above[0] and 2.0 * step < last):
                xo, fo = above if up else below
                x = _brent(f, xo, x, fo, fx, xtol, True)
                if x is None:
                    break
                return x
        elif up:
            if x >= hi:
                hi *= 2.0
            if not x < x_next <= hi:  # NaN, or the wrong way, or past it
                x_next = hi
                step = x_next - x
        else:
            if x <= lo:
                lo *= 0.5
            if not lo <= x_next < x:
                x_next = lo
                step = x - x_next
        if step <= xtol + RTOL * x:
            return x_next
        xpre, fpre, x, last = x, fx, x_next, step
    raise _fail(what, lo, hi)


def newton(g, x: float, target: float, *, increasing: bool,
           domain: tuple[float, float], what: str, noise_evals: int,
           log: bool = False, slope: bool = False,
           tol: float = math.inf) -> float:
    """Safeguarded Newton iteration from x for the x in ``domain`` at which
    a quantity, monotone in x, equals ``target``: g(x) gives the quantity
    and a Newton step towards the target (NaN if none), in ln x if ``log``;
    with ``slope``, the quantity and its derivative in x, from which the
    step is formed here, so that a kernel can be passed as it is, with no
    wrapper to call per evaluation (``calibrate.r_from_variance``).

    A step that leaves the bracket of evaluated points bisects it or, while
    a side is open, moves 1, 2, 4, ... towards the root, stopping at the
    domain's ends.  The iteration stops within 2 ulps of the target, on a
    zero step, or ``noise_evals`` (>= 1) evaluations after a step below
    1e-8 max(1, |x|) (1e-8 x if ``log``), where only the value's rounding
    noise is left.  Returns the evaluated x with the smallest residual; a
    NaN value, a step past an end from that end, or a smallest residual
    above ``tol`` raises the no-root error naming the domain.
    """
    a, b = domain
    x = min(max(x, a), b)
    floor = 2.0 * math.ulp(target)
    below, above = -math.inf, math.inf  # evaluated, either side of the root
    best_x, best, jump, left = x, math.inf, 1.0, math.inf
    for _ in range(100):
        try:
            value, step = g(x)
        except ArithmeticError:
            value = step = math.nan
        f = value - target
        if f != f:
            raise _fail(what, a, b)
        if slope:  # g gave the quantity's slope; a wrong sign leaves the
            step = -f / step if step else math.nan  # bracket, as NaN does
        err = abs(f)
        if err < best:
            best_x, best = x, err
        if err <= floor or left == 0:
            break
        up = (f < 0.0) == increasing  # the root lies above x
        if up:
            below = x
        else:
            above = x
        # math.exp raises past 709.78
        x_next = x * math.exp(min(step, 700.0)) if log else x + step
        # a zero step stops below: bisecting instead took up to 35
        # evaluations where the value is flat to its last bit
        if x_next != x and not below < x_next < above:  # left it, or NaN
            if -math.inf < below and above < math.inf:
                x_next = (math.sqrt(below) * math.sqrt(above) if log
                          else 0.5 * (below + above))
            else:
                dx, jump = jump if up else -jump, 2.0 * jump
                x_next = x * math.exp(min(dx, 700.0)) if log else x + dx
        if not a <= x_next <= b:
            if x in domain:  # the root lies past the searched end
                raise _fail(what, a, b)
            x_next = min(max(x_next, a), b)
        step = abs(x_next - x)
        if step == 0.0:  # x is the root to the last bit
            break
        if step <= 1e-8 * (x if log else max(1.0, abs(x))):
            left = min(left, noise_evals)
        x, left = x_next, left - 1
    if best > tol:
        raise _fail(what, a, b)
    return best_x


def scan(f, grid, *, what: str, start: int | None = None):
    """First cell of ``grid`` over which f changes sign, as (a, b, f(a),
    f(b)), skipping cells where f is NaN or raises at either end.

    The cell is found by bisection over the indices of ``grid``: between
    grid[0] and grid[-1] or, given ``start``, between the nearest indices
    on either side of the sign change that a gallop outward from
    grid[start] reaches.  A probe where f is undefined counts as beyond
    the sign change.  The cell so found is the walk's first one provided
    f changes sign at most once between grid[0] and the probe that bounds
    the search.  Where f is zero or undefined at grid[0], the search ends
    on an undefined point, or f has no point of the other sign, a walk up
    the grid decides instead.  f is evaluated at most once per grid point;
    a grid without such a cell raises the no-root error.
    """
    g = functools.cache(
        lambda j: _eval(f, grid[j], (ArithmeticError, ValueError)))
    found = _first_change(g, len(grid), start) or _walk(g, len(grid))
    if found is None:
        raise _fail(what, min(grid), max(grid))
    j, fa, fb = found
    return grid[j], grid[j + 1], fa, fb


def _walk(g, n: int):
    """(j, g(j), g(j + 1)) for the first cell of the indices 0..n-1 over
    which g changes sign, skipping cells with a NaN end; None where there
    is none."""
    prev = math.nan
    for j in range(n):
        v = g(j)
        if _straddles(prev, v):
            return j - 1, prev, v
        prev = v
    return None


def _first_change(g, n: int, hint: int | None):
    """(j, g(j), g(j + 1)) for the cell of the indices 0..n-1 over which g
    leaves the sign of g(0), a NaN probe counting as past it; None where
    g(0) is zero or NaN, g never leaves its sign, or the cell's upper end
    is NaN: see ``scan``."""
    negative = g(0) < 0.0
    if not (negative or g(0) > 0.0):
        return None

    def crossed(j):  # True where g(j) is NaN
        v = g(j)
        return not (v < 0.0 if negative else v > 0.0)

    if hint is None:
        lo, hi = 0, n - 1
        if not crossed(hi):
            return None
    elif crossed(hint):
        hi, step = hint, 1  # gallop down to a point of g(0)'s sign
        while True:
            lo = max(hi - step, 0)
            if lo == 0 or not crossed(lo):
                break
            hi, step = lo, 2 * step
    else:
        lo, step = hint, 1  # gallop up to a point past the sign change
        while True:
            hi = min(lo + step, n - 1)
            if crossed(hi):
                break
            if hi == n - 1:
                return None
            lo, step = hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if crossed(mid) else (mid, hi)
    fb = g(hi)
    return None if fb != fb else (lo, g(lo), fb)
