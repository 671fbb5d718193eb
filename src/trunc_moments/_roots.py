"""Root finding for the package's monotone 1-D solves.

``newton`` is the one Newton iteration, for the solves with a closed-form
slope: ``calibrate.r_from_variance`` in r, ``calibrate.solve_U_approx2``
in ln(1 - U), ``chi.chi_calibrate`` in ln|r|, and ``chi.double_sigma``,
Form I of ``calibrate.sigma_newton`` and both sigma-roots of
``lognormal.calibrate_original`` in ln sigma.  The two solves without
one, ``chi.nvmx_search`` and ``fitting._solve_scalar``, bracket the root
and call ``brentq``, which ports scipy's Brent solver step for step (same
``xtol + rtol*|x|`` stopping rule, same roots bit for bit), so the
package need not import ``scipy.optimize``.  ``expand`` widens a bracket
until it holds a sign change, and ``scan``, the one grid search, finds a
function's first sign-change cell on a grid by bisecting over the grid's
indices.  A missing root or bracket is a
ValueError naming the quantity and the range searched; an evaluation
that overflows or divides by zero counts as undefined (NaN).
"""

import functools
import math

RTOL = 8.9e-16  # just above 4 * machine epsilon, the floor scipy accepts
# the magnitudes between which ``expand`` moves an endpoint
_TINY, _HUGE = 1e-300, 1e300


def _fail(what: str, a: float, b: float) -> ValueError:
    return ValueError(f"no {what} in [{min(a, b):.6g}, {max(a, b):.6g}]")


def _eval(f, x: float) -> float:
    try:
        return f(x)
    except ArithmeticError:
        return math.nan


def _value(f, x):
    # f(x) for the grid search, which also reads a ValueError as undefined
    try:
        return f(x)
    except (ArithmeticError, ValueError):
        return math.nan


def _straddles(fa: float, fb: float) -> bool:
    return fa <= 0.0 <= fb or fb <= 0.0 <= fa  # False if either is NaN


def brentq(f, a: float, b: float, fa: float | None = None,
           fb: float | None = None, *, what: str,
           xtol: float = 1e-300) -> float:
    """Root of f in [a, b]; fa and fb are f(a) and f(b) if already known."""
    xpre, xcur = float(a), float(b)
    fpre = _eval(f, xpre) if fa is None else fa
    fcur = _eval(f, xcur) if fb is None else fb
    if not _straddles(fpre, fcur):
        raise _fail(what, a, b)
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
    raise _fail(what, a, b)


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


def expand(f, a: float, b: float, *, increasing: bool, what: str):
    """Widen [a, b], a < b, until f, monotone in the stated direction,
    changes sign over it; returns (a, b, f(a), f(b)).  The endpoint on the
    root's side moves away from the other by a factor of 2 (dividing
    towards 0, never across it) while its magnitude stays in [_TINY,
    _HUGE]."""
    fa, fb = _eval(f, a), _eval(f, b)
    while not _straddles(fa, fb):
        beyond_b = (fb < 0.0) == increasing
        x = b if beyond_b else a
        x = x * 2.0 if (x > 0.0) == beyond_b else x / 2.0
        if fa != fa or fb != fb or not _TINY <= abs(x) <= _HUGE:
            raise _fail(what, a, b)
        if beyond_b:
            b, fb = x, _eval(f, x)
        else:
            a, fa = x, _eval(f, x)
    return a, b, fa, fb


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
    g = functools.cache(lambda j: _value(f, grid[j]))
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
