"""Recover truncated-Gaussian parameters (mu, sigma) from target moments.

Given the mean M of the retained mass, a target variance and the cutoff a,
the parent parameters are pinned down by intersecting the two level curves
sigma(mu) implied by the two variance forms.  Everything is done in the
normalized frame U = (mu - a)/(M - a), vhat = Var/(M - a)**2, which makes
the solvers scale-free.

Two closed-form approximating functions give cheap starting points:

* fn 1: sigma ~ sqrt(2 - exp(-alpha*(1-U)**beta) - U) with alpha, beta
  quadratics in U; good for moderate-to-deep truncation (U well below 1).
* fn 2: sigma ~ U / sqrt(W(1/(2*pi*(1-U)**2))) via the Lambert W function;
  good for weak truncation (U in [0.9, 1)).

Refinement uses the two-point secant method or the point-slope
(tangent-intersection) method on the sigma(mu) curves.  ``calibrate_auto``
needs neither: vhat depends on the offset r = (mu - a)/sigma alone, so it
inverts vhat(r) exactly and reads sigma off the mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from itertools import accumulate
from operator import sub

from . import _roots, utgd
from .specfun import _polyval, lambert_w0
from .utgd import Side, TruncatedGaussianSpec, _core, \
    _VHAT_NUM, _VHAT_DEN_MINUS_NUM, _SERIES_CUT, normalized_variance

__all__ = [
    "ApproxFn1Params",
    "APPROX1_SET_I",
    "APPROX1_SET_II",
    "Method",
    "VarianceForm",
    "CalibrationResult",
    "calibrate_approx1",
    "calibrate_approx2",
    "sigma_approx1",
    "solve_U_approx1",
    "sigma_approx2",
    "solve_U_approx2",
    "sigma_newton",
    "r_from_variance",
    "two_point",
    "point_slope",
    "dsigma1_dmu",
    "calibrate_auto",
    "approx_switch_vhat",
]


@dataclass(frozen=True)
class ApproxFn1Params:
    """Quadratic coefficients of alpha(U) and beta(U) for approximating
    function 1."""

    c1: float
    c2: float
    c3: float
    d1: float
    d2: float
    d3: float

    def alpha(self, U: float) -> float:
        return self.c1 + self.c2 * U + self.c3 * U * U

    def beta(self, U: float) -> float:
        return self.d1 + self.d2 * U + self.d3 * U * U


APPROX1_SET_I = ApproxFn1Params(
    c1=0.8388698504360610, c2=-0.0079952671525833, c3=-0.0000323315551536,
    d1=0.3625552742358368, d2=0.0015595446175739, d3=0.0000206350887888)

# default set: c1 = ln(2/(4-pi)), which makes sigma exact at U = 0
APPROX1_SET_II = ApproxFn1Params(
    c1=0.8458237100024218, c2=-0.0076717015064936, c3=-0.0000294382245497,
    d1=0.3625552742358368, d2=0.0015595446175739, d3=0.0000206350887888)


class Method(str, Enum):
    APPROX1 = "approx1"
    APPROX2 = "approx2"
    TWO_POINT = "two-point"
    POINT_SLOPE = "point-slope"
    EXACT = "exact"


class VarianceForm(str, Enum):
    I = "I"
    II = "II"


@dataclass(frozen=True)
class CalibrationResult:
    mu0: float
    sigma0: float
    method: Method
    iterations: int
    mean_resid: float
    var_resid: float
    mean_achieved: float
    var_achieved: float


def _finish(mu0: float, sigma0: float, M: float, target_var: float, a: float,
            method: Method, iterations: int) -> CalibrationResult:
    mean = utgd.mean_from_params(TruncatedGaussianSpec(mu0, sigma0, a))
    var = utgd.var_form1(sigma0, (mu0 - a) / sigma0)
    return CalibrationResult(
        mu0=mu0, sigma0=sigma0, method=method, iterations=iterations,
        mean_resid=abs(mean - M) / abs(M) if M else abs(mean - M),
        var_resid=abs(var - target_var) / target_var,
        mean_achieved=mean, var_achieved=var)


# ---------------------------------------------------------------------------
# approximating functions
# ---------------------------------------------------------------------------

def sigma_approx1(U: float, params: ApproxFn1Params = APPROX1_SET_II) -> float:
    """Approximate normalized sigma at normalized location U (function 1)."""
    if not -100.0 <= U <= 0.9:
        raise ValueError(f"U={U} outside approximating function 1 validity")
    return math.sqrt(2.0 - math.exp(-params.alpha(U) * (1.0 - U) ** params.beta(U)) - U)


def solve_U_approx1(vhat: float, params: ApproxFn1Params = APPROX1_SET_II,
                    tol: float = 1e-12, maxiter: int = 200) -> float:
    """Normalized location with approximate normalized variance vhat, by
    damped fixed-point recursion of function 1."""
    if not 0.0 < vhat < 1.0:
        raise ValueError("normalized variance must lie in (0, 1)")
    lg = -math.log1p(-vhat)
    u = 0.0
    prev_step = 0.0
    for it in range(maxiter):
        alpha = params.alpha(u)
        if not alpha > 0.0:  # U far below -100: the power turns complex
            raise ValueError(
                f"vhat={vhat:.15g} is beyond approximating function 1's "
                f"validity U in [-100, 0.9] (recursion reached U={u:.6g})")
        u_next = 1.0 - (lg / alpha) ** (1.0 / params.beta(u))
        step = u_next - u
        if step * prev_step < 0.0:  # oscillating: damp
            u_next = u + 0.5 * step
            step = 0.5 * step
        if abs(step) <= tol:
            return u_next
        u, prev_step = u_next, step
    raise RuntimeError(f"no fixed point after {maxiter} iterations")


def sigma_approx2(U: float) -> float:
    """Approximate normalized sigma near the untruncated limit (function 2)."""
    if not 0.9 <= U < 1.0:
        raise ValueError(f"U={U} outside approximating function 2 validity")
    return _sigma_approx2_unchecked(U)


def _sigma_approx2_unchecked(U: float) -> float:
    return U / math.sqrt(lambert_w0(1.0 / (2.0 * math.pi * (1.0 - U) ** 2)))


_APPROX2_GRID = (1.0 - 1e-13, *accumulate([0.9] + [0.02] * 19, sub))


def solve_U_approx2(vhat: float, tol: float = 1e-12) -> float:
    """Normalized location whose function-2 variance equals vhat.

    The recursion U <- vhat + 1 - sigma~(U)**2 is repelling at the solution
    (its derivative there exceeds 1), so the fixed point is located by
    bracketed root finding on the same equation instead.
    """
    if not 0.0 < vhat < 1.0:
        raise ValueError("normalized variance must lie in (0, 1)")

    def g(u: float) -> float:
        s = _sigma_approx2_unchecked(u)
        return s * s - (vhat + 1.0 - u)

    # g < 0 at U -> 1-; scan down from there by 0.02 for a sign change (the
    # bracket may start slightly below 0.9 when vhat sits at the dispatch
    # boundary), then solve between that U and U -> 1- (g is monotone)
    what = f"function-2 location U for vhat={vhat:g}"
    _, lo, _, glo = _roots.scan(g, _APPROX2_GRID, what=what)
    return _roots.brentq(g, lo, _APPROX2_GRID[0], glo, what=what, xtol=tol)


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

def r_from_variance(vhat_target: float) -> float:
    """Invert the normalized variance: unique r with vhat(r) = vhat_target."""
    if not 0.0 < vhat_target < 1.0:
        raise ValueError("normalized variance must lie in (0, 1)")
    # vhat decreases monotonically from 1 (r -> -inf) to 0 (r -> +inf)
    def f(r: float) -> float:
        return normalized_variance(r) - vhat_target

    what = f"offset r with normalized variance {vhat_target:g}"
    return _roots.brentq(f, *_roots.expand(
        f, -1.0, 1.0, increasing=False, what=what), what=what)


def sigma_newton(target_var: float, mu: float, a: float, M: float,
                 form: VarianceForm | str = VarianceForm.I) -> float:
    """Spread sigma at which the chosen variance form, evaluated at
    r = (mu - a)/sigma, equals target_var."""
    if not target_var > 0.0:
        raise ValueError("target variance must be positive")
    if mu == a:
        raise ValueError("mu must differ from the cutoff")
    form = VarianceForm(form)
    d = mu - a

    if form is VarianceForm.II:
        d2 = (M - a) * (M - a)  # ** 2 raises OverflowError past 1.3e154
        if not target_var < d2:
            raise ValueError("Form II variance targets must lie below (M-a)**2")
        r = r_from_variance(target_var / d2)
        if r * d <= 0.0:
            raise ValueError(
                f"no Form II root with positive sigma at mu={mu}: the target "
                f"requires r={r:.6g} but mu - a has the opposite sign")
        return d / r

    # Form I: Var(r) = (d/r)**2 * Q(r) decreases monotonically in |r|
    def f(r: float) -> float:
        return (d / r) ** 2 * _core(r)[2] - target_var

    lo, hi = (1e-8, 1.0) if d > 0.0 else (-1.0, -1e-8)
    what = f"Form I offset r for variance {target_var:g} at mu={mu:g}"
    bracket = _roots.expand(f, lo, hi, increasing=d < 0.0, what=what,
                            tiny=1e-280, huge=1e12)
    return d / _roots.brentq(f, *bracket, what=what)


def dsigma1_dmu(r: float) -> float:
    """Slope of the Form I level curve sigma_1(mu) at offset r; negative for
    all r, with infimum ~ -0.32471 near r ~ 0.5988."""
    if math.isnan(r):
        return math.nan
    if r > _SERIES_CUT:
        t, s, q = _core(r)
        dq = t * (s * s - q)  # dQ/dr
        return dq / (r * dq - 2.0 * q)
    u = 1.0 / (r * r)
    t = _core(r)[0]
    n = _polyval(_VHAT_NUM, u)
    dn = _polyval(_VHAT_DEN_MINUS_NUM, u)
    return t * dn / (r * t * dn - 2.0 * n)


def _intersect(mu: float, s1: float, s2: float, k1: float, k2: float,
               lines: str = "tangents") -> tuple[float, float]:
    """Where the lines through (mu, s1) and (mu, s2), slopes k1, k2, cross."""
    if k1 == k2:
        raise ValueError(f"{lines} are parallel at mu={mu}")
    mu0 = mu + (s2 - s1) / (k1 - k2)
    return mu0, s1 + k1 * (mu0 - mu)


def two_point(M: float, target_var: float, a: float,
              mu1: float, mu2: float) -> CalibrationResult:
    """Intersect the secants of the two sigma(mu) level curves sampled at
    mu1 and mu2."""
    if mu1 == mu2:
        raise ValueError("the two sampling locations must differ")
    s11 = sigma_newton(target_var, mu1, a, M, VarianceForm.I)
    s12 = sigma_newton(target_var, mu2, a, M, VarianceForm.I)
    s21 = sigma_newton(target_var, mu1, a, M, VarianceForm.II)
    s22 = sigma_newton(target_var, mu2, a, M, VarianceForm.II)
    k1 = (s12 - s11) / (mu2 - mu1)
    k2 = (s22 - s21) / (mu2 - mu1)
    mu0, sigma0 = _intersect(mu1, s11, s21, k1, k2, "secants")
    return _finish(mu0, sigma0, M, target_var, a, Method.TWO_POINT, 1)


def point_slope(M: float, target_var: float, a: float, mu1: float,
                rounds: int = 1) -> CalibrationResult:
    """Intersect the tangents of the two sigma(mu) level curves at a single
    point, iterating the intersection forward for the requested number of
    rounds."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    mu = mu1
    mu0 = sigma0 = math.nan
    for _ in range(rounds):
        s1 = sigma_newton(target_var, mu, a, M, VarianceForm.I)
        s2 = sigma_newton(target_var, mu, a, M, VarianceForm.II)
        k1 = dsigma1_dmu((mu - a) / s1)
        k2 = s2 / (mu - a)  # Form II curve is the exact line through (a, 0)
        mu0, sigma0 = _intersect(mu, s1, s2, k1, k2)
        mu = mu0
    return _finish(mu0, sigma0, M, target_var, a, Method.POINT_SLOPE, rounds)


def calibrate_approx1(M: float, target_var: float, a: float,
                      params: ApproxFn1Params = APPROX1_SET_II) -> CalibrationResult:
    """Closed-form calibration from approximating function 1 alone."""
    d = M - a
    U = solve_U_approx1(target_var / (d * d), params)
    return _finish(a + U * d, d * sigma_approx1(U, params), M,
                   target_var, a, Method.APPROX1, 1)


def calibrate_approx2(M: float, target_var: float, a: float) -> CalibrationResult:
    """Closed-form calibration from approximating function 2 alone."""
    d = M - a
    U = solve_U_approx2(target_var / (d * d))
    return _finish(a + U * d, d * _sigma_approx2_unchecked(U), M,
                   target_var, a, Method.APPROX2, 1)


# ---------------------------------------------------------------------------
# automatic dispatch
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def approx_switch_vhat() -> float:
    """Normalized variance on the congruent manifold at U = 0.9 -- the
    handover point between the two approximating functions."""
    r = _roots.brentq(lambda r: r / _core(r)[1] - 0.9, 0.0, 10.0,
                      what="offset r at U = 0.9", xtol=1e-15)
    return normalized_variance(r)


def _approx_seed(M: float, target_var: float, a: float) -> tuple[Method, float]:
    """Approximating function valid at this target, and the mu it seeds."""
    d = M - a
    vhat = target_var / (d * d)
    if vhat >= approx_switch_vhat():
        return Method.APPROX1, a + solve_U_approx1(vhat) * d
    return Method.APPROX2, a + solve_U_approx2(vhat) * d


def calibrate_auto(M: float, target_var: float, a: float,
                   side: Side = Side.LEFT) -> CalibrationResult:
    """Exact calibration over the whole attainable range 0 < Var < (M-a)**2:
    r solves vhat(r) = Var/(M-a)**2, then sigma = (M-a)/s(r) and
    mu = a + r*sigma."""
    side = Side(side)
    if side is Side.RIGHT:
        res = calibrate_auto(2.0 * a - M, target_var, a)
        mean = 2.0 * a - res.mean_achieved
        return replace(res, mu0=2.0 * a - res.mu0, mean_achieved=mean,
                       mean_resid=abs(mean - M) / (abs(M) or 1.0))
    d = M - a
    if not (d > 0.0 and 0.0 < target_var < d * d):
        raise ValueError("need M > a and a target variance in (0, (M-a)**2)")
    r = r_from_variance(target_var / (d * d))
    sigma = d / _core(r)[1]
    return _finish(a + r * sigma, sigma, M, target_var, a, Method.EXACT, 1)
