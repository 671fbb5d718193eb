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
  good for weak truncation (U in [0.9, 1)).  It is solved for ln(1 - U),
  with W from w + ln w = -ln(2*pi) - 2 ln(1 - U), so every vhat up to its
  maximum 0.33442 has a location, however close to 1 it lies.

Refinement uses the two-point secant method or the point-slope
(tangent-intersection) method on the sigma(mu) curves.  ``calibrate_auto``
needs neither: vhat depends on the offset r = (mu - a)/sigma alone, so it
inverts vhat(r) exactly and reads sigma off the mean.

Every method takes the retained ``side``: by the mirror identity, a
right-side problem is the left-side one in the offsets sign*(x - a) from
the cutoff, in which each method evaluates the level curves.  ``_frame``
gives the sign (``utgd._sign``), ``_finish`` the achieved moments.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from enum import Enum

from . import _roots
from .specfun import _polyval, _w0_exp
from .utgd import Side, _core, _sign, _vhat_slope, dsigma1_dmu

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
    "calibrate_auto",
    "approx_switch_vhat",
]


class ApproxFn1Params(namedtuple("ApproxFn1Params", "c1 c2 c3 d1 d2 d3")):
    """Quadratic coefficients of alpha(U) and beta(U) for approximating
    function 1."""

    __slots__ = ()

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
_U_TOL, _APPROX1_MAXITER = 1e-12, 200  # function 1's U tolerance and cap


class Method(str, Enum):
    APPROX1 = "approx1"
    APPROX2 = "approx2"
    TWO_POINT = "two-point"
    POINT_SLOPE = "point-slope"
    EXACT = "exact"


class VarianceForm(str, Enum):
    I = "I"
    II = "II"


CalibrationResult = namedtuple(
    "CalibrationResult", "mu0 sigma0 method iterations mean_resid var_resid "
    "mean_achieved var_achieved")


def _frame(M: float, target_var: float, a: float,
           side: Side) -> tuple[float, float]:
    """The side's sign and d = sign*(M - a) > 0; a ValueError names the
    bound that a target no model attains misses."""
    sign = _sign(side)
    d = sign * (M - a)
    if not d > 0.0:
        raise ValueError("the cutoff must lie strictly "
                         f"{'above' if sign < 0.0 else 'below'} the target mean")
    if not 0.0 < target_var < d * d:
        raise ValueError(f"the variance of any such model is confined to "
                         f"(0, (mean - cutoff)^2) = (0, {d * d:g}); "
                         f"got {target_var:g}")
    return sign, d


def _finish(mu0: float, sigma0: float, M: float, target_var: float, a: float,
            sign: float, method: Method, iterations: int) -> CalibrationResult:
    if not sigma0 > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma0}")
    if not (math.isfinite(mu0) and math.isfinite(sigma0)):
        raise ValueError(f"mu and sigma must be finite, got {mu0}, {sigma0}")
    r = sign * (mu0 - a) / sigma0
    t, s, q = _core(r)
    # both achieved moments from one kernel call; above the cutoff the mean
    # is mu + sigma*t, which keeps the digits a + sigma*s loses when |a| is
    # far larger than |mu|
    mean = mu0 + sign * sigma0 * t if r > 0.0 else a + sign * sigma0 * s
    var = sigma0 * sigma0 * q
    # by position: by keyword the namedtuple took about twice as long
    # (0.7 against 0.35 us), on every calibration
    return CalibrationResult(
        mu0, sigma0, method, iterations,
        abs(mean - M) / abs(M) if M else abs(mean - M),
        abs(var - target_var) / target_var, mean, var)


# ---------------------------------------------------------------------------
# approximating functions
# ---------------------------------------------------------------------------

def sigma_approx1(U: float, params: ApproxFn1Params = APPROX1_SET_II) -> float:
    """Approximate normalized sigma at normalized location U (function 1)."""
    if not -100.0 <= U <= 0.9:
        raise ValueError(f"U={U} outside approximating function 1 validity")
    return math.sqrt(2.0 - math.exp(-params.alpha(U) * (1.0 - U) ** params.beta(U)) - U)


def solve_U_approx1(vhat: float,
                    params: ApproxFn1Params = APPROX1_SET_II) -> float:
    """Normalized location with approximate normalized variance vhat, by
    damped fixed-point recursion of function 1."""
    if not 0.0 < vhat < 1.0:
        raise ValueError("normalized variance must lie in (0, 1)")
    lg = -math.log1p(-vhat)
    u = 0.0
    prev_step = 0.0
    for _ in range(_APPROX1_MAXITER):
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
        if abs(step) <= _U_TOL:
            return u_next
        u, prev_step = u_next, step
    raise RuntimeError(f"no fixed point after {_APPROX1_MAXITER} iterations")


def sigma_approx2(U: float) -> float:
    """Approximate normalized sigma near the untruncated limit (function 2)."""
    if not 0.9 <= U < 1.0:
        raise ValueError(f"U={U} outside approximating function 2 validity")
    return _approx2(math.log1p(-U))[1]


_LN_2PI = math.log(2.0 * math.pi)
# function 2's normalized variance sigma~**2 - (1 - U) peaks at ln(1 - U) =
# _APPROX2_PEAK_L (U = 0.78335), at _APPROX2_VHAT_MAX: 50-digit mpmath
# values, which a test recomputes
_APPROX2_PEAK_L, _APPROX2_VHAT_MAX = -1.5294623586648546, 0.3344232791701668


def _approx2(l: float) -> tuple[float, float, float]:
    """Function 2 at l = ln(1 - U): U, sigma~ and w = W(1/(2 pi (1 - U)**2)),
    w from w + ln w = -ln(2 pi) - 2 l, so no power of 1 - U is formed."""
    U = -math.expm1(l)
    w = _w0_exp(-_LN_2PI - 2.0 * l)
    return U, U / math.sqrt(w), w


def _approx2_log_eps(vhat: float) -> float:
    """``solve_U_approx2``'s root as l = ln(1 - U)."""
    if not 0.0 < vhat < 1.0:
        raise ValueError("normalized variance must lie in (0, 1)")
    if vhat > _APPROX2_VHAT_MAX:
        raise ValueError(
            f"vhat={vhat:.15g} exceeds approximating function 2's maximum "
            f"normalized variance {_APPROX2_VHAT_MAX:.5f} (at U = 0.78335)")

    def g(l: float) -> tuple[float, float]:
        U, s, w = _approx2(l)
        eps, s2 = math.exp(l), s * s
        # the slope 2 U**2/(w (1 + w)) - 2 U eps/w - eps over s2 = U**2/w,
        # which keeps it from underflowing where vhat is below 1e-154
        k = 2.0 / (1.0 + w) - 2.0 * eps / U - eps / s2
        v = s2 - eps
        return v, (vhat - v) / s2 / k if k > 0.0 else math.nan

    # seed: sigma~**2 ~ 1/w ~ 1/L; below the lower end L overflows
    return _roots.newton(
        g, min(-0.5 * (_LN_2PI + 1.0 / vhat), _APPROX2_PEAK_L), vhat,
        increasing=True, domain=(-0.25 * sys.float_info.max, _APPROX2_PEAK_L),
        noise_evals=2, what=f"function-2 ln(1 - U) for vhat={vhat:g}")


def solve_U_approx2(vhat: float) -> float:
    """Normalized location whose function-2 variance equals vhat.

    The variance sigma~**2 - (1 - U) rises strictly in l = ln(1 - U) from 0
    as l -> -inf to its maximum 0.33442 at U = 0.78335; a larger vhat
    raises ValueError naming that maximum.  Newton steps in l
    (``_roots.newton``) on the closed-form slope, with W(1/(2 pi (1 - U)**2))
    from ``specfun._w0_exp`` (dw/dl = -2w/(1 + w)), find the root from the
    seed sigma~**2 ~ 1/L: 5.5 evaluations on average over vhat in (0,
    0.33442), up to 25 next to the maximum, where the root is double.  U is
    within 1e-14 relative of 50-digit mpmath from vhat = 1e-300 to 0.3344;
    below 1 - U = 5.6e-17 it rounds to 1 and ``calibrate_approx2`` reads
    sigma~ at l.  Below vhat = 1.1e-308 the root lies past l = -4.5e307,
    where L = -ln(2 pi) - 2 l overflows, and ValueError names that range.
    """
    return -math.expm1(_approx2_log_eps(vhat))


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

# r as a polynomial in logit(vhat) on r in [-3.5, 3.5] (vhat in [0.0813,
# 0.9009]); a Chebyshev fit to mpmath roots, within 8e-5 there
_R_SEED_MID = (0.38264131895812736, -1.30691370884815, -0.11443844716745484,
               -0.03442959015155442, -0.0003054611707185797,
               -0.0014413761282916569, 0.00010338270358562153)

def _r_seed(vhat: float) -> float:
    """Closed-form start for ``r_from_variance``, within 1.4e-4 * max(1, |r|)
    of the root."""
    if vhat < 0.0813:  # r > 3.5: vhat = Q/s**2 -> 1/r**2 as t -> 0
        r = 1.0 / math.sqrt(vhat)
        if r < 38.0:  # 1/sqrt(vhat) = r + t*(1 + r**2/2) + ...; exact above
            r -= (0.3989422804014327 + 0.19947114020071635 * r * r) \
                * math.exp(-0.5 * r * r)
        return r
    if vhat > 0.9009:  # r < -3.5: 2/(1 - vhat) = r**2 + 9 - 12w + 16.5w**2 ...
        w = 1.0 - vhat
        return -math.sqrt(2.0 / w - 9.0 + w * (12.0 - w * (16.5 - 48.0 * w)))
    return _polyval(_R_SEED_MID, math.log(vhat / (1.0 - vhat)))


def r_from_variance(vhat_target: float) -> float:
    """Invert the normalized variance: unique r with vhat(r) = vhat_target.

    Newton steps (``_roots.newton``) from the closed-form seed ``_r_seed``,
    with vhat and its slope from one kernel call per step.  Once a step
    falls below 1e-8 * max(1, |r|) the iterate holds the root to within
    vhat's evaluation noise, and one more evaluation follows; the evaluated
    r with the smallest residual is returned.

    The root is thus as sharp as that noise divided by the slope: a few ulps
    of vhat for r >= 0 and r <= -4 (up to 8 on (-11, -4], where t, s and Q
    come from the continued fraction), up to about 2e-13 relative on (-4,
    -2).  It takes one evaluation within 1e-6 of 1, nearly always one below
    vhat = 0.0123 (r > 9, where 1/sqrt(vhat) is the root up to rounding),
    and at most 3 over 40 000 random targets spread over the whole range
    (2.9 on average for vhat uniform on (0, 1)).
    """
    if not 0.0 < vhat_target < 1.0:
        raise ValueError("normalized variance must lie in (0, 1)")

    return _roots.newton(
        _vhat_slope, _r_seed(vhat_target), vhat_target, increasing=False,
        domain=(-math.inf, math.inf), noise_evals=1, slope=True,
        what="offset r")  # vhat is finite at every finite r: never raised


def sigma_newton(target_var: float, mu: float, a: float, M: float,
                 form: VarianceForm | str = VarianceForm.I) -> float:
    """Spread sigma at which the chosen variance form, evaluated at
    r = (mu - a)/sigma, equals target_var.

    Form II is sigma = (mu - a)/r, r from ``r_from_variance``.  Form I,
    sigma**2 Q(r), takes Newton steps in ln sigma over every sigma that
    leaves r finite, on the slope d ln Var/d ln sigma = 2/(1 - r k), k =
    ``dsigma1_dmu(r)``: 1 to 6 evaluations, 4.2 on average, for mu - a in
    +-[1e-3, 10] and variances in [1e-4, 10].  Where no sigma reproduces
    the target to 1e-8, as where Q rounds to 0 (r below about -1e8),
    ValueError names the range searched."""
    return _sigma_at(target_var, mu - a, M - a, VarianceForm(form), mu)


def _sigma_at(target_var: float, u: float, d: float, form: VarianceForm,
              mu: float) -> float:
    """``sigma_newton`` in offsets from the cutoff, u = mu - a and d = M - a,
    each times the side's sign; ``mu`` names the location in messages."""
    if not target_var > 0.0:
        raise ValueError("target variance must be positive")
    if u == 0.0:
        raise ValueError("mu must differ from the cutoff")

    if form is VarianceForm.II:
        d2 = d * d  # ** 2 raises OverflowError past 1.3e154
        if not target_var < d2:
            raise ValueError("Form II variance targets must lie below (M-a)**2")
        r = r_from_variance(target_var / d2)
        if r * u <= 0.0:
            raise ValueError(
                f"no Form II root with positive sigma at mu={mu}: the target "
                f"requires r={r:.6g} but mu - a has the opposite sign")
        return u / r

    def g(sigma: float) -> tuple[float, float]:
        r = u / sigma
        var = sigma * sigma * _core(r)[2]
        try:  # d ln Var/d ln sigma = 2/(1 - r k), k = dsigma1_dmu(r)
            return var, math.log1p((target_var - var) / var) \
                * (1.0 - r * dsigma1_dmu(r)) / 2.0
        except (ValueError, ZeroDivisionError):  # Var 0 or inf: no step
            return var, math.nan

    # seed: Q = 1 above the cutoff and Q ~ 1/(r**2 + 1/Q(0)) below it
    c = math.pi / (math.pi - 2.0) * target_var
    seed = math.sqrt(target_var if u > 0.0 else (c + math.hypot(
        c, 2.0 * math.sqrt(target_var) * u)) / 2.0)
    return _roots.newton(
        g, seed, target_var, increasing=True, noise_evals=2, log=True,
        domain=(max(math.ulp(0.0), abs(u) / sys.float_info.max),
                sys.float_info.max), tol=1e-8 * target_var,
        what=f"Form I spread sigma for variance {target_var:g} at mu={mu:g}")


def _intersect(mu: float, s1: float, s2: float, k1: float, k2: float,
               lines: str = "tangents") -> tuple[float, float]:
    """Where the lines through (mu, s1) and (mu, s2), slopes k1, k2, cross."""
    if k1 == k2:
        raise ValueError(f"{lines} are parallel at mu={mu}")
    mu0 = mu + (s2 - s1) / (k1 - k2)
    return mu0, s1 + k1 * (mu0 - mu)


def two_point(M: float, target_var: float, a: float,
              mu1: float | None = None, mu2: float | None = None,
              side: Side = Side.LEFT) -> CalibrationResult:
    """Intersect the secants of the two sigma(mu) level curves sampled at
    mu1 and mu2.  mu1 defaults to the location that the approximating
    function valid at this target gives, mu2 to mu1 moved towards the mean
    by 2% of |M - a|."""
    sign, d = _frame(M, target_var, a, side)
    mu1 = a + sign * _approx_seed(target_var, d)[1] if mu1 is None else mu1
    mu2 = mu1 + sign * 0.02 * d if mu2 is None else mu2
    if mu1 == mu2:
        raise ValueError("the two sampling locations must differ")
    u1, u2 = sign * (mu1 - a), sign * (mu2 - a)
    s11 = _sigma_at(target_var, u1, d, VarianceForm.I, mu1)
    s12 = _sigma_at(target_var, u2, d, VarianceForm.I, mu2)
    s21 = _sigma_at(target_var, u1, d, VarianceForm.II, mu1)
    s22 = _sigma_at(target_var, u2, d, VarianceForm.II, mu2)
    k1 = (s12 - s11) / (mu2 - mu1)
    k2 = (s22 - s21) / (mu2 - mu1)
    mu0, sigma0 = _intersect(mu1, s11, s21, k1, k2, "secants")
    return _finish(mu0, sigma0, M, target_var, a, sign, Method.TWO_POINT, 1)


def point_slope(M: float, target_var: float, a: float,
                mu1: float | None = None, rounds: int = 1,
                side: Side = Side.LEFT) -> CalibrationResult:
    """Intersect the tangents of the two sigma(mu) level curves at a single
    point, iterating the intersection forward for the requested number of
    rounds.  mu1 defaults to the location that the approximating function
    valid at this target gives."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    sign, d = _frame(M, target_var, a, side)
    mu = a + sign * _approx_seed(target_var, d)[1] if mu1 is None else mu1
    for _ in range(rounds):  # rounds >= 1 sets sigma0
        u = sign * (mu - a)
        s1 = _sigma_at(target_var, u, d, VarianceForm.I, mu)
        s2 = _sigma_at(target_var, u, d, VarianceForm.II, mu)
        k1 = sign * dsigma1_dmu(u / s1)  # slope in u, times du/dmu
        k2 = s2 / (mu - a)  # Form II curve is the exact line through (a, 0)
        mu, sigma0 = _intersect(mu, s1, s2, k1, k2)
    return _finish(mu, sigma0, M, target_var, a, sign, Method.POINT_SLOPE,
                   rounds)


def calibrate_approx1(M: float, target_var: float, a: float,
                      params: ApproxFn1Params = APPROX1_SET_II,
                      side: Side = Side.LEFT) -> CalibrationResult:
    """Closed-form calibration from approximating function 1 alone."""
    sign, d = _frame(M, target_var, a, side)
    U = solve_U_approx1(target_var / (d * d), params)
    return _finish(a + sign * U * d, d * sigma_approx1(U, params), M,
                   target_var, a, sign, Method.APPROX1, 1)


def calibrate_approx2(M: float, target_var: float, a: float,
                      side: Side = Side.LEFT) -> CalibrationResult:
    """Closed-form calibration from approximating function 2 alone."""
    sign, d = _frame(M, target_var, a, side)
    U, s, _ = _approx2(_approx2_log_eps(target_var / (d * d)))
    return _finish(a + sign * U * d, d * s, M, target_var, a, sign,
                   Method.APPROX2, 1)


# ---------------------------------------------------------------------------
# automatic dispatch
# ---------------------------------------------------------------------------

# the normalized variance on the congruent manifold where U = r/s(r) = 0.9,
# the handover point between the two approximating functions; a test
# recomputes it
_SWITCH_VHAT = 0.30160029345162614


def approx_switch_vhat() -> float:
    """Normalized variance on the congruent manifold at U = 0.9 -- the
    handover point between the two approximating functions."""
    return _SWITCH_VHAT


def _approx_seed(target_var: float, d: float) -> tuple[Method, float]:
    """Approximating function valid at this target, d = |M - a|, and the
    offset from the cutoff of the location it gives."""
    vhat = target_var / (d * d)
    if vhat >= _SWITCH_VHAT:
        return Method.APPROX1, solve_U_approx1(vhat) * d
    return Method.APPROX2, solve_U_approx2(vhat) * d


def calibrate_auto(M: float, target_var: float, a: float,
                   side: Side = Side.LEFT) -> CalibrationResult:
    """Exact calibration over the whole attainable range 0 < Var < (M-a)**2:
    r solves vhat(r) = Var/(M-a)**2, then sigma = |M-a|/s(r) and
    mu = a + r*sigma (mirrored about a on the right side)."""
    sign, d = _frame(M, target_var, a, side)
    r = r_from_variance(target_var / (d * d))
    t, s, _ = _core(r)
    sigma = d / s
    # mu - a = r*sigma = (M - a) - sigma*t; for r > 0 the second form keeps
    # mu's digits when the cutoff is far from the mean (|a| >> sigma)
    mu0 = M - sign * sigma * t if r > 0.0 else a + sign * r * sigma
    return _finish(mu0, sigma, M, target_var, a, sign, Method.EXACT, 1)
