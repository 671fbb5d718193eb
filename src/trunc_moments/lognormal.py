"""Back-transformed moments for log-transformed data.

When a truncated Gaussian with parameters (mu, sigma, a) models X = ln(Y),
the mean and variance of the original variable Y (supported on y > e^a) are
exponential-tilt integrals of the truncated normal density.  They reduce to
ratios of the tail-mass function xi at shifted arguments::

    E[Y]    = exp(sigma**2/2 + mu) * xi(r + sigma)  / xi(r)
    E[Y**2] = exp(2*sigma**2 + 2*mu) * xi(r + 2*sigma) / xi(r)

with r = (mu - a)/sigma.  All xi ratios are evaluated in log space (via
``log_xi``) so that census-scale parameters do not overflow, and the
variance is assembled with expm1/log1p to survive the near-cancellation
when sigma is small.

``calibrate_original`` runs the point-slope intersection scheme on the LOG
of the two variance forms, which keeps the level curves well conditioned
when Var(Y) spans many orders of magnitude.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _roots
from .calibrate import CalibrationResult, Method, _intersect
from .specfun import exp_r2_half_xi, xi
from .utgd import _core

__all__ = [
    "LognormalMoments",
    "log_xi",
    "back_moments",
    "log_var_forms",
    "lognormal_slopes",
    "calibrate_original",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


LognormalMoments = namedtuple("LognormalMoments", "mean_y var_y log_var_y")


def log_xi(z: float) -> float:
    """ln(xi(z)), stable into the deep left tail where xi underflows."""
    if z >= -1.0:
        return math.log(float(xi(z)))
    return -0.5 * z * z + math.log(float(exp_r2_half_xi(z)))


def _log_xi_steps(r: float, sigma: float) -> tuple[float, float]:
    """log xi(r + sigma) - log xi(r) and log xi(r + 2 sigma) - log xi(r).

    In the left tail log xi(z) ~ -z**2/2; that part of each step is taken
    in closed form, so the small second differences the variance forms
    need are not lost in the rounding of two large logs.
    """
    if r < -1.0 and r + 2.0 * sigma < 37.0:
        l0, l1, l2 = (math.log(float(exp_r2_half_xi(r + k * sigma)))
                      for k in (0.0, 1.0, 2.0))
        return (l1 - l0 - sigma * (r + 0.5 * sigma),
                l2 - l0 - 2.0 * sigma * (r + sigma))
    lx0 = log_xi(r)
    return log_xi(r + sigma) - lx0, log_xi(r + 2.0 * sigma) - lx0


def back_moments(mu: float, sigma: float, a: float) -> LognormalMoments:
    """Mean and variance of Y = e^X for X truncated-Gaussian."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    r = (mu - a) / sigma
    steps = _log_xi_steps(r, sigma)
    lm = 0.5 * sigma * sigma + mu + steps[0]
    lv = _log_var_form1(mu, sigma, r, steps)
    if lm > 700.0 or lv > 1400.0:
        raise OverflowError("back-transformed moments exceed float range")
    return LognormalMoments(mean_y=math.exp(lm), var_y=math.exp(lv),
                            log_var_y=lv)


def _log_var_form1(mu: float, sigma: float, r: float,
                   steps: tuple[float, float]) -> float:
    # steps = _log_xi_steps(r, sigma), passed in so that both forms share it
    d1, d2 = steps
    s2 = sigma * sigma
    # Var = E[Y^2] - E[Y]^2, with the second-moment term factored out;
    # q -> 0- as sigma -> 0, so 1 - e^q goes through expm1
    q = -s2 + 2.0 * d1 - d2
    if q > -1e-12:
        # the log-xi second difference is pure rounding noise here; use the
        # delta-method limit Var(y) ~ e^{2 mu} sigma**2 Q(r) instead
        q = -s2 * _core(r)[2]
    return 2.0 * s2 + 2.0 * mu + d2 + math.log(-math.expm1(q))


def _log_var_form2(mu: float, sigma: float, r: float,
                   steps: tuple[float, float], log_M_y: float) -> float:
    d1, d2 = steps
    arg = -2.0 * mu + 2.0 * log_M_y + d2 - 4.0 * d1
    # arg = log(1 + Var/M_y^2); near sigma -> 0 it sinks into rounding noise
    # of the log-xi differences, so switch to the delta-method limit there
    if abs(arg) < 1e-12:
        arg = sigma * sigma * _core(r)[2]
    elif arg < 0.0:
        raise ValueError(
            "the supplied mean admits no positive variance at these "
            "parameters (Form II)")
    return 2.0 * log_M_y + math.log(math.expm1(arg))


def log_var_forms(mu: float, sigma: float, a: float,
                  M_y: float | None = None) -> tuple[float, float]:
    """ln Var(Y) per Form I (no mean needed) and Form II (anchored to the
    supplied mean of Y; defaults to the congruent mean)."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    r = (mu - a) / sigma
    steps = _log_xi_steps(r, sigma)
    log_m = (0.5 * sigma * sigma + mu + steps[0] if M_y is None
             else math.log(M_y))
    return (_log_var_form1(mu, sigma, r, steps),
            _log_var_form2(mu, sigma, r, steps, log_m))


def lognormal_slopes(mu: float, sigma: float, a: float,
                     M_y: float) -> tuple[float, float]:
    """Slopes d(sigma)/d(mu) of the constant-Var(Y) level curves of the two
    log-variance forms."""
    # Form II: the anchor mean enters Var only through a multiplicative
    # constant, so it drops out of the derivative ratio -- M_y is accepted
    # for interface symmetry but does not influence the slope
    del M_y
    return _slope_form1(mu, sigma, a), _slope_form2(mu, sigma, a)


def _xi_terms(mu: float, sigma: float, a: float):
    """r and xi at r, r + sigma and r + 2 sigma, the slopes' common terms."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    r = (mu - a) / sigma
    return (r, float(xi(r)), float(xi(r + sigma)),
            float(xi(r + 2.0 * sigma)))


def _slope_form1(mu: float, sigma: float, a: float) -> float:
    r, x0, x1, x2 = _xi_terms(mu, sigma, a)
    s2 = sigma * sigma
    # sqrt(2*pi)*exp(r**2/2)*xi(r), through the scaled form to dodge overflow
    B = _SQRT_2PI * float(exp_r2_half_xi(r))

    num1 = (math.exp(s2) * (2.0 * math.exp(-sigma * (r + 1.5 * sigma)) * x1
                            - x2 - math.exp(-2.0 * sigma * (r + sigma)) * x0)
            + (x1 * x1 / x0 - math.exp(s2) * x2) * (sigma * B - 2.0))
    den1 = (2.0 * (r - sigma) * math.exp(-sigma * (r + 0.5 * sigma)) * x1
            + r * (math.exp(s2) * x2 - 2.0 * x1 * x1 / x0)
            + (2.0 * sigma - r) * math.exp(-sigma * (2.0 * r + sigma)) * x0
            + sigma * sigma * B / x0 * (2.0 * math.exp(s2) * x2 * x0 - x1 * x1))
    if den1 == 0.0:
        raise ZeroDivisionError("Form I slope denominator vanished")
    return num1 / den1


def _slope_form2(mu: float, sigma: float, a: float) -> float:
    r, x0, x1, x2 = _xi_terms(mu, sigma, a)
    jfac = x1 * x2 / x0
    ea = math.exp(2.0 * sigma * (r + sigma))
    eb = math.exp(sigma * (r + 1.5 * sigma))
    num2 = (3.0 * jfac * ea + x1 - 4.0 * eb * x2
            - _SQRT_2PI * sigma * float(exp_r2_half_xi(r + 2.0 * sigma)) * x1)
    den2 = (3.0 * r * jfac * ea + (r - 2.0 * sigma) * x1
            - 4.0 * (r - sigma) * eb * x2)
    if den2 == 0.0:
        raise ZeroDivisionError("Form II slope denominator vanished")
    return num2 / den2


_SIGMA_GRID = [10.0 ** (-6.0 + 7.8 * i / 160.0) for i in range(161)]


def _sigma_pair(mu: float, a: float, log_M_y: float, target: float,
                start: int | None) -> tuple[float, float, int | None]:
    """The sigma at which each log-variance form meets the target at this
    mu: the Form I root, the Form II root, and the grid index of Form I's
    cell, where the next round's search starts.

    Each form's root lies in its first sign-change cell on the sigma grid;
    the curves are only defined where the expm1/log1p arguments stay in
    range, so a cell with a NaN end is skipped instead of trusting a fixed
    bracket.  ``_roots.bisect_each`` finds both cells by bisection,
    evaluating the log-xi steps once per grid point it probes for both
    forms; each form's Brent solve starts from its own cell.
    """
    def at(s: float) -> tuple[float, float, tuple[float, float]]:
        r = (mu - a) / s
        return s, r, _log_xi_steps(r, s)

    gaps = (lambda p: _log_var_form1(mu, *p) - target,
            lambda p: _log_var_form2(mu, *p, log_M_y) - target)
    cells, start = _roots.bisect_each(at, gaps, _SIGMA_GRID, start)
    what = "sigma reproducing the target variance at this mu"
    s1, s2 = (_roots.brentq(lambda s: gap(at(s)), *cell, what=what)
              for gap, cell in zip(gaps, cells))
    return s1, s2, start


def calibrate_original(M_y: float, var_y: float, a: float, mu_seed: float,
                       rounds: int = 3) -> CalibrationResult:
    """Fit (mu, sigma) of the log-domain truncated Gaussian so that the
    back-transformed mean and variance match the ORIGINAL data.

    Runs the point-slope intersection on the log of the two variance forms
    (the raw variance is too steep in sigma for stable slopes when Var(Y)
    is large).  Each round takes, for each form, the root in the first
    cell of the 161-point log grid of sigma in [1e-6, 63.1] over which
    that form's log variance crosses the target, that is its
    smallest-sigma root.  The cells are found by bisection over the grid
    indices: Form I between the grid's ends in the first round and by a
    gallop from its previous cell after that, Form II by a gallop from
    Form I's cell; a probe where a form's log variance is undefined counts
    as beyond its crossing.  That finds the first crossing provided a
    form's log variance crosses the target at most once between
    sigma = 1e-6 and the probe beyond the crossing, which held on every
    census-like request measured.  Where a form's gap is NaN at
    sigma = 1e-6, the bisection ends on a NaN, or no probe crosses, the
    round walks the grid up from sigma = 1e-6 instead.  A round in which
    either form has no such cell raises ValueError("no sigma reproducing
    the target variance at this mu in [1e-06, 63.0957]").
    """
    if not M_y > math.exp(a):
        raise ValueError("target mean must exceed e**cutoff")
    if not var_y > 0.0 or rounds < 1:
        raise ValueError("need var_y > 0 and rounds >= 1")
    target = math.log(var_y)
    log_m = math.log(M_y)
    mu = mu_seed
    mu0 = sigma0 = math.nan
    growth = 0
    gap_prev = math.inf
    start = None  # the grid index of Form I's cell in the previous round
    for _ in range(rounds):
        s1, s2, start = _sigma_pair(mu, a, log_m, target, start)
        k1 = _slope_form1(mu, s1, a)
        k2 = _slope_form2(mu, s2, a)
        mu0, sigma0 = _intersect(mu, s1, s2, k1, k2)
        gap = abs(s2 - s1)
        growth = growth + 1 if gap > gap_prev else 0
        if growth >= 3:
            raise RuntimeError("point-slope iteration diverging")
        gap_prev = gap
        mu = mu0
    back = back_moments(mu0, sigma0, a)
    return CalibrationResult(
        mu0=mu0, sigma0=sigma0, method=Method.POINT_SLOPE, iterations=rounds,
        mean_resid=abs(back.mean_y - M_y) / M_y,
        var_resid=abs(back.var_y - var_y) / var_y,
        mean_achieved=back.mean_y, var_achieved=back.var_y)
