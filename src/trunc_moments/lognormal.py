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
when Var(Y) spans many orders of magnitude.  The level curves' slopes are
the partials of the same forms, through the inverse Mills ratio t(z) =
d ln xi/dz.
"""

from __future__ import annotations

import math
from collections import namedtuple

from . import _roots
from .calibrate import CalibrationResult, Method, VarianceForm, _intersect
from .specfun import exp_r2_half_xi, xi
from .utgd import _SQRT_2_OVER_PI, _core

__all__ = [
    "LognormalMoments",
    "log_xi",
    "back_moments",
    "log_var_forms",
    "lognormal_slopes",
    "calibrate_original",
]

LognormalMoments = namedtuple("LognormalMoments", "mean_y var_y log_var_y")


def log_xi(z: float) -> float:
    """ln(xi(z)), stable into the deep left tail where xi underflows."""
    if z >= -1.0:
        return math.log(xi(z))
    return -0.5 * z * z + math.log(exp_r2_half_xi(z))


def _log_xi_steps(r: float, sigma: float) -> tuple[float, float]:
    """log xi(r + sigma) - log xi(r) and log xi(r + 2 sigma) - log xi(r).

    In the left tail log xi(z) ~ -z**2/2; that part of each step is taken
    in closed form, so the small second differences the variance forms
    need are not lost in the rounding of two large logs.
    """
    if r < -1.0 and r + 2.0 * sigma < 37.0:
        l0, l1, l2 = (math.log(exp_r2_half_xi(r + k * sigma))
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
    log-variance forms; M_y, a constant factor of Form II's Var(Y), drops
    out of its slope.

    Relative error against mpmath derivatives of the forms, at most
    (Form I, Form II) 1e-13, 3e-14 for r = (mu - a)/sigma in [-1, 2] and
    sigma in [0.3, 1.5]; 1.5e-10, 3.5e-11 for r in [-6, 4] and sigma in
    [0.05, 2.5]; 5e-7, 2.5e-10 there for sigma in [1e-3, 0.05]; 1.5e-4,
    4.5e-8 for r in [-80, -40] and sigma in [0.01, 0.05].  Form I's slope
    is ill-conditioned as sigma -> 0: a few percent off below 1e-4.
    """
    del M_y
    return (_level_slope(VarianceForm.I, mu, sigma, a),
            _level_slope(VarianceForm.II, mu, sigma, a))


def _level_slope(form: VarianceForm, mu: float, sigma: float,
                 a: float) -> float:
    # minus the ratio of the form's partials in mu and sigma.  The steps
    # d_k = ln xi(z_k) - ln xi(z_0), z_k = r + k sigma, move with z at the
    # inverse Mills ratio t(z_k): by (t_k - t_0)/sigma with mu, and by
    # k t_k - r (t_k - t_0)/sigma with sigma
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    r = (mu - a) / sigma
    t0 = _SQRT_2_OVER_PI / exp_r2_half_xi(r)
    t1 = _SQRT_2_OVER_PI / exp_r2_half_xi(r + sigma)
    t2 = _SQRT_2_OVER_PI / exp_r2_half_xi(r + 2.0 * sigma)
    m1, m2 = (t1 - t0) / sigma, (t2 - t0) / sigma
    s1, s2 = t1 - r * m1, 2.0 * t2 - r * m2
    if form is VarianceForm.II:  # ln expm1(-2 mu + d2 - 4 d1 + const)
        den = s2 - 4.0 * s1  # 0 where every t underflows (r > 37.7)
        return (2.0 - m2 + 4.0 * m1) / den if den else -math.inf
    # 2 sigma**2 + 2 mu + d2 + ln(-expm1(q)), and q = -sigma**2 + 2 d1 - d2
    # = ln(t0 t2 / t1**2).  Where t2 underflows (r + 2 sigma > 37.5) q is
    # -sigma**2 up to the tail at z_0, which counts only for sigma > 15,
    # where c ~ -e^q vanishes
    q = math.log(t0 / t1 * (t2 / t1)) if t2 > 1e-300 else -sigma * sigma
    if q > -1e-12:  # rounding noise; the delta-method limit, as in the form
        q = -sigma * sigma * _core(r)[2]
    c = math.exp(q) / math.expm1(q)  # d ln(-expm1(q))/dq
    return -((2.0 + m2 + c * (2.0 * m1 - m2))
             / (4.0 * sigma + s2 + c * (2.0 * (s1 - sigma) - s2)))


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
        k1 = _level_slope(VarianceForm.I, mu, s1, a)
        k2 = _level_slope(VarianceForm.II, mu, s2, a)
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
