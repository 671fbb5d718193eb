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

import bisect
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


def _log_xi_steps(r: float, sigma: float) -> tuple[tuple[float, ...], ...]:
    """The steps d_k = ln xi(z_k) - ln xi(z_0), z_k = r + k sigma, for k =
    1, 2, and their partials, from one tail evaluation per point.

    The steps move with z at the inverse Mills ratio t_k = t(z_k) = d ln
    xi/dz: by m_k = (t_k - t_0)/sigma with mu, and by s_k = k t_k - r m_k
    with sigma; returns (d1, d2), (m1, m2, s1, s2).  In the left tail
    log xi(z) ~ -z**2/2; that part of each step is taken in closed form,
    so the small second differences the variance forms need are not lost
    in the rounding of two large logs.
    """
    z1, z2 = r + sigma, r + 2.0 * sigma
    if r < -1.0 and z2 < 37.0:
        e0, e1, e2 = exp_r2_half_xi(r), exp_r2_half_xi(z1), exp_r2_half_xi(z2)
        l0 = math.log(e0)
        steps = (math.log(e1) - l0 - sigma * (r + 0.5 * sigma),
                 math.log(e2) - l0 - 2.0 * sigma * (r + sigma))
        t0, t1, t2 = (_SQRT_2_OVER_PI / e0, _SQRT_2_OVER_PI / e1,
                      _SQRT_2_OVER_PI / e2)
    else:  # t = sqrt(2/pi) e^(-z**2/2) / xi(z)
        l0, l1, l2 = log_xi(r), log_xi(z1), log_xi(z2)
        steps = l1 - l0, l2 - l0
        t0 = _SQRT_2_OVER_PI * math.exp(-0.5 * r * r - l0)
        t1 = _SQRT_2_OVER_PI * math.exp(-0.5 * z1 * z1 - l1)
        t2 = _SQRT_2_OVER_PI * math.exp(-0.5 * z2 * z2 - l2)
    m1, m2 = (t1 - t0) / sigma, (t2 - t0) / sigma
    return steps, (m1, m2, t1 - r * m1, 2.0 * t2 - r * m2)


def _form_args(mu: float, sigma: float, a: float) -> tuple:
    # (sigma, r, _log_xi_steps(r, sigma)), the arguments both forms share
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    r = (mu - a) / sigma
    return sigma, r, _log_xi_steps(r, sigma)


def back_moments(mu: float, sigma: float, a: float) -> LognormalMoments:
    """Mean and variance of Y = e^X for X truncated-Gaussian."""
    args = _form_args(mu, sigma, a)
    lm = 0.5 * sigma * sigma + mu + args[2][0][0]
    lv = _form1(mu, *args)[0]
    if lm > 700.0 or lv > 1400.0:
        raise OverflowError("back-transformed moments exceed float range")
    return LognormalMoments(mean_y=math.exp(lm), var_y=math.exp(lv),
                            log_var_y=lv)


def _form1(mu: float, sigma: float, r: float,
           tails: tuple) -> tuple[float, float, float]:
    """Form I's log variance and its partials in mu and sigma; ``tails`` =
    ``_log_xi_steps(r, sigma)``, passed in so that both forms share it.

    Var = E[Y^2] - E[Y]^2, with the second-moment term factored out, is
    2 sigma**2 + 2 mu + d2 + ln(-expm1(q)), q = -sigma**2 + 2 d1 - d2.
    Where |q| < 1e-7 the second differences of ln xi and of t keep few
    digits (the slope 2.7% off at r = 2, sigma = 1e-7, the log variance
    2.6e-4 at r = -2.7, sigma = 4e-6), so q and its partials come from
    their expansions about z_1, correct to relative O(sigma**2): the log
    variance is within 5e-8 of mpmath for r in [-3, 2] and sigma in
    [1e-6, 1e-2] (tested), the slope as ``lognormal_slopes`` states.  The
    sigma-partial, which steers ``_sigma_pair``'s Newton solve, is
    positive for r in [-1e4, 1e6] over the whole sigma grid (tested);
    below r = -1e4 its s_k terms cancel.
    """
    (d1, d2), (m1, m2, s1, s2) = tails
    q = -sigma * sigma + 2.0 * d1 - d2
    if q > -1e-7:  # with Q = 1 - z t - t**2 at z_1 and Q' = t'' there:
        t, s, big_q = _core(r + sigma)
        big_q_dz = t * (s * s - big_q)
        q = -sigma * sigma * big_q
        dq_mu, dq_sigma = (-sigma * big_q_dz,
                           sigma * ((r - sigma) * big_q_dz - 2.0 * big_q))
    else:
        dq_mu, dq_sigma = 2.0 * m1 - m2, 2.0 * (s1 - sigma) - s2
    c = math.exp(q) / math.expm1(q)  # d ln(-expm1(q))/dq
    # q -> 0- as sigma -> 0, so 1 - e^q goes through expm1
    return (2.0 * sigma * sigma + 2.0 * mu + d2 + math.log(-math.expm1(q)),
            2.0 + m2 + c * dq_mu, 4.0 * sigma + s2 + c * dq_sigma)


def _log_var_form2(mu: float, sigma: float, r: float, tails: tuple,
                   log_M_y: float) -> float:
    (d1, d2), _ = tails
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
    args = _form_args(mu, sigma, a)
    log_m = (0.5 * sigma * sigma + mu + args[2][0][0] if M_y is None
             else math.log(M_y))
    return _form1(mu, *args)[0], _log_var_form2(mu, *args, log_m)


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
    is within 5e-8 for r in [-3, 2] and sigma in [1e-6, 1e-2], where it
    takes the small-sigma expansion of ``_form1``.
    """
    del M_y
    return (_level_slope(VarianceForm.I, mu, sigma, a),
            _level_slope(VarianceForm.II, mu, sigma, a))


def _level_slope(form: VarianceForm, mu: float, sigma: float,
                 a: float) -> float:
    # minus the ratio of the partials in mu and sigma of Form I's log
    # variance, or of Form II's expm1 argument -2 mu + d2 - 4 d1 + const,
    # whose level curves are Form II's
    sigma, r, tails = _form_args(mu, sigma, a)
    if form is VarianceForm.I:
        d_mu, d_sigma = _form1(mu, sigma, r, tails)[1:]
    else:  # (-2, 0) where t underflows, r > 37.7
        m1, m2, s1, s2 = tails[1]
        d_mu, d_sigma = -(2.0 - m2 + 4.0 * m1), s2 - 4.0 * s1
    return -d_mu / d_sigma if d_sigma else -math.inf


_SIGMA_GRID = [10.0 ** (-6.0 + 7.8 * i / 160.0) for i in range(161)]


def _sigma_pair(mu: float, a: float, log_M_y: float, target: float,
                seed: float) -> tuple[float, float]:
    """Form I's and Form II's roots in sigma at this mu, as
    ``calibrate_original`` describes; Form I's Newton solve starts at
    ``seed``."""
    def form1(s: float) -> tuple[float, float]:  # value, step in ln s
        value, _, d_sigma = _form1(mu, *_form_args(mu, s, a))
        return value, (target - value) / (s * d_sigma)

    def gap2(s: float) -> float:
        return _log_var_form2(mu, *_form_args(mu, s, a), log_M_y) - target

    what = "sigma reproducing the target variance at this mu"
    s1 = _roots.newton(form1, seed, target, increasing=True, log=True,
                       domain=(_SIGMA_GRID[0], _SIGMA_GRID[-1]),
                       what=what, noise_evals=1)
    start = min(bisect.bisect(_SIGMA_GRID, s1) - 1, len(_SIGMA_GRID) - 2)
    cell = _roots.scan(gap2, _SIGMA_GRID, what=what, start=start)
    return s1, _roots.brentq(gap2, *cell, what=what)


def calibrate_original(M_y: float, var_y: float, a: float, mu_seed: float,
                       rounds: int = 3) -> CalibrationResult:
    """Fit (mu, sigma) of the log-domain truncated Gaussian so that the
    back-transformed mean and variance match the ORIGINAL data.

    Runs the point-slope intersection on the log of the two variance forms
    (the raw variance is too steep in sigma for stable slopes when Var(Y)
    is large).  Each round takes, for each form, the smallest sigma in
    [1e-6, 63.0957] at which that form's log variance meets the target.
    Form I's rises with sigma (tested), so its root is one Newton solve in
    ln sigma, started at the untruncated lognormal's sigma for the target
    in the first round and at the previous root after that.  Form II's may
    cross the target twice or be undefined above some sigma; its root lies
    in the first cell of the 161-point log grid of sigma over which it
    crosses, which ``_roots.scan`` finds by bisecting the grid indices
    from the cell of Form I's root.  That finds the first crossing
    provided Form II crosses the target at most once between sigma = 1e-6
    and the probe beyond the crossing, which held on every census-like
    request measured; where ``scan`` cannot vouch for its cell it walks
    the grid up from sigma = 1e-6.  A round in which either form has no
    root raises ValueError("no sigma reproducing the target variance at
    this mu in [1e-06, 63.0957]").
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
    # sigma**2 = ln((1 + sqrt(1 + 4 Var e^(-2 mu)))/2) without truncation;
    # the cap keeps exp finite, so the seed is at most 18.7 and Newton
    # climbs from there to larger roots
    w = 4.0 * math.exp(min(target - 2.0 * mu, 700.0))
    s1 = math.sqrt(math.log((1.0 + math.sqrt(1.0 + w)) / 2.0))
    for _ in range(rounds):
        s1, s2 = _sigma_pair(mu, a, log_m, target, s1)
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
