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
when Var(Y) spans many orders of magnitude; their slopes are the forms'
partials, through the inverse Mills ratio t(z) = d ln xi/dz.
"""

from __future__ import annotations

import bisect
import functools
import math
from collections import namedtuple

from . import _roots
from .calibrate import CalibrationResult, Method, _intersect
from .specfun import _SQRT2, exp_r2_half_xi
from .utgd import _SQRT_2_OVER_PI, _TAIL_CUT, _core

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
    if z >= -1.0:  # xi(z), inline: this is the forms' inner loop
        return math.log(math.erfc(-z / _SQRT2))
    return -0.5 * z * z + math.log(exp_r2_half_xi(z))


def _log_xi_steps(r: float, sigma: float) -> tuple:
    """(e1, e2), (w0, w1, w2), tail: w_k = z_k**2/2 + ln xi(z_k), z_k = r
    + k sigma, whence t_k = d ln xi/dz = sqrt(2/pi) e^-w_k, from one tail
    evaluation per point, and the steps of ln xi, e_k = ln xi(z_k) - ln
    xi(z_0), or, where ``tail`` is true, those of w, e_k = w_k - w_0.  In
    the left tail, where ln xi is -z**2/2 + w, the steps of ln xi are
    mostly their closed-form z**2/2 parts, which the forms cancel: so
    their small second differences keep their digits.
    """
    z1, z2 = r + sigma, r + 2.0 * sigma
    if r < -1.0 and z2 < 37.0:
        w0 = math.log(exp_r2_half_xi(r))
        w1, w2 = math.log(exp_r2_half_xi(z1)), math.log(exp_r2_half_xi(z2))
        return (w1 - w0, w2 - w0), (w0, w1, w2), True
    l0, l1, l2 = log_xi(r), log_xi(z1), log_xi(z2)
    return (l1 - l0, l2 - l0), (0.5 * r * r + l0, 0.5 * z1 * z1 + l1,
                                0.5 * z2 * z2 + l2), False


def _forms(mu: float, sigma: float, a: float,
           log_M_y: float | None = None) -> tuple:
    """(ln E[Y], Form I's and Form II's log variances, parts) at (mu,
    sigma) from one ``_log_xi_steps`` call; ``_partials(parts)`` gives the
    forms' partials.  Form II is anchored to the mean e^log_M_y (default
    the congruent E[Y]) and is NaN where it has no log variance.

    With d_k the steps of ln xi, ln E[Y] = mu + sigma**2/2 + d1 and ln
    E[Y**2] = 2 mu + 2 sigma**2 + d2.  Form I is ln E[Y**2] +
    ln(-expm1(q)), q = -sigma**2 + 2 d1 - d2; Form II, Var = M_y**2
    expm1(arg), has arg = 2 (ln M_y - ln E[Y]) - q, exactly -q at the
    congruent mean, formed as 2 (ln M_y - mu) - (4 d1 - d2), whose sigma**2
    terms cancel (at sigma = 12.9 their rounding left 1e-12 of noise in ln
    Var).  In the left tail, with the steps e_k of w, sigma r = mu - a
    cancels too: ln E[Y] = a + e1, ln E[Y**2] = 2 a + e2, q = 2 e1 - e2
    and arg = 2 (ln M_y - a) - (4 e1 - e2) (at r = -17 and sigma = 5.3 the
    cancelling terms left 1e-13 of noise in ln Var).  Below |q| = 1e-7,
    where the second differences keep few digits, q and its partials come
    from their expansions about z_1: at the congruent mean both log
    variances are within 5e-8 of mpmath for r in [-3, 2] and sigma in
    [1e-6, 1e-2], and for r in [-10, -6] and sigma in [1e-6, 3e-3]
    (tested).  With a supplied mean Form II is as accurate as ln M_y, one
    ulp of which moves it by about 1e-4 at sigma = 1e-6.
    """
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    r = (mu - a) / sigma
    (e1, e2), ws, tail = _log_xi_steps(r, sigma)
    base, c = (a, 0.0) if tail else (mu, sigma * sigma)
    q = -c + 2.0 * e1 - e2
    spread = 4.0 * e1 - e2  # arg = 2 (ln M_y - base) - spread
    core = None
    if q > -1e-7:  # (t, s, Q) at z_1, as _core gives them
        z, t = r + sigma, _SQRT_2_OVER_PI * math.exp(-ws[1])
        core = (t, z + t, 1.0 - z * t - t * t) if z > _TAIL_CUT else _core(z)
        q = -sigma * sigma * core[2]
        spread = c + 2.0 * e1 + q
    # q -> 0- as sigma -> 0, so 1 - e^q goes through expm1
    lv1 = 2.0 * c + 2.0 * base + e2 + math.log(-math.expm1(q))
    log_mean = 0.5 * c + base + e1
    if log_M_y is None:
        log_M_y, arg = log_mean, -q
    else:  # not paying ln E[Y]'s rounding
        arg = 2.0 * (log_M_y - base) - spread
    # NaN where arg <= 0, or where expm1(arg) passes the largest double
    lv2 = (2.0 * log_M_y + math.log(math.expm1(arg))
           if 0.0 < arg <= 709.782712893384 else math.nan)
    return log_mean, lv1, lv2, (sigma, r, ws, q, core, arg)


def _partials(parts: tuple) -> tuple[tuple[float, float], ...]:
    """(d/dmu, d/dsigma) of each form's log variance from ``_forms``' parts.
    The steps d_k move by m_k = (t_k - t_0)/sigma with mu and by s_k = k
    t_k - r m_k with sigma; Form II's partials are e^arg/expm1(arg) times
    arg's, -2 + m2 - 4 m1 and s2 - 4 s1.  Form I's sigma-partial is
    positive for r in [-1e4, 1e6] over the grid (tested), not below.
    """
    sigma, r, (w0, w1, w2), q, core, arg = parts
    t0, t1, t2 = (_SQRT_2_OVER_PI * math.exp(-w0),
                  _SQRT_2_OVER_PI * math.exp(-w1),
                  _SQRT_2_OVER_PI * math.exp(-w2))
    m1, m2 = (t1 - t0) / sigma, (t2 - t0) / sigma
    s1, s2 = t1 - r * m1, 2.0 * t2 - r * m2
    if core:  # with Q = 1 - z t - t**2 at z_1 and Q' = t'' there:
        t, s, big_q = core
        big_q_dz = t * (s * s - big_q)
        dq_mu, dq_sigma = (-sigma * big_q_dz,
                           sigma * ((r - sigma) * big_q_dz - 2.0 * big_q))
    else:
        dq_mu, dq_sigma = 2.0 * m1 - m2, 2.0 * (s1 - sigma) - s2
    c = math.exp(q) / math.expm1(q)  # d ln(-expm1(q))/dq
    # d ln expm1(arg)/d arg, finite past the overflow of expm1(arg)
    c2 = -1.0 / math.expm1(-arg) if arg > 0.0 else math.nan
    return ((2.0 + m2 + c * dq_mu, 4.0 * sigma + s2 + c * dq_sigma),
            (-c2 * (2.0 - m2 + 4.0 * m1), c2 * (s2 - 4.0 * s1)))


def back_moments(mu: float, sigma: float, a: float) -> LognormalMoments:
    """Mean and variance of Y = e^X for X truncated-Gaussian."""
    lm, lv, _, _ = _forms(mu, sigma, a)
    if lm > 700.0 or lv > 1400.0:
        raise OverflowError("back-transformed moments exceed float range")
    return LognormalMoments(mean_y=math.exp(lm), var_y=math.exp(lv),
                            log_var_y=lv)


def log_var_forms(mu: float, sigma: float, a: float,
                  M_y: float | None = None) -> tuple[float, float]:
    """ln Var(Y) per Form I (no mean needed) and Form II (anchored to the
    supplied mean of Y; defaults to the congruent mean)."""
    _, lv1, lv2, _ = _forms(mu, sigma, a,
                            None if M_y is None else math.log(M_y))
    if lv2 != lv2:
        raise ValueError("Form II has no positive, finite variance here")
    return lv1, lv2


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
    takes the small-sigma expansion of ``_forms``.
    """
    del M_y
    form1, form2 = _partials(_forms(mu, sigma, a)[3])
    return _slope(*form1), _slope(*form2)


def _slope(d_mu: float, d_sigma: float) -> float:
    # -inf where the form does not move with sigma (Form II for r > 37.7)
    return -d_mu / d_sigma if d_sigma else -math.inf


_SIGMA_GRID = [10.0 ** (-6.0 + 7.8 * i / 160.0) for i in range(161)]


def _sigma_pair(mu: float, a: float, log_M_y: float, target: float,
                seed: float) -> tuple[float, float, float, float]:
    """(s1, s2, k1, k2): the forms' sigma-roots at this mu, Form I's from
    ``seed``, and the level slopes there, as ``calibrate_original`` says."""
    at = functools.cache(lambda s: _forms(mu, s, a, log_M_y))
    what = "sigma reproducing the target variance at this mu"

    def root(k: int, x: float, increasing: bool, domain: tuple) -> tuple:
        def g(s: float) -> tuple[float, float]:  # value, step in ln s
            forms = at(s)
            d_sigma = _partials(forms[3])[k - 1][1]
            # no step below r = -1e4, where the partial's terms cancel
            good = d_sigma and mu - a >= -1e4 * s
            step = (target - forms[k]) / (s * d_sigma) if good else math.nan
            return forms[k], step

        s = _roots.newton(g, x, target, increasing=increasing, log=True,
                          domain=domain, what=what, noise_evals=1, tol=1e-6)
        return s, _slope(*_partials(at(s)[3])[k - 1])

    s1, k1 = root(1, seed, True, (_SIGMA_GRID[0], _SIGMA_GRID[-1]))
    start = min(bisect.bisect(_SIGMA_GRID, s1) - 1, len(_SIGMA_GRID) - 2)
    lo, hi, f_lo, f_hi = _roots.scan(lambda s: at(s)[2] - target,
                                     _SIGMA_GRID, what=what, start=start)
    secant = lo * (hi / lo) ** (f_lo / (f_lo - f_hi))  # in ln sigma
    s2, k2 = root(2, secant, f_lo < f_hi, (lo, hi))
    return s1, s2, k1, k2


def calibrate_original(M_y: float, var_y: float, a: float, mu_seed: float,
                       rounds: int = 3) -> CalibrationResult:
    """Fit (mu, sigma) of the log-domain truncated Gaussian so that the
    back-transformed mean and variance match the ORIGINAL data.

    Runs the point-slope intersection on the log of the two variance forms
    (the raw variance is too steep in sigma for stable slopes when Var(Y)
    is large).  Each round finds, for each form, the smallest sigma in
    [1e-6, 63.0957] at which its log variance meets the target by a Newton
    solve in ln sigma, and reads the level slopes off the roots' own
    evaluations.  Form I's rises with sigma (tested): its solve spans the
    range, from the untruncated lognormal's sigma for the target in round
    1 and from the previous root after that.  Form II's may cross twice or
    be undefined above some sigma: its solve stays in the first cell of
    the 161-point log grid of sigma over which it crosses, from the cell's
    secant point.  ``_roots.scan`` finds that cell by bisection, galloping
    from the cell of Form I's root (exact where Form II crosses at most
    once below the probe that bounds the search, as on every census-like
    request measured), and walks the grid where it cannot vouch for it.  A
    form with no root, or a solve ending more than 1e-6 off the target in
    ln Var, raises ValueError("no sigma reproducing the target variance at
    this mu in [1e-06, 63.0957]"), naming Form II's cell where it misses.
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
        s1, s2, k1, k2 = _sigma_pair(mu, a, log_m, target, s1)
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
