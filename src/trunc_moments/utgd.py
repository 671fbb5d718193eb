"""Moments of a unilaterally truncated Gaussian distribution.

A Gaussian with location ``mu`` and spread ``sigma`` is truncated at a
boundary ``a``, keeping either the upper tail (support x >= a) or the
lower tail (x <= a).  Everything here is parameterized by the normalized
offset ``r = (mu - a) / sigma``; the retained-mass mean M, the variance
(in two algebraically equivalent forms), skewness/kurtosis and higher
central moments are all smooth functions of r.

Numerically the module works with three scaled quantities::

    t = sqrt(2/pi) / erfcx(-r/sqrt(2))      # inverse Mills ratio
    s = r + t                               # so  M = a + sigma*s
    Q = 1 - r*t - t**2                      # so  Var = sigma**2 * Q

The direct expressions cancel catastrophically for r << 0 (t -> -r, Q ->
O(1/r**2)), so the left tail is split into zones:

* At and below ``_TAIL_CUT`` (-4) everything comes from the Laplace
  continued fraction of the Mills ratio (``_excess_tail``): its tails are
  the ratios of successive raw moments of the excess over the cutoff,
  from which t, s, Q and the central moments follow with little
  cancellation.  The variance, its slope, dsigma1/dmu, the skewness,
  kurtosis and 5th and 6th central moments take it all the way down:
  vhat within 2 ulps of mpmath on [-2**18, -4], its slope within 2e-14
  relative and dsigma1/dmu within 3e-15.  t, s and Q take it on (-11,
  -4], within 6.5e-16 relative of mpmath.
* At and below ``_SERIES_CUT`` (-11) ``_core``'s t, s and Q alone are
  rational functions of u = 1/r**2, from the double-factorial tail
  expansion psi of the Mills ratio and phi = (1 - psi)/u, each evaluated
  only as deep as its terms carry digits at u (``_with_depths``).  Its
  Q = 1 - phi/psi**2 cancels about r**2 ulps, which the fraction's would
  not; the mean, Form I of the calibrations and the lognormal forms read
  it there, and the benchmark's reference misreads correct variances
  from |r| ~ 1e5 on, so that switch waits for a better reference.

Right-sided truncation is handled by the mirror identity: in the offsets
sign*(x - a) from the cutoff, with the sign from ``_sign``, an upper-tail
distribution at offset r is the lower-tail one at -r, with the sign of odd
central moments flipped.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from collections import namedtuple
from enum import Enum

from .specfun import _SQRT2, _erfcx

__all__ = [
    "Side",
    "TruncatedGaussianSpec",
    "MomentSummary",
    "mean_from_params",
    "sigma_from_mean_r",
    "var_form1",
    "var_form2",
    "var_from_mu_sigma",
    "r_from_height",
    "var_max_from_height",
    "skewness_kurtosis",
    "central_moments_56",
    "density",
    "dvar_dr",
    "moment_summary",
    "inverse_mills",
    "normalized_variance",
    "dnormalized_variance_dr",
    "dsigma1_dmu",
    "normalized_shape",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# At and below this vhat, its slope, dsigma1/dmu, the shape measures and
# cm5/cm6 come from the continued fraction (``_excess_tail``), and so do t,
# s and Q down to ``_SERIES_CUT``; above it the direct form's kurtosis stays
# within 3.4e-10 of mpmath, where at r = -5 it is 2.6e-9 off.
_TAIL_CUT = -4.0
# At and below this ``_core``'s t, s and Q, and only they, come from the
# asymptotic series in u = 1/r**2.  Its Q = 1 - phi/psi**2 cancels about
# r**2 ulps, which the fraction's would not; but perfbench's reference
# misreads correct Q deep in the tail, so that switch waits for it.
_SERIES_CUT = -11.0


class Side(str, Enum):
    """Which tail of the Gaussian is retained."""

    LEFT = "left"    # truncated from the left: support x >= a
    RIGHT = "right"  # truncated from the right: support x <= a


class TruncatedGaussianSpec(namedtuple("TruncatedGaussianSpec",
                                       "mu sigma cutoff side")):
    """Parent-Gaussian parameterization of a truncated distribution."""

    __slots__ = ()

    def __new__(cls, mu: float, sigma: float, cutoff: float,
                side: Side = Side.LEFT):
        if not (sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {sigma}")
        for name, x in (("mu", mu), ("sigma", sigma), ("cutoff", cutoff)):
            if not math.isfinite(x):
                raise ValueError(f"{name} must be finite")
        return super().__new__(cls, mu, sigma, cutoff, side)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its values as __new__ does
        return cls(*iterable)

    @property
    def r(self) -> float:
        return (self.mu - self.cutoff) / self.sigma


MomentSummary = namedtuple(
    "MomentSummary",
    "mean m2 m3 m4 variance skewness kurtosis cm5 cm6")
MomentSummary.__doc__ = ("Mean, low raw moments and shape measures of a "
                         "truncated Gaussian.")


# ---------------------------------------------------------------------------
# asymptotic-series coefficients (exact integer algebra, ascending powers of u)
# ---------------------------------------------------------------------------

def _series_coefficients(order: int):
    # psi(u) = sum_k (-1)^k (2k-1)!! u^k is the alternating tail expansion of
    # the Mills ratio scaled so that t = -r / psi(1/r**2) for r << 0.
    psi = [1]
    for k in range(1, order + 1):
        psi.append(-psi[-1] * (2 * k - 1))
    # phi(u) = (1 - psi(u)) / u, exact because psi(0) = 1
    phi = [-c for c in psi[1:]]
    return [_with_depths([float(c) for c in p]) for p in (psi, phi)]


def _with_depths(coef: list[float]) -> tuple[tuple, tuple]:
    """(breaks, heads) of the polynomial with ascending coefficients coef.

    The depth rule: the first K terms carry every digit at u when each
    omitted term c_k u**k (k >= K) is below 2**-60/L of the leading term
    c_m u**m, L = len(coef).  Term k is that small for u < w_k =
    (2**-60 |c_m| / (L |c_k|))**(1/(k - m)), so the first K terms do for
    u < u_K, the least w_k over k >= K.  breaks holds u_K for K = m+1 ..
    L-1 (ascending), and heads[j] the first m+1+j coefficients in Horner
    order: at u, ``_series`` takes heads[bisect_right(breaks, u)].
    """
    m = next(k for k, c in enumerate(coef) if c)
    lead = 2.0 ** -60 * abs(coef[m]) / len(coef)
    breaks, u_k = [], math.inf
    for k in range(len(coef) - 1, m, -1):
        if coef[k]:
            u_k = min(u_k, (lead / abs(coef[k])) ** (1.0 / (k - m)))
        breaks.append(u_k)
    horner = coef[::-1]
    heads = [tuple(horner[-k:]) for k in range(m + 1, len(coef) + 1)]
    return tuple(reversed(breaks)), tuple(heads)


def _series(poly: tuple[tuple, tuple], u: float) -> float:
    """Horner's rule over the terms of a ``_with_depths`` polynomial that
    carry digits at u: psi's 17 and phi's 16 at r = -11, at most 10 of any
    polynomial from r = -60 on, 2 to 4 at r = -2**18."""
    breaks, heads = poly
    acc = 0.0
    for c in heads[bisect_right(breaks, u)]:
        acc = acc * u + c
    return acc


_PSI, _PHI = _series_coefficients(16)


# ---------------------------------------------------------------------------
# core scaled quantities
# ---------------------------------------------------------------------------

def _core(r: float) -> tuple[float, float, float]:
    """Return (t, s, Q) at offset r, picking the numerically safe zone.

    Above -4 they come straight from erfcx.  On (-11, -4] they come from
    the continued fraction (``_excess_tail``), within 6.5e-16 relative of
    mpmath, where the direct 1 - rt - t**2 was up to 4.2e-12 off.  In the
    series zone (r <= -11) psi and phi take only their terms above
    2**-60/L of the leading one (``_with_depths``): within 4 ulps of all
    their terms (Q within 4 ulps of 1) on r in [-2**18, -11]."""
    if math.isnan(r):
        return math.nan, math.nan, math.nan
    if r > _TAIL_CUT:
        # underflows to 0 for r > ~38; correct limit
        t = _SQRT_2_OVER_PI / _erfcx(-r / _SQRT2)
        return t, r + t, 1.0 - r * t - t * t
    if r > _SERIES_CUT:
        # E[W] = y1/x and Var W = u y1 (y2 - y1) for the excess W over x = -r
        u, y = _excess_tail(r, 2)
        y2 = 2.0 / (1.0 + u * y)
        y1 = 1.0 / (1.0 + u * y2)
        s = -y1 / r
        return s - r, s, u * y1 * (y2 - y1)
    u = 1.0 / (r * r)
    psi = _series(_PSI, u)
    phi = _series(_PHI, u)
    t = -r / psi
    s = -r * u * phi / psi
    q = 1.0 - phi / (psi * psi)
    return t, s, q


def inverse_mills(r: float) -> float:
    """Hazard-rate factor t(r); the truncated mean is a + sigma*(r + t)."""
    return _core(r)[0]


def normalized_variance(r: float) -> float:
    """Variance divided by (M - a)**2; depends on r only.

    From ``_TAIL_CUT`` (-4) down it is 1 - u y_2 (y_3 - y_2) on the
    continued fraction's tails (``_fraction``), u = 1/r**2: within 2 ulps
    of mpmath on [-2**18, -4]."""
    if not r <= _TAIL_CUT:  # NaN too, through _core
        t, s, q = _core(r)
        return q / (s * s)
    u, _, y2, y3, _ = _fraction(r)
    return 1.0 - u * y2 * (y3 - y2)


def dnormalized_variance_dr(r: float) -> float:
    """d/dr of ``normalized_variance``; negative everywhere."""
    return _vhat_slope(r)[1]


def _vhat_slope(r: float) -> tuple[float, float]:
    """(vhat, dvhat/dr) at r from one ``_core`` call or one ``_fraction``
    pass; each value equals that of ``normalized_variance`` and
    ``dnormalized_variance_dr`` bit for bit.  From r = -4 down the slope
    is within 2e-14 relative of mpmath."""
    if not r <= _TAIL_CUT:
        t, s, q = _core(r)
        # exact reduction of d(Q/s**2)/dr via t' = -t*s, Q' = t*(s**2 - Q)
        return q / (s * s), t + q * (t * s - 2.0) / (s * s * s)
    u, y1, y2, y3, y4 = _fraction(r)
    # 1/r**3 as u/r: u*u*r underflows from |r| = 1e77 on
    return (1.0 - u * y2 * (y3 - y2),
            u / r * y2 * (y1 * y2 - 2.0 * y2 * y3 + y3 * y4) / y1)


def dsigma1_dmu(r: float) -> float:
    """Slope of the Form I level curve sigma_1(mu) at offset r; negative for
    all r, with infimum ~ -0.32471 near r ~ 0.5988.  From r = -4 down it
    is within 3e-15 relative of mpmath."""
    if not r <= _TAIL_CUT:
        t, s, q = _core(r)
        dq = t * (s * s - q)  # dQ/dr
        return dq / (r * dq - 2.0 * q)
    # Q = u y1 (y2 - y1) and dQ/dr = u y1 g/x, x = -r
    u, y1, y2, y3, _ = _fraction(r)
    g = y1 * y2 * (y3 - y2) * (1.0 + u * y1)
    return g / (g + 2.0 * (y2 - y1)) / r  # r * (...) overflows near -max


# ---------------------------------------------------------------------------
# the left tail's continued fraction
# ---------------------------------------------------------------------------

# the depths k of ``_excess_tail`` as floats, which divide faster than ints,
# past its deepest start: 42, at the cut with n = 6
_DEPTHS = tuple(float(k) for k in range(64))


def _excess_tail(r: float, n: int) -> tuple[float, float]:
    """(u, y_(n+1)) at offset r <= _TAIL_CUT, with x = -r and u = 1/r**2:
    the raw moments of the excess W = Z - x of the standardized variable
    Z >= x are E[W**k] = y_1 ... y_k / x**k, and y_k = k/(1 + u y_(k+1))
    takes the caller from y_(n+1) down to y_1.

    Integration by parts gives E[W**(k+1)] + x E[W**k] = k E[W**(k-1)], so
    the ratios rho_k = E[W**k]/E[W**(k-1)] = k/(x + rho_(k+1)) are the tails
    of the Laplace continued fraction of the Mills ratio (A&S 26.2.14), run
    bottom-up here in the scaled y_k = x rho_k, which neither overflow nor
    underflow.  From depth n + 8 + 450u, started at the fixed point of that
    step, the shape measures are within 4.1e-14 of mpmath on [-60, -4],
    cm5 and cm6 within 3.2e-14 relative, vhat, its slope and dsigma1/dmu
    (n = 4, ``_fraction``) as their docstrings state, and ``_core``'s t, s
    and Q (n = 2) within 6.5e-16 relative on (-11, -4]."""
    u = 1.0 / (r * r)
    k = n + 8 + int(450.0 * u)
    y = 2.0 * k / (1.0 + math.sqrt(1.0 + 4.0 * u * k))
    for k in _DEPTHS[k - 1:n:-1]:
        y = k / (1.0 + u * y)
    return u, y


def _fraction(r: float) -> tuple[float, float, float, float, float]:
    """(u, y_1, y_2, y_3, y_4) of ``_excess_tail`` at r <= _TAIL_CUT."""
    u, y = _excess_tail(r, 4)
    y4 = 4.0 / (1.0 + u * y)
    y3 = 3.0 / (1.0 + u * y4)
    y2 = 2.0 / (1.0 + u * y3)
    return u, 1.0 / (1.0 + u * y2), y2, y3, y4


def _central(ys: list[float], n: int) -> float:
    """x**n times the n-th central moment of W from ys = [y_1, ...] of
    ``_excess_tail``: sum_j C(n, j) E[W**j] (-E[W])**(n - j) by Horner's
    rule in the y_j."""
    acc = 1.0
    for j in range(n - 1, -1, -1):
        acc = acc * ys[j] + math.comb(n, j) * (-ys[0]) ** (n - j)
    return acc


def _direct_shape(r: float, t: float, q: float) -> tuple[float, float]:
    """(skewness, kurtosis) from ``_core``'s t and Q at offset r."""
    p3 = r * r - 1.0 + 3.0 * r * t + 2.0 * t * t
    inner = (r * (r * r - 3.0) * t + (7.0 * r * r - 4.0) * t * t
             + 12.0 * r * t ** 3 + 6.0 * t ** 4)
    return t * p3 / q ** 1.5, 3.0 - inner / (q * q)


def normalized_shape(r: float) -> tuple[float, float]:
    """Left-side (skewness, kurtosis) at offset r; depends on r only.

    Above ``_TAIL_CUT`` (-4) they come from t, s and Q, which lose about
    r**4 ulps: within 3.4e-10 of mpmath on (-4, -3], 5.2e-11 on (-3, -2]
    and 4.7e-12 on (-2, -1].  From the cut down they come from
    ``_fraction``, where the central moments cancel by at most a factor
    of about 7: within 4.1e-14 on [-60, -4] and 9e-15 from there to
    r = -2**18."""
    if not r <= _TAIL_CUT:  # NaN too, through _core
        t, _, q = _core(r)
        return _direct_shape(r, t, q)
    return _tail_shape(r)[:2]


def _tail_shape(r: float) -> tuple[float, float, float]:
    """(skewness, kurtosis, vhat) at r <= _TAIL_CUT from one ``_fraction``
    pass, bit for bit those of ``normalized_shape`` and
    ``normalized_variance``."""
    u, y1, y2, y3, y4 = _fraction(r)
    # x**k E[(W - E[W])**k] / y1 for k = 2, 3, 4: d (vhat = d/y1, formed
    # as in normalized_variance), then the two numerators below, by
    # Horner's rule as in _central
    d = y2 - y1
    return ((y2 * (y3 - 3.0 * y1) + 2.0 * y1 * y1) / (d * math.sqrt(y1 * d)),
            (y2 * (y3 * (y4 - 4.0 * y1) + 6.0 * y1 * y1) - 3.0 * y1 * y1 * y1)
            / (y1 * d * d), 1.0 - u * y2 * (y3 - y2))


_SIGN = {Side.LEFT: 1.0, Side.RIGHT: -1.0}


def _sign(side: Side | str) -> float:
    """The side's sign: offsets from the cutoff times it are the left side's."""
    return _SIGN.get(side) or _SIGN[Side(side)]  # Side() rejects the rest


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def mean_from_params(spec: TruncatedGaussianSpec) -> float:
    """Mean of the retained mass."""
    sign = _sign(spec.side)
    return spec.cutoff + sign * spec.sigma * _core(sign * spec.r)[1]


def sigma_from_mean_r(M: float, r: float, a: float,
                      side: Side = Side.LEFT) -> float:
    """Parent spread that produces truncated mean M at offset r."""
    sign = _sign(side)
    d = sign * (M - a)
    if not d > 0.0:
        raise ValueError(f"{Side(side).value} truncation requires "
                         f"M {'<' if sign < 0.0 else '>'} a")
    return d / _core(sign * r)[1]


def var_form1(sigma: float, r: float) -> float:
    """Variance from (sigma, r) -- the 'parent spread' form."""
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    return sigma * sigma * _core(r)[2]


def var_form2(M: float, r: float, a: float, side: Side = Side.LEFT) -> float:
    """Variance from (M, r, a) -- the 'truncated mean' form."""
    if M == a:
        raise ValueError("M must differ from the cutoff")
    d = M - a
    return d * d * normalized_variance(_sign(side) * r)


def var_from_mu_sigma(M: float, mu: float, sigma: float, a: float) -> float:
    """Variance via the congruent-manifold identity.

    Valid only when (mu, sigma, a) actually reproduce the truncated mean M;
    the moment-intersecting calibrators evaluate it off-manifold on purpose,
    so an inconsistency only warns.
    """
    m_implied = mean_from_params(TruncatedGaussianSpec(mu, sigma, a))
    if abs(m_implied - M) > 1e-8 * max(abs(M), 1e-300):
        warnings.warn(
            f"parameters not congruent: implied mean {m_implied!r} vs M={M!r}",
            RuntimeWarning, stacklevel=2)
    d = M - a
    return sigma * sigma + d * (mu - a) - d * d


def r_from_height(H: float) -> float:
    """Positive offset at which the density at the cutoff, relative to the
    mode, equals H."""
    if not 0.0 < H <= 1.0:
        raise ValueError(f"relative boundary height must be in (0, 1], got {H}")
    return math.sqrt(2.0 * math.log(1.0 / H))

def var_max_from_height(M: float, a: float, H: float) -> float:
    """Largest attainable variance when the density at the cutoff is at most
    H times the modal density (positive-offset branch)."""
    if not M > a:
        raise ValueError("requires M > a")
    d = M - a
    return d * d * normalized_variance(r_from_height(H))


def skewness_kurtosis(M: float, r: float, a: float,
                      side: Side = Side.LEFT) -> tuple[float, float, float, float]:
    """Return (S, K, S_un, K_un): normalized and unnormalized skewness and
    kurtosis.  The normalized pair depend on r (and side) only.

    In offsets from the cutoff (r of the left side) the normalized pair is
    within 1e-9 absolute of mpmath on [-2**18, 38] and within 1e-12 from
    r = -4 down, where the continued fraction takes over
    (``normalized_shape``).  The unnormalized pair takes the variance as
    ``var_form2`` does."""
    if M == a:
        raise ValueError("M must differ from the cutoff")
    sign = _sign(side)
    r *= sign
    if r <= _TAIL_CUT:
        skew, kurt, vh = _tail_shape(r)
    else:  # NaN too
        t, s, q = _core(r)
        skew, kurt = _direct_shape(r, t, q)
        vh = q / (s * s)  # normalized_variance's, bit for bit
    d = M - a
    var = d * d * vh
    return sign * skew, kurt, sign * skew * var ** 1.5, kurt * var * var


def _centered_l(r: float, t: float, kmax: int) -> list[float]:
    # l_k = E[((X - mu)/sigma)^k]; recurrence l_k = (-r)^(k-1) t + (k-1) l_{k-2}
    ell = [1.0, t]
    for k in range(2, kmax + 1):
        ell.append((-r) ** (k - 1) * t + (k - 1) * ell[k - 2])
    return ell


def central_moments_56(M: float, r: float, a: float,
                       side: Side = Side.LEFT) -> tuple[float, float]:
    """Unnormalized 5th and 6th central moments.

    From r = -4 down (left side) they come from the continued fraction
    (``_excess_tail``): within 3.2e-14 relative of mpmath on
    [-2**18, -4].  Above, they are shifted from moments about the parent
    mean, which cancel as r falls: within 2.2e-9 relative on (-4, -3],
    1.5e-10 on (-3, -2] and 1e-11 on (-2, 37]; above, cm5 underflows.
    """
    if M == a:
        raise ValueError("M must differ from the cutoff")
    sign = _sign(side)
    r *= sign
    if r <= _TAIL_CUT:
        u, y = _excess_tail(r, 6)
        ys = [0.0] * 6
        for k in range(6, 0, -1):
            y = ys[k - 1] = k / (1.0 + u * y)
        # sigma**k x**-k = ((M - a)/y_1)**k, as s = E[W] = y_1/x
        d = abs(M - a) / ys[0]
        return sign * _central(ys, 5) * d ** 5, _central(ys, 6) * d ** 6
    t, s, _ = _core(r)
    sigma = abs(M - a) / s
    ell = _centered_l(r, t, 6)
    # shift from parent-mean-centered to truncated-mean-centered:
    # (M - mu)/sigma = t
    cm5 = sum(math.comb(5, j) * ell[j] * (-t) ** (5 - j) for j in range(6))
    cm6 = sum(math.comb(6, j) * ell[j] * (-t) ** (6 - j) for j in range(7))
    return sign * cm5 * sigma ** 5, cm6 * sigma ** 6


def density(M: float, r: float, a: float, x: float, height: float,
            side: Side = Side.LEFT) -> float:
    """Density at x of the truncated distribution with modal density
    ``height``, parameterized by (M, r, a) instead of (mu, sigma); r is
    (mu - a)/sigma on either side, as in ``TruncatedGaussianSpec.r``."""
    if not height > 0.0:
        raise ValueError("modal height must be positive")
    # z below is the same in the offsets from the cutoff on either side
    sign = _sign(side)
    if not sign * (M - a) > 0.0:
        raise ValueError(f"{Side(side).value} truncation requires "
                         f"M {'<' if sign < 0.0 else '>'} a")
    if sign * (x - a) < 0.0:
        return 0.0
    r *= sign
    t, _, _ = _core(r)
    z = (r * (x - M) + t * (x - a)) / (M - a)
    return height * math.exp(-0.5 * z * z)


def dvar_dr(M: float, r: float, a: float) -> float:
    """Derivative of the variance with respect to r at fixed (M, a)."""
    if M == a:
        raise ValueError("M must differ from the cutoff")
    d = M - a
    return d * d * dnormalized_variance_dr(r)


def moment_summary(spec: TruncatedGaussianSpec) -> MomentSummary:
    """All housed moments of a truncated Gaussian in one pass; skewness,
    kurtosis, cm5 and cm6 are those of ``skewness_kurtosis`` and
    ``central_moments_56``, with their stated bounds."""
    sign = _sign(spec.side)
    r = sign * spec.r
    t, s, q = _core(r)
    a = spec.cutoff
    # X = mu + sign*sigma*Z, Z standardized on the left side at offset r
    scale = sign * spec.sigma
    ell = _centered_l(r, t, 4)
    raw = [
        sum(math.comb(k, j) * scale ** j * ell[j] * spec.mu ** (k - j)
            for j in range(k + 1))
        for k in (1, 2, 3, 4)
    ]
    var = var_form1(spec.sigma, r)
    skew, kurt = (normalized_shape(r) if r <= _TAIL_CUT
                  else _direct_shape(r, t, q))
    mean = a + scale * s
    cm5, cm6 = central_moments_56(mean, spec.r, a, side=spec.side)
    return MomentSummary(mean=mean, m2=raw[1], m3=raw[2], m4=raw[3],
                         variance=var, skewness=sign * skew, kurtosis=kurt,
                         cm5=cm5, cm6=cm6)
