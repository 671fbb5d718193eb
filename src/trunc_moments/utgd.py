"""Moments of a unilaterally truncated Gaussian distribution.

A Gaussian with location ``mu`` and spread ``sigma`` is truncated at a
boundary ``a``, keeping either the upper tail (support x >= a) or the
lower tail (x <= a).  Everything here is parameterized by the normalized
offset ``r = (mu - a) / sigma``; the retained-mass mean M, the variance
(in two algebraically equivalent forms), skewness/kurtosis and higher
central moments are all smooth functions of r.

Numerically the module works with three scaled quantities::

    t = sqrt(2/pi) / exp_r2_half_xi(r)      # inverse Mills ratio
    s = r + t                               # so  M = a + sigma*s
    Q = 1 - r*t - t**2                      # so  Var = sigma**2 * Q

The direct expressions cancel catastrophically for r << 0 (t -> -r, Q ->
O(1/r**2)), so below ``_SERIES_CUT`` everything switches to rational
functions of u = 1/r**2 whose integer coefficients are generated exactly
at import time from the double-factorial tail expansion of the Mills
ratio.  The two zones agree to ~1e-11 relative at the cut.  Each series
polynomial is evaluated only as deep as its terms carry digits at u
(``_with_depths``): every term it omits is below 2**-60/L of its leading
term, L its length.  At the cut psi and phi take all their terms and the
other seven 19 to 23 of their 30 to 46; from r = -60 on none takes more
than 10.

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

from .specfun import exp_r2_half_xi

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
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Below this the asymptotic series in u = 1/r**2 beats the direct t/s/Q
# route (their errors against mpmath cross near r = -10.5).
_SERIES_CUT = -11.0
# The derivative cancels harder in the direct zone and less in the series,
# so its errors against mpmath cross higher, near 1e-8 at r = -9.75.
_DVHAT_SERIES_CUT = -9.75


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

    def polymul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, pi in enumerate(p):
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
        return out

    def polyadd(*ps):
        n = max(len(p) for p in ps)
        return [sum(p[i] for p in ps if i < len(p)) for i in range(n)]

    def shift(p, k):
        return [0] * k + p

    psi2 = polymul(psi, psi)
    phi2 = polymul(phi, phi)
    # vhat = (psi**2 - phi) / (u * phi**2) = N(u) / D(u)
    num = polyadd(psi2, [-c for c in phi])
    assert num[0] == 0
    n_coef = num[1:]
    d_coef = phi2

    # skewness numerator: ((phi-1) + u*phi*(phi+2) - u**2*phi**2) / u**2;
    # the leading u**0 and u**1 coefficients cancel exactly
    phi_plus2 = [phi[0] + 2] + phi[1:]
    pser = polyadd(shift(phi[1:], 1), shift(polymul(phi, phi_plus2), 1),
                   [-c for c in shift(phi2, 2)])
    assert pser[0] == 0 and pser[1] == 0
    s_coef = pser[2:]

    # excess-kurtosis numerator: (-(1-3u)psi**3 + (7-4u)psi**2 - 12psi + 6)/u**4
    psi3 = polymul(psi2, psi)
    pk = polyadd(polymul([-1, 3], psi3), polymul([7, -4], psi2),
                 [-12 * c for c in psi], [6])
    assert pk[:4] == [0, 0, 0, 0]
    k_coef = pk[4:]

    # dN/du, dD/du and D - N are formed on the exact integers too; only then
    # is each coefficient rounded to a float, once instead of in every call
    dn, dd = ([k * c for k, c in enumerate(p)][1:] for p in (n_coef, d_coef))
    d_minus_n = [de - nu for de, nu in zip(d_coef, n_coef)]
    return [_with_depths([float(c) for c in p]) for p in (
        psi, phi, n_coef, d_coef, s_coef, k_coef, dn, dd, d_minus_n)]


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


(_PSI, _PHI, _VHAT_NUM, _VHAT_DEN, _SKEW_NUM, _KURT_NUM,
 _VHAT_NUM_D, _VHAT_DEN_D, _VHAT_DEN_MINUS_NUM) = _series_coefficients(16)


# ---------------------------------------------------------------------------
# core scaled quantities
# ---------------------------------------------------------------------------

def _core(r: float) -> tuple[float, float, float]:
    """Return (t, s, Q) at offset r, picking the numerically safe zone.

    In the series zone (r <= -11) psi and phi take only their terms above
    2**-60/L of the leading one (``_with_depths``): within 4 ulps of all
    their terms (Q within 4 ulps of 1) on r in [-2**18, -11]."""
    if math.isnan(r):
        return math.nan, math.nan, math.nan
    if r > _SERIES_CUT:
        # underflows to 0 for r > ~38; correct limit
        t = _SQRT_2_OVER_PI / exp_r2_half_xi(r)
        return t, r + t, 1.0 - r * t - t * t
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

    For r <= -11 it is N(u)/D(u), u = 1/r**2, each polynomial cut to the
    terms above 2**-60/L of its leading one: within 4 ulps of the full
    polynomials on r in [-2**18, -11]."""
    if math.isnan(r):
        return math.nan
    if r > _SERIES_CUT:
        t, s, q = _core(r)
        return q / (s * s)
    u = 1.0 / (r * r)
    return _series(_VHAT_NUM, u) / _series(_VHAT_DEN, u)


def dnormalized_variance_dr(r: float) -> float:
    """d/dr of ``normalized_variance``; negative everywhere."""
    return _vhat_slope(r)[1]


def _vhat_slope(r: float) -> tuple[float, float]:
    """(vhat, dvhat/dr) at r from one ``_core`` call or one set of series
    polynomials; each value equals that of ``normalized_variance`` and
    ``dnormalized_variance_dr`` bit for bit."""
    if math.isnan(r):
        return math.nan, math.nan
    if r > _DVHAT_SERIES_CUT:
        t, s, q = _core(r)
        # exact reduction of d(Q/s**2)/dr via t' = -t*s, Q' = t*(s**2 - Q)
        return q / (s * s), t + q * (t * s - 2.0) / (s * s * s)
    u = 1.0 / (r * r)
    n = _series(_VHAT_NUM, u)
    d = _series(_VHAT_DEN, u)
    dn = _series(_VHAT_NUM_D, u)
    dd = _series(_VHAT_DEN_D, u)
    # -2/r^3 as -2u/r: r ** 3 overflows from |r| = 5.6e102 on
    slope = (-2.0 * u / r) * (dn * d - n * dd) / (d * d)
    if r > _SERIES_CUT:  # vhat is still on its direct side of the cut
        t, s, q = _core(r)
        return q / (s * s), slope
    return n / d, slope


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
    t = -r / _series(_PSI, u)  # _core's t, without its phi
    n = _series(_VHAT_NUM, u)
    dn = _series(_VHAT_DEN_MINUS_NUM, u)
    return t * dn / (r * t * dn - 2.0 * n)


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

    Next to the switch from the direct form to the u-series at r = -10
    (left side) the kurtosis loses digits: against mpmath it is up to
    2.9e-7 absolute off near r = -9.94 and 5.9e-8 on (-11, -10], and above
    1e-8 over about r in (-12, -7); the skewness stays within 7e-10.
    From r = -10 down its series polynomials take only their terms above
    2**-60/L of the leading one, within 4 ulps of the full polynomials.
    The unnormalized pair takes the variance as ``var_form2`` does."""
    if M == a:
        raise ValueError("M must differ from the cutoff")
    sign = _sign(side)
    r *= sign
    # the shape measures cancel harder than the variance, so they leave the
    # direct zone earlier (both routes agree to ~1e-8 at the crossover)
    if r > -10.0:
        t, s, q = _core(r)
        p3 = r * r - 1.0 + 3.0 * r * t + 2.0 * t * t
        skew = t * p3 / q ** 1.5
        inner = (r * (r * r - 3.0) * t + (7.0 * r * r - 4.0) * t * t
                 + 12.0 * r * t ** 3 + 6.0 * t ** 4)
        kurt = 3.0 - inner / (q * q)
        vh = q / (s * s)
    else:
        # same expressions pushed through the u = 1/r**2 series; the integer
        # polynomial algebra removes the leading-order cancellations
        u = 1.0 / (r * r)
        phi = _series(_PHI, u)
        vh = _series(_VHAT_NUM, u) / _series(_VHAT_DEN, u)
        skew = _series(_SKEW_NUM, u) / (phi ** 3 * vh ** 1.5)
        kurt = 3.0 - _series(_KURT_NUM, u) / (phi ** 4 * vh * vh)
        if r > _SERIES_CUT:  # the variance is still on its direct side
            vh = normalized_variance(r)
    # vh is normalized_variance(r) in each zone, so var is var_form2's
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

    They are shifted from moments about the parent mean, which cancel as r
    falls: against mpmath the relative errors are 4e-13 / 2e-12 at r = -2,
    1e-4 / 1e-2 at r = -20 and 2 / 1.4e3 at r = -50.
    """
    if M == a:
        raise ValueError("M must differ from the cutoff")
    sign = _sign(side)
    r *= sign
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
    """All housed moments of a truncated Gaussian in one pass; cm5 and
    cm6 are ``central_moments_56``'s, as inaccurate for negative r."""
    sign = _sign(spec.side)
    r = sign * spec.r
    t, s, _ = _core(r)
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
    # normalized S and K depend on r alone, so any M > a works here
    skew, kurt, _, _ = skewness_kurtosis(a + 1.0, r, a)
    mean = a + scale * s
    cm5, cm6 = central_moments_56(mean, spec.r, a, side=spec.side)
    return MomentSummary(mean=mean, m2=raw[1], m3=raw[2], m4=raw[3],
                         variance=var, skewness=sign * skew, kurtosis=kurt,
                         cm5=cm5, cm6=cm6)
