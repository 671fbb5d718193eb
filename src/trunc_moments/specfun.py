"""Scalar special functions used throughout the package.

The Gaussian functions need only the standard library's ``math.erfc``; the
incomplete gammas build on scipy.special, imported on their first call:

* ``xi`` -- the shifted error function erf(r/sqrt(2)) + 1, i.e. twice the
  Gaussian upper-tail mass to the right of -r.  Evaluated through erfc so the
  deep negative tail keeps full relative precision.
* ``exp_r2_half_xi`` -- the product exp(r^2/2) * xi(r).  Written naively this
  is 0 * inf garbage for |r| beyond ~38; routed through the scaled
  complementary error function it is exact down to arbitrarily negative r.
* upper/lower/generalized incomplete gamma for *real* order, including
  order <= 0 where scipy's gammaincc gives up.  Negative order is needed for
  truncated chi distributions continued to negative dimension counts.
* ``lambert_w0`` -- principal branch Lambert W on [0, inf), by Halley
  iteration.

NaN inputs propagate to NaN results.  Domain violations raise ValueError.
"""

from __future__ import annotations

import math
from functools import cache

__all__ = [
    "xi",
    "exp_r2_half_xi",
    "gamma_upper",
    "gamma_lower",
    "gamma_generalized",
    "log_gamma_upper",
    "lambert_w0",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# series/continued-fraction split for order <= 0; below this x the power
# series converges in a handful of terms, above it the Legendre continued
# fraction is both fast and stable
_GAMMA_SERIES_X = 0.25

# erfcx switches to its asymptotic series here: erfc(x) is still a normal
# double (it turns subnormal near x = 26.5) and the series' first omitted
# term, 17!!/(2x^2)^9, is below 1e-20
_ERFCX_SERIES_X = 26.0


@cache
def _sc():
    # scipy.special costs about 0.3 s to import and only the incomplete
    # gammas need it, so it loads on their first call
    import scipy.special
    return scipy.special


def _erfcx(x: float) -> float:
    # exp(x^2) * erfc(x) to about 1 ulp.  x^2 is split exactly into hi + lo
    # (Veltkamp/Dekker), so exp sees no rounded argument: exp(hi + lo) =
    # exp(hi) * (1 + lo) to far below an ulp, as |lo| <= ulp(hi)/2.
    if x < _ERFCX_SERIES_X:
        c = 134217729.0 * x  # 2**27 + 1
        xh = c - (c - x)
        xl = x - xh
        hi = x * x
        lo = ((xh * xh - hi) + 2.0 * xh * xl) + xl * xl
        try:
            y = math.exp(hi) * math.erfc(x)
        except OverflowError:  # x < -26.6: the true value exceeds double range
            return math.inf
        # exp(inf) does not raise: |x| > 1e154 leaves hi = inf and lo = nan
        return y if y == math.inf else y + y * lo
    # erfcx(x) ~ 1/(x sqrt(pi)) * sum_k (2k-1)!! / (-2x^2)^k; w = 1/(2x^2)
    # is formed without squaring x, which overflows for x > 1e154
    w = 0.5 / x / x
    acc = 1.0
    for k in range(8, 0, -1):
        acc = 1.0 - (2 * k - 1) * w * acc
    return _INV_SQRT_PI / x * acc


def xi(r: float) -> float:
    """erf(r/sqrt(2)) + 1, computed as erfc(-r/sqrt(2)).

    Strictly positive for all finite r; underflows to 0 near r ~ -38.5.
    """
    return math.erfc(-float(r) / _SQRT2)


def exp_r2_half_xi(r: float) -> float:
    """exp(r^2/2) * xi(r), evaluated as erfcx(-r/sqrt(2)).

    The two factors separately overflow/underflow long before the product
    leaves double range, so the scaled complementary error function is the
    only sane evaluation path.  Decays like -sqrt(2/pi)/r as r -> -inf and
    returns +inf once the true value exceeds double range (r > ~37.7).
    """
    return _erfcx(-float(r) / _SQRT2)


def _gamma_lower_series(s: float, x: float) -> float:
    # gamma(s,x) = x^s * sum_k (-x)^k / (k! (s+k)); fine for small x and any
    # non-pole s, no cancellation against Gamma(s) involved
    total = 0.0
    term = 1.0  # (-x)^k / k!
    k = 0
    while True:
        total += term / (s + k)
        k += 1
        term *= -x / k
        if abs(term / (s + k)) <= 1e-17 * abs(total) or k > 300:
            return x**s * total


# ln Gamma(1 + e) / e = -euler_gamma + sum_{n >= 2} (-1)^n zeta(n)/n e^(n-1)
_EULER_GAMMA = 0.5772156649015329
_ZETA_2_TO_8 = (1.6449340668482264, 1.2020569031595942, 1.0823232337111381,
                1.03692775514337, 1.0173430619844492, 1.008349277381923,
                1.0040773561979444)
_LGAMMA1P_OVER_E = [-_EULER_GAMMA] + [
    (-1) ** n * z / n for n, z in enumerate(_ZETA_2_TO_8, start=2)]


def _gamma_upper_near_pole(s: float, x: float) -> float:
    # s = e - k with 0 < |e| < 1e-3: Gamma(s) and the k-th term of the lower
    # series both carry a 1/e pole, which cancels catastrophically in
    # Gamma(s) - gamma(s, x); subtract the two poles analytically instead
    k = round(-s)
    e = s + k
    acc = 0.0
    for c in reversed(_LGAMMA1P_OVER_E):
        acc = acc * e + c
    lg = e * acc - sum(math.log1p(-e / j) for j in range(1, k + 1))
    head = (math.expm1(lg) - math.expm1(e * math.log(x))) / e
    total, term = 0.0, 1.0  # term = (-x)^j / j!
    for j in range(30):
        if j != k:
            total += term / (s + j)
        term *= -x / (j + 1)
    return head * (-1) ** k / math.factorial(k) - x**s * total


def _gamma_upper_cf(s: float, x: float) -> float:
    # Legendre continued fraction with modified Lentz; reliable for x >= ~0.25
    # at any real order, including negative integers
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 600):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return math.exp(-x + s * math.log(x)) * h


def _gamma_upper_int_recurrence(k: int, x: float) -> float:
    # Gamma(-k, x) for integer k >= 0, walked down from Gamma(0,x) = E1(x).
    # Downward is the stable direction: the target grows as the order drops.
    g = float(_sc().exp1(x))
    s = 0.0
    emx = math.exp(-x)
    for _ in range(k):
        s -= 1.0
        g = (g - x**s * emx) / s
    return g


def gamma_upper(s: float, x: float) -> float:
    """Upper incomplete gamma integral for real order ``s`` and ``x > 0``.

    Unlike the regularized scipy version this is the raw integral and it
    accepts s <= 0 (where the complete gamma normalizer is useless or
    infinite).  Strategy: scipy for s > 0; E1 + downward recurrence at
    non-positive integer orders with small x; the lower-series complement for
    small x; the Legendre continued fraction otherwise.
    """
    s = float(s)
    x = float(x)
    if math.isnan(s) or math.isnan(x):
        return math.nan
    if x < 0.0:
        raise ValueError(f"gamma_upper requires x >= 0, got x={x}")
    if x == 0.0:
        if s > 0.0:
            return float(_sc().gamma(s))
        raise ValueError("gamma_upper(s, 0) diverges for s <= 0")
    if s > 0.0:
        if s <= 170.0:
            sc = _sc()
            return float(sc.gammaincc(s, x)) * float(sc.gamma(s))
        return math.exp(log_gamma_upper(s, x))
    if s == math.floor(s):
        k = int(-s)
        if x < _GAMMA_SERIES_X:
            return _gamma_upper_int_recurrence(k, x)
        return _gamma_upper_cf(s, x)
    if x < _GAMMA_SERIES_X:
        if abs(s + round(-s)) < 1e-3:
            return _gamma_upper_near_pole(s, x)
        return float(_sc().gamma(s)) - _gamma_lower_series(s, x)
    return _gamma_upper_cf(s, x)


def log_gamma_upper(s: float, x: float) -> float:
    """log of ``gamma_upper`` for s > 0; safe for orders far beyond overflow.

    Needed by the chi-moment ratios where the order scales with the dimension
    count (n up to 1e4 in the variance-maximum searches).
    """
    s = float(s)
    x = float(x)
    if math.isnan(s) or math.isnan(x):
        return math.nan
    if s <= 0.0:
        raise ValueError("log_gamma_upper requires s > 0")
    sc = _sc()
    if x == 0.0:
        return float(sc.gammaln(s))
    q = float(sc.gammaincc(s, x))
    if q > 0.0:
        return float(sc.gammaln(s)) + math.log(q)
    # regularized tail underflowed: asymptotic log Gamma(s,x) for x >> s
    corr = 0.0
    term = 1.0
    for j in range(1, 12):
        term *= (s - j) / x
        corr += term
        if abs(term) < 1e-18:
            break
    return (s - 1.0) * math.log(x) - x + math.log1p(corr)


def gamma_lower(s: float, x: float) -> float:
    """Lower incomplete gamma integral for real non-pole order and x > 0.

    Diverges (pole of the complete gamma) at s = 0, -1, -2, ...; those orders
    raise.  For s < 0 the result can legitimately be negative.
    """
    s = float(s)
    x = float(x)
    if math.isnan(s) or math.isnan(x):
        return math.nan
    if x < 0.0:
        raise ValueError(f"gamma_lower requires x >= 0, got x={x}")
    if s <= 0.0 and s == math.floor(s):
        raise ValueError(f"gamma_lower has a pole at non-positive integer s={s}")
    if x == 0.0:
        return 0.0
    if s > 0.0:
        sc = _sc()
        return float(sc.gammainc(s, x)) * float(sc.gamma(s))
    if x < 8.0:
        return _gamma_lower_series(s, x)
    return float(_sc().gamma(s)) - gamma_upper(s, x)


def gamma_generalized(s: float, y1: float, y2: float) -> float:
    """Gamma(s, y1) - Gamma(s, y2): the integral over the window [y1, y2].

    Requires 0 <= y1 < y2.  y2 may be inf (reduces to gamma_upper).
    """
    s = float(s)
    y1 = float(y1)
    y2 = float(y2)
    if math.isnan(s) or math.isnan(y1) or math.isnan(y2):
        return math.nan
    if not 0.0 <= y1 < y2:
        raise ValueError(f"gamma_generalized requires 0 <= y1 < y2, got ({y1}, {y2})")
    if math.isinf(y2):
        return gamma_upper(s, y1) if y1 > 0.0 else (
            float(_sc().gamma(s)) if s > 0.0 else math.inf
        )
    if y1 == 0.0:
        return gamma_lower(s, y2)
    if s > 0.0 and s <= 170.0:
        # difference of regularized lower values: less cancellation when both
        # cutoffs sit in the tail
        sc = _sc()
        return float(sc.gamma(s)) * float(sc.gammainc(s, y2) - sc.gammainc(s, y1))
    return gamma_upper(s, y1) - gamma_upper(s, y2)


def lambert_w0(x: float) -> float:
    """Principal-branch Lambert W for x >= 0, by Halley iteration.

    Seeded with log1p(x) (exact at 0, asymptotically tight for large x);
    converges to ~1 ulp in a handful of cubic steps.
    """
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        raise ValueError("lambert_w0 implemented for x >= 0 only")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return math.inf
    w = math.log1p(x)
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            break
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        dw = f / denom
        w -= dw
        if abs(dw) <= 1e-15 * max(1.0, abs(w)):
            break
    return w
