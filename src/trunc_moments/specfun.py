"""Scalar special functions used throughout the package.

Everything here runs on the standard library's ``math`` module:

* ``xi`` -- the shifted error function erf(r/sqrt(2)) + 1, i.e. twice the
  Gaussian upper-tail mass to the right of -r.  Evaluated through erfc so the
  deep negative tail keeps full relative precision.
* ``exp_r2_half_xi`` -- the product exp(r^2/2) * xi(r).  Written naively this
  is 0 * inf garbage for |r| beyond ~38; routed through the scaled
  complementary error function it is exact down to arbitrarily negative r.
* upper/lower incomplete gamma for *real* order, including order <= 0,
  where the regularized ratios are useless.  Negative order is needed for
  truncated chi distributions at negative dimension counts.
  For s > 0 they rest on pure-Python regularized P(s, x) and Q(s, x):
  power series, Legendre continued fraction and Temme's uniform expansion
  (Gil, Segura & Temme 2012; DiDonato & Morris 1986).  For s <= 0 the
  upper one rests on the scaled Gamma(s, x) e^x x^-s.
  ``gamma_upper`` and ``gamma_lower`` stay public, but no other module
  calls them (``gamma_lower`` reads ``gamma_upper``): ``chi`` takes its
  ratios from the scaled and regularized forms (``_gamma_inc``).
* ``lambert_w0`` -- principal branch Lambert W on [0, inf), by Newton
  steps on w + ln w = ln x; ``_w0_exp(L)`` gives W(e^L) by the same steps
  where e^L would overflow.

NaN inputs propagate to NaN results.  Domain violations raise ValueError.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "xi",
    "exp_r2_half_xi",
    "gamma_upper",
    "gamma_lower",
    "lambert_w0",
]

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)

# series/continued-fraction split for order <= 0; below this x the power
# series converges in a few dozen terms with little cancellation, above it
# the Legendre continued fraction needs fewer than about 80 steps
_GAMMA_SERIES_X = 1.5
# away from integer orders Gamma(s, x) = Gamma(s) - gamma(s, x) cancels as
# x grows, and the series of gamma(s, x) itself alternates; past this x the
# continued fraction, and Gamma(s) minus it, keep more digits
_COMPLEMENT_X = 1.0

# erfcx switches to its asymptotic series here: erfc(x) is still a normal
# double (it turns subnormal near x = 26.5) and the series' first omitted
# term, 17!!/(2x^2)^9, is below 1e-20
_ERFCX_SERIES_X = 26.0


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
    # erfcx(x) ~ 1/(x sqrt(pi)) * sum_k (2k-1)!! / (-2x^2)^k, k <= 8, by
    # Horner's rule written out; w = 1/(2x^2) is formed without squaring x,
    # which overflows for x > 1e154
    w = 0.5 / x / x
    return _INV_SQRT_PI / x * (1.0 - w * (1.0 - 3.0 * w * (
        1.0 - 5.0 * w * (1.0 - 7.0 * w * (1.0 - 9.0 * w * (
            1.0 - 11.0 * w * (1.0 - 13.0 * w * (1.0 - 15.0 * w))))))))


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


def _xs(s: float, x: float, t: float) -> float:
    # x^s t, through logarithms where x^s alone would overflow
    lx = s * math.log(x)
    if lx < 709.0 or t == 0.0:
        return x**s * t
    return math.copysign(_exp(lx + math.log(abs(t))), t)


def _gamma_lower_series(s: float, x: float, skip: int = -1) -> float:
    # x^-s gamma(s, x) = sum_k (-x)^k / (k! (s+k)), without its k = skip
    # term; fine for small x and any order off the poles of the kept terms
    total = 0.0
    term = 1.0  # (-x)^k / k!
    k = 0
    while True:
        if k != skip:
            total += term / (s + k)
        k += 1
        term *= -x / k
        # the next term is below 1e-17 of the sum, tested without dividing
        # by s + k, which is near 0 at the skipped term
        if abs(term) <= 1e-17 * abs((s + k) * total) or k > 300:
            return total


# ln Gamma(1 + e) = -log1p(e) + (1 - euler_gamma) e
#                   + sum_{n >= 2} (-1)^n (zeta(n) - 1)/n e^n,
# A&S 6.1.33; zeta(n) - 1 < 2^(1-n), so 19 terms reach 1e-20 at |e| = 1/4
_EULER_GAMMA = 0.5772156649015329
_ZETA_M1 = (0.6449340668482264, 0.2020569031595943, 0.08232323371113819,
            0.03692775514336993, 0.01734306198444914, 0.008349277381922827,
            0.00407735619794434, 0.0020083928260822143, 0.0009945751278180853,
            0.0004941886041194645, 0.0002460865533080483,
            0.00012271334757848915, 6.124813505870483e-05,
            3.058823630702049e-05, 1.528225940865187e-05,
            7.637197637899763e-06, 3.81729326499984e-06,
            1.908212716553939e-06, 9.539620338727962e-07)
_LGAMMA1P = tuple((-1) ** n * z / n for n, z in enumerate(_ZETA_M1, start=2))
# orders closer than this to 0, -1, -2, ... subtract the pole analytically
_POLE_E = 0.25


def _lgamma1p(e: float) -> float:
    # ln Gamma(1 + e) to full relative precision for |e| <= 1/4, where
    # math.lgamma is accurate only in absolute terms
    acc = _polyval(_LGAMMA1P, e)
    return (acc * e + 1.0 - _EULER_GAMMA) * e - math.log1p(e)


def _gamma_upper_scaled(s: float, x: float) -> float:
    # H(s, x) = Gamma(s, x) e^x x^-s for real s <= 3/2 and x > 0.  For
    # small x it is Gamma(s) x^-s minus the lower series.  Within 1/4 of a
    # pole s = e - k, Gamma(s) and the k-th term of that series both carry
    # a 1/e pole, which cancels in their difference; it is subtracted
    # analytically instead (at the pole, its limit: the k-th harmonic
    # number less euler_gamma and ln x).  Elsewhere it is the Legendre
    # continued fraction.
    k = round(-s)
    e = s + k
    near = k >= 0 and abs(e) < _POLE_E
    if x >= _GAMMA_SERIES_X or x > _COMPLEMENT_X and not near:
        return _gamma_upper_cf(s, x)
    if not near:  # no term of the series is skipped
        head, k = _xs(-s, x, math.gamma(s)), -1
    elif k > 170:  # the pole term carries 1/k!, below the smallest double
        head = 0.0
    elif e == 0.0:
        head = ((sum(1.0 / j for j in range(1, k + 1)) - _EULER_GAMMA
                 - math.log(x)) * (-1) ** k / math.factorial(k) * x ** -s)
    else:
        lg = _lgamma1p(e) - sum(math.log1p(-e / j) for j in range(1, k + 1))
        head = ((math.expm1(lg) - math.expm1(e * math.log(x))) / e
                * (-1) ** k / math.factorial(k) * x ** -s)
    return (head - _gamma_lower_series(s, x, k)) * math.exp(x)


def _gamma_upper_cf(s: float, x: float) -> float:
    # Gamma(s, x) e^x x^-s by the Legendre continued fraction with modified
    # Lentz; reliable for x >= ~0.25 at any real order, including negative
    # integers
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
    return h


# -- regularized P(s, x) and Q(s, x) for s > 0 ---------------------------------
#
# The domains follow Gil, Segura & Temme, SIAM J. Sci. Comput. 34 (2012)
# A2965: P first, by its power series, where s exceeds alpha(x) (about
# x + 1/4), so that Q = 1 - P keeps its digits; Q first elsewhere, by the
# Legendre continued fraction, or by the pole-free small-x form below x = 1.
# For s >= 20 with x/s in [0.3, 2.35] both series converge slowly and
# Temme's uniform expansion takes over (DiDonato & Morris, ACM TOMS 12
# (1986) 377, use the same split).

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_HALF = math.log(0.5)
_TEMME_S = 20.0
_TEMME_LO, _TEMME_HI = 0.3, 2.35
# Taylor coefficients f_1 .. f_26 of f(eta) = eta / (lambda - 1), where
# eta^2/2 = lambda - 1 - ln(lambda); derived in exact rational arithmetic
_TEMME_F = (
    -0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
    0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
    3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
    8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
    1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
    -2.5514193994946248e-11, -5.830772132550426e-11, 2.4361948020667415e-11,
    -5.0276692801141755e-12, 1.1004392031956135e-13, 3.371763262400985e-13,
    -1.392388722418162e-13, 2.8534893807047445e-14, -5.139111834242572e-16,
    -1.9752288294349442e-15, 8.099521156704561e-16)
# ln Gamma*(s) = sum_k B_2k / (2k (2k - 1) s^(2k-1)), the Stirling series;
# eight terms are below 1e-17 from s = 10 up
_STIRLING = (0.08333333333333333, -0.002777777777777778,
             0.0007936507936507937, -0.0005952380952380953,
             0.0008417508417508417, -0.0019175269175269176,
             0.00641025641025641, -0.029550653594771242)
# (f_m, m + 1) for m = 24 .. 1, the steps of _temme_sum_ds's recursion
_TEMME_STEPS = tuple((_TEMME_F[m - 1], m + 1.0) for m in range(24, 0, -1))
# lambda - 1 - ln(lambda) = 2t^2/(1 - t) - 2 t^3 (1/3 + t^2/5 + ...) with
# t = mu/(2 + mu), mu = lambda - 1: no cancellation for small |mu|
_ATANH_TAIL = tuple(1.0 / k for k in range(35, 1, -2))


def _phi(s: float, x: float) -> float:
    # lambda - 1 - ln(lambda) with lambda = x/s, to a few ulps: its error
    # times s is the error of Temme's exponent
    mu = (x - s) / s
    t = mu / (2.0 + mu)
    if abs(t) > 1.0 / 3.0:  # mu outside [-1/2, 1]: about 3 ulps cancel
        ratio = x / s  # below the normal doubles it loses digits, or is 0
        return mu - (math.log(ratio) if ratio >= sys.float_info.min
                     else math.log(x) - math.log(s))
    t2 = t * t
    acc = 0.0
    for c in _ATANH_TAIL:
        acc = acc * t2 + c
    return 2.0 * t2 / (1.0 - t) - 2.0 * t * t2 * acc


def _polyval(coef_ascending, u: float) -> float:
    # Horner's rule; the coefficients come in ascending powers of u
    acc = 0.0
    for c in reversed(coef_ascending):
        acc = acc * u + c
    return acc


def _gamma_star(s: float) -> float:
    # Gamma(s) / (sqrt(2 pi) s^(s - 1/2) e^-s), for s >= 10
    return math.exp(_polyval(_STIRLING, 1.0 / (s * s)) / s)


def _dompart(s: float, x: float) -> float:
    # x^s e^-x / Gamma(s + 1), the factor in front of both series; through
    # s (lambda - 1 - ln lambda) for large s, whose powers would overflow
    if x < 700.0 and (s < 10.0 or s < 170.0 and abs(s * math.log(x)) < 700.0):
        return x**s * math.exp(-x) / math.gamma(s + 1.0)
    if s < 10.0:
        return math.exp(s * math.log(x) - x - math.lgamma(s + 1.0))
    return (math.exp(-s * _phi(s, x))
            / (_SQRT_2PI * math.sqrt(s) * _gamma_star(s)))


def _gamma_p_series(s: float, x: float) -> float:
    # P(s, x) / dompart = sum_k x^k / ((s+1) ... (s+k)); all terms are
    # positive, and they rise while s + k < x, so the test waits for them
    # to fall
    total = term = 1.0
    k = s
    while term > 1e-17 * total:  # two terms a test: a spare one is harmless
        k += 1.0
        term *= x / k
        total += term
        k += 1.0
        term *= x / k
        total += term
    return total


def _temme_sum_ds(s: float, eta: float) -> tuple[float, float, float]:
    # Temme's sum_k C_k(eta) s^-k as sum_m b_m eta^m, by the backward
    # recursion b_{m-1} = f_m + (m+1) b_{m+1} / s of Gil, Segura & Temme
    # run alongside Horner's rule, with its partials in s and eta: the
    # recursion carries d b_m / d(1/s), Horner's rule d/d eta
    inv = 1.0 / s
    b2, b1 = _TEMME_F[25], _TEMME_F[24]  # b_25, b_24
    db2 = db1 = dinv = 0.0
    acc, deta = b2 * eta + b1, b2
    for fm, c in _TEMME_STEPS:
        b2, b1, db2, db1 = b1, fm + c * inv * b2, db1, c * (b2 + inv * db2)
        deta = deta * eta + acc
        acc = acc * eta + b1
        dinv = dinv * eta + db1
    den = 1.0 + b2 * inv  # b2 is b_1 by now
    ds = -inv * inv * (dinv - acc * (b2 + inv * db2) / den) / den
    return acc / den, ds, deta / den


def _p_first(s: float, x: float) -> bool:
    # s above alpha(x): P by its power series comes first.  0.5 x rounds
    # to 0 at the smallest subnormal x, where the limit is 0
    return s > (x + 0.25 if x >= 0.5 else
                _LN_HALF / math.log(0.5 * x) if 0.5 * x else 0.0)


def _gamma_inc(s: float, x: float, lower: bool = False):
    """(P, Q, H) for real s and x > 0.

    P and Q are the regularized incomplete gammas.  H = Gamma(s, x) e^x x^-s
    is given where Q is computed first (x above about s), since there Q
    underflows long before Gamma(s, x) does; it is None elsewhere.  With
    ``lower`` only P need be accurate: the series then runs on up to
    x = s + 8, where it is cheaper than the continued fraction and its
    positive terms keep P exact while 1 - P loses Q's digits.  H is then
    the scaled lower integral gamma(s, x) e^x x^-s, given where P is
    computed first, as P underflows long before gamma(s, x) does.  For
    s <= 0 there is no regularized pair: (None, None, H), H the upper one
    whatever ``lower`` says.
    """
    if s <= 0.0:
        return None, None, _gamma_upper_scaled(s, x)
    if s >= _TEMME_S and _TEMME_LO * s <= x <= _TEMME_HI * s:
        y = s * _phi(s, x)
        v = math.sqrt(y)
        eta = math.sqrt(2.0 * y / s)
        root = _SQRT_2PI * math.sqrt(s)
        if x < s:
            t = _temme_sum_ds(s, -eta)[0]
            r = math.exp(-y) * t / root
            # P = e^-y (erfcx(v)/2 - sum/sqrt(2 pi s)): the mirror of H below
            h = (0.5 * root * _erfcx(v) - t) * _gamma_star(s) / s if lower \
                else None
            return 0.5 * math.erfc(v) - r, 0.5 * math.erfc(-v) + r, h
        # Q = e^-y (erfcx(v)/2 + sum/sqrt(2 pi s)), and dompart carries the
        # same e^-y, so H is formed without it
        t = 0.5 * root * _erfcx(v) + _temme_sum_ds(s, eta)[0]
        q = math.exp(-y) * t / root
        return 1.0 - q, q, None if lower else t * _gamma_star(s) / s
    if _p_first(s, x) or lower and x < s + 8.0:
        series = _gamma_p_series(s, x)
        p = _dompart(s, x) * series
        return p, 1.0 - p, series / s if lower else None
    # x < 1 is left only for s <= 1.25, and only without ``lower``
    h = _gamma_upper_scaled(s, x) if x < 1.0 else _gamma_upper_cf(s, x)
    q = s * _dompart(s, x) * h
    return 1.0 - q, q, None if lower else h


def _exp(lg: float) -> float:
    # exp that saturates to +inf instead of raising OverflowError
    try:
        return math.exp(lg)
    except OverflowError:
        return math.inf


def _times_gamma(s: float, ratio: float) -> float:
    # Gamma(s) * ratio for s > 0 and ratio in [0, 1]; Gamma(s) overflows
    # from s = 171.6 on, where the product may not
    if s < 171.0:
        return math.gamma(s) * ratio
    if ratio == 0.0:
        return 0.0
    return _exp(math.lgamma(s) + math.log(ratio))


def _xs_emx(s: float, x: float, h: float) -> float:
    # x^s e^-x h without a spurious overflow or underflow of the factors
    lx = s * math.log(x)
    if x < 700.0 and abs(lx) < 700.0:
        return x**s * math.exp(-x) * h
    return _exp(lx - x + math.log(h))


def gamma_upper(s: float, x: float) -> float:
    """Upper incomplete gamma integral for real order ``s`` and ``x > 0``.

    The raw integral, not the regularized ratio, so it accepts s <= 0
    (where the complete gamma normalizer is useless or infinite).
    Strategy: ``_gamma_inc``'s regularized Q times Gamma(s), or x^s e^-x
    times its scaled H = Gamma(s, x) e^x x^-s, which neither under- nor
    overflows, where Q underflows, Gamma(s) overflows, or s <= 0.

    Accuracy, against mpmath for s in [-20, 5e3] and x in [1e-8, 1e4]:
    relative error at most 1e-15 (|s| + x + 20) where the result is a
    normal double; +inf where it overflows.
    """
    s = float(s)
    x = float(x)
    if math.isnan(s) or math.isnan(x):
        return math.nan
    if x < 0.0:
        raise ValueError(f"gamma_upper requires x >= 0, got x={x}")
    if x == 0.0:
        if s > 0.0:
            return math.gamma(s) if s < 171.0 else math.inf
        raise ValueError("gamma_upper(s, 0) diverges for s <= 0")
    if x == math.inf:
        return 0.0
    _, q, h = _gamma_inc(s, x)
    if q is not None and (h is None or q > 1e-300 and s < 171.0):
        return _times_gamma(s, q)
    return _xs_emx(s, x, h)  # s <= 0, Q underflows, or Gamma(s) overflows


def gamma_lower(s: float, x: float) -> float:
    """Lower incomplete gamma integral for real non-pole order and x > 0.

    Diverges (pole of the complete gamma) at s = 0, -1, -2, ...; those orders
    raise.  For s < 0 the result can legitimately be negative.

    Accuracy, against mpmath for s in [-20, 5e3] and x in [1e-8, 1e4]:
    for s > 0 relative error at most 1e-15 (s + x + 20) where the result
    is a normal double, +inf where it overflows; for s < 0 absolute error
    at most 1e-15 (|s| + x + 20) (|Gamma(s)| + |Gamma(s, x)|), the sizes of
    the two terms that it is the difference of.
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
    if x == math.inf:
        return _times_gamma(s, 1.0) if s > 0.0 else math.gamma(s)
    if s > 0.0:
        p, _, h = _gamma_inc(s, x, lower=True)
        if p < 1e-300 or s >= 171.0 and x < _TEMME_LO * s:
            # x far below s: P underflows before gamma(s, x), or the scaled
            # integral times x^s e^-x beats Gamma(s) P formed through logs
            return _xs_emx(s, x, h)
        return _times_gamma(s, p)
    if x <= _COMPLEMENT_X:
        return _xs(s, x, _gamma_lower_series(s, x))
    return math.gamma(s) - gamma_upper(s, x)


def lambert_w0(x: float) -> float:
    """Principal-branch Lambert W for x >= 0: ``_w0_exp`` at ln x, to
    within a few ulps."""
    x = float(x)
    if math.isnan(x):
        return math.nan
    if x < 0.0:
        raise ValueError("lambert_w0 implemented for x >= 0 only")
    if x == 0.0 or math.isinf(x):
        return x
    return _w0_exp(math.log(x), x)


def _w0_exp(L: float, x: float | None = None) -> float:
    """W(e^L), the w > 0 with w + ln w = L, without forming e^L.

    Newton steps w <- w (1 + ln(e^L / w))/(1 + w), which converge from any
    w > 0 (Iacono & Boyd 2017), from log1p(e^L), or L - ln L past L = 709.
    Given x = e^L, ln(e^L / w) is read as ln(x / w), which keeps the digits
    that the rounding of ln x would cost where w is small.  A step below
    1e-9 w leaves a relative error below 1e-18/2, so the iteration stops
    there: at most 5 steps.
    """
    w = math.log1p(math.exp(L)) if L < 709.0 else L - math.log(L)
    for _ in range(50):  # a NaN L never meets the test below
        step = w * ((L - math.log(w) if x is None else math.log(x / w)) - w) \
            / (1.0 + w)
        w += step
        if abs(step) <= 1e-9 * w:
            break
    return w
