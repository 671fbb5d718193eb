"""Truncated scaled chi distributions in n real dimensions.

The radius R = sigma * sqrt(chi2_n) of an isotropic n-dimensional Gaussian
follows a scaled chi distribution.  Truncating the radius from below
(inner, R >= a), from above (outer, R <= a) or on both sides produces raw
moments that are ratios of incomplete gamma functions::

    M_k = (sqrt(2) sigma)^k * W((n+k)/2) / W(n/2),   y = R**2/(2 sigma**2)

with W(t) the integral of y^(t-1) e^-y over the kept support in y: the
upper, lower or generalized incomplete gamma for inner, outer or double
truncation.  The dimensionality n is a real number throughout: fractional
n are first-class, and so are negative n for inner truncation and windows,
subject to per-operation poles.  Outer truncation needs n > 0: below, the
mass on [0, cutoff] diverges at the origin.

The normalized offset is |r| = a/sigma.  For fixed M and |r| the variance
has an interior maximum in n ("vmx" quantities); for fixed M and n it is
largest in the untruncated limit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum

from . import _roots
from .specfun import (_dompart, _erfcx, _exp, _gamma_inc, _gamma_p_series,
                      _gamma_upper_scaled, _xs)

__all__ = [
    "ChiKind",
    "LimitDirection",
    "ScaledChiSpec",
    "VmaxReport",
    "NvmxFitParams",
    "NVMX_DEFAULT_PARAMS",
    "chi_density",
    "chi_raw_moment",
    "chi_var_form1",
    "chi_sigma_from_mean",
    "chi_var_form2",
    "chi_calibrate",
    "double_sigma",
    "vmax_fixed_n",
    "nvmx_approx",
    "nvmx_search",
    "vmax_fixed_r_approx",
    "chi_limits",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
# the top order of the half-integer ladder (chi._gammas)
_LADDER_CAP = 10.5


class ChiKind(str, Enum):
    INNER = "inner"    # R >= a
    OUTER = "outer"    # R <= a
    DOUBLE = "double"  # a <= R <= b


class LimitDirection(str, Enum):
    R_TO_0 = "r_to_0"
    R_TO_INF = "r_to_inf"


def _outer_n(n: float) -> None:
    # the one refusal of outer truncation at n <= 0, for every entry point;
    # also where n/2 rounds to 0 (the smallest subnormal n), as the mass
    # ~ 2/n leaves the double range and the lower kernels need n/2 > 0
    if not n / 2.0 > 0.0:
        raise ValueError(f"outer truncation needs n > 0: at n = {n:g} the "
                         f"mass on [0, cutoff] diverges at the origin")


class ScaledChiSpec(namedtuple("ScaledChiSpec", "sigma n lower upper kind")):
    """Scaled chi distribution with truncated radial support.

    Support is [lower, inf) for INNER, [0, upper] for OUTER and
    [lower, upper] for DOUBLE.  INNER at n <= 0 needs lower > 0 and OUTER
    needs n > 0: the mass diverges at the origin otherwise.
    """

    __slots__ = ()

    def __new__(cls, sigma: float, n: float, lower: float = 0.0,
                upper: float = math.inf, kind: ChiKind = ChiKind.INNER):
        if not sigma > 0.0:
            raise ValueError("sigma must be positive")
        if lower < 0.0:
            raise ValueError("cutoffs must be nonnegative")
        k = ChiKind(kind)
        if k is ChiKind.INNER:
            if not math.isinf(upper):
                raise ValueError("inner truncation takes no upper cutoff")
            if n <= 0.0 and lower == 0.0:
                raise ValueError(
                    "n <= 0 concentrates infinite mass at the origin; a "
                    "positive lower cutoff is required")
        elif k is ChiKind.OUTER:
            if lower != 0.0:
                raise ValueError("outer truncation takes no lower cutoff")
            if not 0.0 < upper < math.inf:
                raise ValueError("outer truncation needs a finite cutoff")
            _outer_n(n)
        else:
            if not 0.0 < lower < upper < math.inf:
                raise ValueError("double truncation needs 0 < lower < upper < inf")
        return super().__new__(cls, sigma, n, lower, upper, kind)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make: check its values as __new__ does
        return cls(*iterable)

    # y = |r|^2/2 with |r| = cutoff/sigma, as chi_var_form2 forms it: the
    # squares of the cutoff and of sigma alone over- or underflow first

    @property
    def y1(self) -> float:
        r = self.lower / self.sigma
        return r * r / 2.0

    @property
    def y2(self) -> float:
        if math.isinf(self.upper):
            return math.inf
        r = self.upper / self.sigma
        return r * r / 2.0


VmaxReport = namedtuple(
    "VmaxReport", "r_abs n_vmx_real n_vmx_int vmax_real vmax_int")

NvmxFitParams = namedtuple("NvmxFitParams", "c1 c2 c3 d1 d2 d3")
NvmxFitParams.__doc__ = ("Fitted coefficients for the vmx dimensionality "
                         "and its variance.")


NVMX_DEFAULT_PARAMS = NvmxFitParams(
    c1=0.355590614404546, c2=2.616552453455175, c3=0.087938290974657,
    d1=0.005395899517140, d2=0.044337051307607, d3=1.360279573341640)


def _lower_edge(n: float, lower: float, upper: float, sigma: float,
                y1: float) -> None:
    # a positive lower cutoff whose y1 underflows to 0 would read as outer
    # truncation, whose mass at n <= 0 diverges at the origin
    if y1 == 0.0 < lower and n <= 0.0:
        raise ValueError(
            f"the window [{lower:g}, {upper:g}] at sigma = {sigma:g}: y1 = "
            f"(lower/sigma)^2/2 underflows to 0, and at n = {n:g} <= 0 the "
            f"mass it bounds diverges as y1 -> 0")


def chi_density(spec: ScaledChiSpec, R: float) -> float:
    """Probability density of the truncated radius at R; inf where it
    exceeds the double range (at sigma = 1e-310, say).  At n <= 0 a
    support whose y1 = (lower/sigma)^2/2 underflows to 0 is a ValueError
    naming it."""
    if R < spec.lower or R > spec.upper or R < 0.0:
        return 0.0
    y1 = spec.y1
    _lower_edge(spec.n, spec.lower, spec.upper, spec.sigma, y1)
    lnorm = _log_mass(spec.n / 2.0, y1, spec.y2)
    z = R / (_SQRT2 * spec.sigma)
    if z == 0.0 and spec.n != 1.0:  # the origin: a zero, or a pole below n = 1
        return 0.0 if spec.n > 1.0 else math.inf
    # log-space: z**(n-1) alone can overflow long before exp(-z*z) pulls
    # the product back down
    lp = (math.log(2.0) + (spec.n - 1.0) * (math.log(z) if z else 0.0)
          - z * z - math.log(_SQRT2 * spec.sigma) - lnorm)
    return _exp(lp) if lp > -745.0 else 0.0


def chi_raw_moment(spec: ScaledChiSpec, k: int) -> float:
    """k-th raw moment E[R^k] over the truncated support.

    Inner and outer truncation with n > 0 take the ratio of the upper or
    lower incomplete gammas from their scaled or regularized forms, never
    from the difference of two log-gammas of size n log n; for k <= 3 it
    is within 2e-15 relative of mpmath for |r| = cutoff/sigma up to 1000
    and n up to 1e6, where the ratio is the complete one (inner |r| = 0,
    outer |r|^2/2 far above n/2) too: 1.3e-15 on 3 000 n in [2e-3, 2e6].
    For whole n with (n + k)/2 at most 10.5 both gammas come from the
    half-integer ladder instead: closed forms at orders 1/2 and 1 stepped
    up by Gamma(t + 1, y) = t Gamma(t, y) + y^t e^-y (DLMF 8.8.2), a sum
    of positive terms; 1.4e-15 is the worst of 400 random points of n in
    [1, 19] and |r| in [1e-10, 1000], for either kind and k <= 3.
    Inner truncation at n <= 0 takes the ratio from the scaled
    H = Gamma(s, y) e^y y^-s, s = n/2 and y = |r|^2/2, which neither
    under- nor overflows there: for k <= 3 within 2e-14 relative for n in
    [-40, 0] and |r| in [1e-10, 1000] (8.9e-15 is the worst of 2 587
    random points).  Double truncation takes that ratio at the window's
    edge on the bulk's side times each order's share of it, or integrates
    a window over which the density moves by at most e^2 directly: for
    k <= 3 and n in [-30, 1e4] within 5e-14 relative of mpmath below,
    across and above the bulk (1.5e-14 measured), and narrow windows lose
    no digits (5.6e-15 measured down to a width in y of 1e-10 y(lower)).
    At n <= 0 a support whose y1 underflows to 0 is a ValueError naming
    it, as in ``chi_density``.  A moment beyond the double range reads inf
    (the second at sigma = 1e160, say).
    """
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    y1 = spec.y1
    _lower_edge(spec.n, spec.lower, spec.upper, spec.sigma, y1)
    scale = _SQRT2 * spec.sigma
    ratio = _ratio(spec.n / 2.0, y1, spec.y2, k)
    try:
        return scale ** k * ratio
    except OverflowError:  # scale**k alone leaves the double range
        return _xs(k, scale, ratio) if ratio else math.nan


def chi_var_form1(spec: ScaledChiSpec) -> float:
    """Variance as second raw moment minus squared mean."""
    m1 = chi_raw_moment(spec, 1)
    m2 = chi_raw_moment(spec, 2)
    return m2 - m1 * m1


def chi_sigma_from_mean(M: float, r_abs: float, n: float,
                        kind: ChiKind = ChiKind.INNER) -> float:
    """Spread parameter that yields truncated mean M at offset |r| = a/sigma.

    Inner and outer truncation with n > 0 take the ratio of the two
    incomplete gammas directly, as ``chi_raw_moment`` does: both are within
    2e-15 relative of mpmath for |r| up to 1000 and n up to 1e6 (inner:
    the worst on a grid of n in [0.5, 1e6] and |r| in [0, 1000] is
    8.3e-16; outer: 1.0e-15 on random points of n in [1e-3, 1e6] and |r|
    in [1e-10, 1000]; 1.2e-15 where the ratio is the complete one).
    For whole n up to 20 the two gammas come from the half-integer ladder
    (see ``chi_raw_moment``): 1.4e-15 inner and outer is the worst of 400
    random points of n in [1, 19] and |r| in [1e-10, 1000].
    Inner truncation at n <= 0 takes the scaled ratio that
    ``chi_raw_moment`` states: within 1e-14 relative for n in [-40, 0]
    and |r| in [1e-10, 1000] (5.7e-15 measured).  There |r| = 0 raises
    ValueError: the mass diverges.  So does outer truncation at n <= 0.
    """
    kind = ChiKind(kind)
    if kind is ChiKind.DOUBLE:
        raise ValueError("double truncation is parameterized by cutoffs, not r")
    if kind is ChiKind.OUTER:
        _outer_n(n)
    if not M > 0.0:
        raise ValueError("M must be positive")
    if r_abs < 0.0:
        raise ValueError("|r| must be nonnegative")
    y = r_abs * r_abs / 2.0
    if y == 0.0 and n <= 0.0 and kind is ChiKind.INNER:
        raise ValueError(f"the inner-truncation mass at n = {n:g} <= 0 "
                         f"diverges as |r| -> 0 (|r| = {r_abs:g})")
    if y == 0.0 and kind is ChiKind.OUTER:  # the support shrinks to 0
        return math.inf
    y1, y2 = (0.0, y) if kind is ChiKind.OUTER else (y, math.inf)
    return (M / _SQRT2) / _ratio(n / 2.0, y1, y2, 1)


# Fields's even-power expansion (DLMF 5.11.13), w = z - 1/4, E the Euler
# numbers: ln(Gamma(z + 1/2) / Gamma(z)) = ln(w)/2 + sum_j c_j w^(-2j),
# c_j = 2 B_{2j+1}(1/4) / (2j (2j+1)) = (-1)^(j+1) E_2j / (j 2^(4j+2))
_FIELDS = (
    1.0 / 64, -5.0 / 2048, 61.0 / 49152, -1385.0 / 1048576,
    50521.0 / 20971520, -2702765.0 / 402653184, 199360981.0 / 7516192768,
    -19391512145.0 / 137438953472, 2404879675441.0 / 2473901162496,
    -74074237647505.0 / 8796093022208)


def _fields(z: float) -> float:
    # the sum over ten c_j; the first term left out is 1.7e-15 at z = 6.
    # Horner's rule written out: the same operations as specfun._polyval
    # in the same order, without its loop
    u = 1.0 / ((z - 0.25) * (z - 0.25))
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9 = _FIELDS
    return u * (c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (
        c5 + u * (c6 + u * (c7 + u * (c8 + u * c9)))))))))


def _wallis(s: float) -> float:
    # Gamma(s + 1/2) / (Gamma(s) sqrt(s)).  Below s = 6 the math.gamma form,
    # once per chi_var_form2, is within 1.6e-15 at a tenth of the series'
    # cost with steps down; Gamma(s) alone overflows below s = 5.6e-309
    if s >= 6.0:
        return math.exp(0.5 * math.log1p(-0.25 / s) + _fields(s))
    return math.gamma(s + 0.5) * math.sqrt(s) / math.gamma(s + 1.0)


def _complete_ratio(s: float, k: int) -> float:
    # Gamma(s + k/2) / Gamma(s) for s > 0: the Wallis ratio for an odd k,
    # then one factor per whole step, so no large logarithms cancel
    g = _wallis(s) * math.sqrt(s) if k % 2 else 1.0
    t = s + 0.5 * (k % 2)
    for _ in range(k // 2):
        g *= t
        t += 1.0
    return g


def _gammas(orders: tuple[float, ...], y: float, lower: bool = False):
    # _gamma_inc's (P, Q, H) at each of the ascending orders, all s + j/2
    # for whole j, and y > 0.  Where 2s is a whole number, 0 < s and the
    # top order is at most _LADDER_CAP -- the paper's integer n -- they
    # come from the half-integer ladder, with None for the forms it does
    # not form: from orders 1/2 and 1 by Gamma(t + 1, y) = t Gamma(t, y)
    # + y^t e^-y (DLMF 8.8.2), each step a sum of positive terms.  Past
    # that cap the steps cost more than _gamma_inc (y < 1), and y = inf
    # (|r| past 1.3e154) is left to it too
    s, top = orders[0], orders[-1]
    if not (0.0 < s and top <= _LADDER_CAP and (2.0 * s).is_integer()
            and y < math.inf):
        return [_gamma_inc(t, y, lower) for t in orders]
    if lower and y < s + 2.0:
        # the scaled lower L_t = gamma(t, y) e^y y^-t, by its series at the
        # top two orders, then down by L_t = (1 + y L_{t+1}) / t
        g = {t: _gamma_p_series(t, y) / t for t in (top - 0.5, top)
             if t >= s}
        t = top - 1.0
        while t >= s:
            g[t] = (1.0 + y * g[t + 1.0]) / t
            t -= 0.5
        return [(None, None, g[t]) for t in orders]
    out = []
    t, r = 0.5, math.sqrt(y)
    if not lower and y >= 1.0:
        # the scaled upper H_t = Gamma(t, y) e^y y^-t: H_1/2 =
        # sqrt(pi) erfcx(sqrt(y)) / sqrt(y) and H_1 = 1/y (DLMF 8.4), then
        # H_{t+1} = (t H_t + 1) / y; a and b are at the orders t and t + 1/2
        a, b = _SQRT_PI * _erfcx(r) / r, 1.0 / y
        for u in orders:
            while t < u:
                a, b, t = b, (t * a + 1.0) / y, t + 0.5
            out.append((None, None, a))
        return out
    # the regularized Q (upper, y < 1, where H overflows as y -> 0) or P
    # (lower, y >= s + 2, where its steps lose no digits) from Q_1/2 =
    # erfc(sqrt(y)) and Q_1 = e^-y, or P_1/2 = erf(sqrt(y)) and P_1 =
    # -expm1(-y): Q_{t+1} = Q_t + d_t and P_{t+1} = P_t - d_t, d_t = y^t e^-y
    # / Gamma(t + 1) the Poisson term, carried with the step's sign
    e = math.exp(-y)
    da, db = 2.0 * r * e / _SQRT_PI, y * e
    if lower:
        a, b, da, db = math.erf(r), -math.expm1(-y), -da, -db
    else:
        a, b = math.erfc(r), e
    for u in orders:
        while t < u:
            a, b, da, db, t = b, a + da, db, da * y / (t + 1.0), t + 0.5
        out.append((a, None, None) if lower else (None, a, None))
    return out


def _edge_ratio(s: float, y: float, k: int, lower: bool = False) -> float:
    # G(s + k/2, y) / G(s, y), G the upper incomplete gamma at any real s,
    # or the lower one for s > 0 with ``lower``; from the same scaled H or
    # regularized Q or P as _ratio_m1: the exp of a difference of two
    # log-gammas of size s log s would lose about log10(s log s) digits
    if y == (math.inf if lower else 0.0):  # untruncated
        return _complete_ratio(s, k)
    if y == 0.0:  # lower: the limit of y^(k/2) s / (s + k/2)
        return 0.0
    if s + 0.5 <= 0.5 and not lower:  # s <= 0, or 0 to within s |ln y|
        s = min(s, 0.0)
        t = s + 0.5 * k
        if t > 1.5:  # past the kernel's orders, by a sum of positive terms
            # G(t, y) = (t - 1) G(t - 1, y) + y^(t-1) e^-y
            return ((t - 1.0) * _edge_ratio(s, y, k - 2)
                    + y ** (0.5 * k - 1.0) / _gamma_upper_scaled(s, y))
        return (_gamma_upper_scaled(t, y) / _gamma_upper_scaled(s, y)
                * y ** (0.5 * k))
    (p0, q0, h0), (pk, qk, hk) = _gammas((s, s + 0.5 * k), y, lower)
    if h0 is not None and hk is not None:
        return hk / h0 * y ** (0.5 * k)
    return _complete_ratio(s, k) * (pk / p0 if lower else qk / q0)


def _edges(s: float, y1: float, y2: float) -> tuple[float, float, bool]:
    # (near, far, lower): G is upper and taken at y1, unless the support
    # ends below the bulk (outer, or a window with y2 < s): then lower at y2
    lower = y1 == 0.0 or y2 < s
    return (y2, y1, True) if lower else (y1, y2, False)


# 10-point Gauss-Legendre on [-1, 1]: the positive nodes with their weights
_GAUSS10 = ((0.14887433898163122, 0.2955242247147528),
            (0.4333953941292472, 0.2692667193099965),
            (0.6794095682990244, 0.219086362515982),
            (0.8650633666889845, 0.1494513491505804),
            (0.9739065285171717, 0.06667134430868814))


def _share(t: float, near: float, far: float, lower: bool) -> float:
    # 1 - G(t, far) / G(t, near), the part of G(t, near) that the window
    # keeps (1 for one-sided support); G(t, y) is y^t e^-y H, H scaled, or
    # Gamma(t) times its regularized Q or P
    if far in (0.0, math.inf):
        return 1.0
    pn, qn, hn = _gamma_inc(t, near, lower)
    # half of ln(far / near); through log1p where far - near is exact
    c = 0.5 * (math.log1p((far - near) / near) if far > 0.5 * near
               else math.log(far / near))
    if max(abs(t - near), abs(t - far), 1.0) * abs(c) <= 1.0:
        # ln(y^t e^-y) moves by at most 2 over at most 2 in ln y, where the
        # quotient below would cancel: the window's integral over
        # near^t e^-near by Gauss-Legendre in ln(y / near), within 1e-15
        i = abs(c) * sum(w * math.exp(t * u - near * math.expm1(u))
                         for x, w in _GAUSS10 for u in (c - c * x, c + c * x))
        return (i / hn if hn is not None
                else t * _dompart(t, near) * i / (pn if lower else qn))
    pf, qf, hf = _gamma_inc(t, far, lower)
    if hn is None or hf is None:
        # Gamma(t) cancels; the difference is taken from the smaller pair
        (gn, cn), (gf, cf) = (((pn, qn), (pf, qf)) if lower
                              else ((qn, pn), (qf, pf)))
        return (cf - cn if cf < 0.5 else gn - gf) / gn
    # from H the quotient is exp(ln(H_far / H_near) + near - far
    # + t ln(far / near)), which neither under- nor overflows
    return -math.expm1(math.log(hf / hn) + (near - far) + 2.0 * t * c)


def _ratio(s: float, y1: float, y2: float, k: int) -> float:
    # W(s + k/2) / W(s), W(t) the integral of y^(t-1) e^-y over the support
    # [y1, y2] (inner y2 = inf, outer y1 = 0): the one-sided ratio at the
    # edge on the bulk's side times each order's share of it
    near, far, lower = _edges(s, y1, y2)
    return (_edge_ratio(s, near, k, lower) / _share(s, near, far, lower)
            * _share(s + 0.5 * k, near, far, lower))


def _log_mass(s: float, y1: float, y2: float) -> float:
    # ln W(s), W as in _ratio, from the same H, Q or P: W itself under- or
    # overflows long before the density does
    near, far, lower = _edges(s, y1, y2)
    if math.isinf(near):  # untruncated; Gamma(s) overflows where s rounds to 0
        return math.lgamma(s) if s else math.inf
    p, q, h = _gamma_inc(s, near, lower)
    return math.log(_share(s, near, far, lower)) + (
        math.log(h) + s * math.log(near) - near if h is not None
        else math.log(p if lower else q) + math.lgamma(s))


def _scaled_upper(t: float, y: float) -> float:
    # H(t, y) = Gamma(t, y) e^y y^-t from _gamma_inc; for t > 0 from Q
    # where it forms P first: Q Gamma(t) y^-t e^y = Q / (t dompart)
    _, q, h = _gamma_inc(t, y)
    return h if h is not None else q / (t * _dompart(t, y))


def _ratio_m1(s: float, y: float,
              lower: bool = False) -> tuple[float, float]:
    # (ratio - 1, d ln(ratio)/dy), ratio = G(s, y) G(s+1, y) / G(s+1/2, y)^2
    # and G as in _edge_ratio, from _gammas (for whole n its half-integer
    # ladder).  Where G comes first they come scaled,
    # H = G(., y) e^y y^-., which never underflows; elsewhere as
    # regularized Q or P, with the complete gammas folded into the Wallis
    # ratio.  For s > 0 the upper G(s+1, y) is s G(s, y) + y^s e^-y; for
    # s <= 0 that cancels at small y, and the lower one cancels for y << s,
    # so those are computed.  The slope is elementary (DLMF 8.8.13):
    # d ln G(t, y)/dy = -+1/(y H(t)), upper and lower, and from Q or P
    # 1/H(t) = t x^t e^-x / (Gamma(t + 1) Q), the same dominant part.  It is
    # a second difference in t and cancels where the ratio does (deep in
    # the tail, and the lower kernel at y << s); it only steers
    # chi_calibrate's Newton steps.  At the limits y = 0 and inf it is 0
    if y in (0.0, math.inf):  # the limits |r| -> 0 and inf
        which = LimitDirection.R_TO_INF if y else LimitDirection.R_TO_0
        return _var_limit(1.0, 2.0 * s, ChiKind.OUTER if lower
                          else ChiKind.INNER, which), 0.0
    # s + 1/2 rounds where it crosses a power of 2; moving s by that ulp
    # too keeps the orders exactly 1/2 apart, which the ratio is far more
    # sensitive to (about 2n psi(s) times more) than to s itself.  Not so
    # the lower ratio for s < 1/2, which grows like 1/s as s -> 0
    a = s + 0.5
    if a >= 1.0 or not lower:
        s = a - 0.5
    if a <= 0.5 and not lower:  # s <= 0, or rounded to 0
        h0, h1, h2 = (_scaled_upper(t, y) for t in (s, a, s + 1.0))
        return (h0 * h2 / (h1 * h1) - 1.0,
                (2.0 / h1 - 1.0 / h0 - 1.0 / h2) / y)
    if lower:
        (p0, _, h0), (p1, _, h1), (p2, _, h2) = _gammas((s, a, a + 0.5), y,
                                                        True)
        if None not in (h0, h1, h2):
            return (h0 * h2 / (h1 * h1) - 1.0,
                    (1.0 / h0 + 1.0 / h2 - 2.0 / h1) / y)
        g = _wallis(s)
        d = _dompart(s, y)
        return (p0 * p2 / (g * g * p1 * p1) - 1.0,
                d * (s / p0 + y / p2 - 2.0 * math.sqrt(y * s) / (g * p1)) / y)
    (p0, q0, h0), (p1, q1, h1) = _gammas((s, a), y)
    if h0 is not None and h1 is not None:
        return (h0 * (s * h0 + 1.0) / (y * h1 * h1) - 1.0,
                (2.0 / h1 - 1.0 / h0) / y - 1.0 / (s * h0 + 1.0))
    g = _wallis(s)
    d = _dompart(s, y)
    return (q0 * (q0 + d) / (g * g * q1 * q1) - 1.0,
            d * (2.0 * math.sqrt(y * s) / (g * q1) - s / q0) / y
            - d / (q0 + d))


def chi_var_form2(M: float, r_abs: float, n: float,
                  kind: ChiKind = ChiKind.INNER) -> float:
    """Variance from (M, |r|, n) without solving for sigma first.

    Inner and outer truncation with n > 0 take the ratio of two upper or
    lower incomplete gammas directly, so no large logarithms cancel.  The
    absolute error against mpmath is at most 2e-14 (M^2 + V), V the
    variance, for |r| up to 1000 and n up to 1e6: the rounding of a ratio
    near 1 from which 1 is subtracted.  Relative to V that grows like n,
    as V nears M^2/(2n) (inner at n = 2.5e5 and |r| = 500 it allows
    2.8e-8; 5.4e-11 is measured), and for inner like r^4 deep in the
    tail, where V nears M^2/r^4; outer V lies between M^2/(n(n+2)) and
    about M^2/(2n).  Where the ratio is the complete one, 2.2e-15
    (M^2 + V) is measured.  For whole n from 1 to 19 (inner: 20), the
    paper's, the three gammas come from the half-integer ladder (see
    ``chi_raw_moment``), at a third to a half of the cost: within the same
    bound, 2.9e-15 (M^2 + V) inner and 2.8e-15 outer measured on 400
    random points of n in [1, 19] and |r| in [1e-10, 1000] (the general
    incomplete gammas read 3.0e-15 and 2.6e-15 there).  Inner truncation
    at n <= 0 takes the ratio of three scaled H (see ``chi_raw_moment``):
    within 2e-14 (M^2 + V) for n in [-40, 0] and |r| in [1e-10, 1000]
    (9.5e-15 (M^2 + V) measured).
    Far below that domain, from |r| of about 1e-153 down, where |r|^2/2
    nears the smallest normal double, the inner variance for n near 0 is
    NaN or inf: for n within about 0.004 of 0 at |r| = 1e-153, 0.08 at
    1e-160, and all of [-2, 0] from 1e-200 down.  At |r| = 0 the inner
    variance is its limit, at n <= 0 infinite from n = -2 up and
    M^2/(n(n+2)) below.  Outer truncation at n <= 0 is a ValueError: its
    mass diverges.
    """
    kind = ChiKind(kind)
    if kind is ChiKind.DOUBLE:
        raise ValueError("double truncation is parameterized by cutoffs, not r")
    if kind is ChiKind.OUTER:
        _outer_n(n)
    y = r_abs * r_abs / 2.0
    return M * M * _ratio_m1(n / 2.0, y, kind is ChiKind.OUTER)[0]


# ---------------------------------------------------------------------------
# maximal-variance machinery
# ---------------------------------------------------------------------------

def _var_untruncated(n: float) -> float:
    # V(s) = R(s) - 1 with R(s) = Gamma(s) Gamma(s+1) / Gamma(s+1/2)^2 and
    # s = n/2 > 0, the untruncated variance over M^2:
    # expm1(-2 A - log1p(-1/(4z))), A = _fields(z) at
    # z = s + m >= 10, not at _wallis's 6, as V's relative error is 8z times
    # A's (eight terms from z >= 8 were 5e-15 off); then down to s by
    # V(s) = V(s+1) + (1 + V(s+1)) / (4s(s+1)), a sum of positive terms.
    # n/2 is 0 for the smallest subnormal n, where V is infinite
    s = n / 2.0
    if s == 0.0:
        return math.inf
    m = math.ceil(10.0 - s) if s < 10.0 else 0
    v = math.expm1(-2.0 * _fields(s + m) - math.log1p(-0.25 / (s + m)))
    for j in range(m - 1, -1, -1):
        v += 0.25 * (1.0 + v) / ((s + j) * (s + j + 1.0))
    return v


def _var_limit(M: float, n: float, kind: ChiKind,
               which: LimitDirection) -> float:
    # the variance as |r| -> 0 or inf, the ends of its range over |r|;
    # the callers check the poles of M^2/(n(n+2))
    if which is LimitDirection.R_TO_INF:
        return 0.0 if kind is ChiKind.INNER else M * M * _var_untruncated(n)
    if kind is ChiKind.INNER and n > 0.0:
        return M * M * _var_untruncated(n)
    if kind is ChiKind.INNER and n >= -2.0:
        return math.inf
    return M * M / (n * (n + 2.0))


def vmax_fixed_n(M: float, n: float) -> float:
    """Supremum of the inner-truncation variance over |r|, at fixed (M, n);
    attained in the untruncated limit |r| -> 0."""
    if n in (0.0, -2.0):
        raise ValueError(f"variance limit has a pole at n={n}")
    return _var_limit(M, n, ChiKind.INNER, LimitDirection.R_TO_0)


def nvmx_approx(r_abs: float,
                params: NvmxFitParams = NVMX_DEFAULT_PARAMS) -> float:
    """Fitted estimate of the dimensionality maximizing the variance at
    fixed (M, |r|)."""
    if not r_abs > 0.0:
        raise ValueError("|r| must be positive")
    return (r_abs * r_abs + params.c1 * r_abs ** 1.5 + params.c2 * r_abs
            + params.c3 * math.sqrt(r_abs) - 1.0)


def nvmx_search(M: float, r_abs: float) -> VmaxReport:
    """Exact vmx dimensionality: the root of dV/dn; also reports the best
    flanking integer >= 1.

    Secant steps (``_roots.secant``) on the exact slope d ln(ratio)/dn,
    which has the sign of dV/dn (``_nvmx_slope``: the second difference of
    d/ds ln Gamma(s, y) over the orders s, s + 1/2, s + 1, from the
    derivatives of the incomplete-gamma kernels in their order), from the
    fitted estimate, which is at least 1e-3 in n + 1 (the fit reaches
    n = -1 as |r| -> 0, the search does not), within a band of +-5% about
    it that widens only on the root's side: above |r| = 100 the slope far
    below its root is at its rounding level and may have either sign.
    Where the steps stall, Brent's steps take over.  It stops on a step of
    1e-13 max(1, n + 1), about the slope's rounding: within 1e-12 max(1,
    |n|) of mpmath for |r| from 1e-60 to 1000 (2.2e-13 relative measured
    at |r| = 1000, 1.6e-14 or less up to |r| = 100).  2 to 7 slope
    evaluations for |r| in [0.05, 10] (5.9 on average over log-uniform
    |r|), 14 at |r| = 100 and 18 at 1000, each costing about 1.4
    ``chi_var_form2`` calls, and two or three of those for the reported
    variances.

    Defined for 0 < |r| <= 1000, the domain on which ``chi_var_form2``
    meets its stated accuracy (there n_vmx stays near r^2, about 1e6).
    Below |r| = 2.1e-154, |r|^2/2 is subnormal and carries fewer digits,
    and so does n_vmx; below about 2.7e-162 it is 0, and ValueError says so.
    """
    if not 0.0 < r_abs <= 1000.0:
        raise ValueError(f"|r| must be positive and finite, at most 1000 "
                         f"(the domain of chi_var_form2), got {r_abs:g}")
    y = r_abs * r_abs / 2.0
    if y == 0.0:
        raise ValueError(f"|r| = {r_abs:g} is too small: |r|^2/2 underflows "
                         f"to 0 below |r| of about 2.7e-162")

    def v(n: float) -> float:
        return chi_var_form2(1.0, r_abs, n, ChiKind.INNER)

    from ._nvmx_slope import _dlog_ratio_dn

    def slope(m: float) -> float:  # the sign of dV/dn at n = m - 1
        return _dlog_ratio_dn(0.5 * (m - 1.0), y)

    # work in m = n + 1 > 0, so that widening towards 0 never leaves n > -1
    m = max(nvmx_approx(r_abs) + 1.0, 1e-3)
    # the slope's rounding moves its zero by about 1e-13 max(1, m), and by
    # 2e-13 m at |r| = 1000 (below m = 1, s = (m - 1)/2 resolves m to
    # 2.2e-16 at best), so the search stops there instead of stepping
    # through that rounding
    n_real = _roots.secant(
        slope, m, xtol=1e-13 * max(1.0, m),
        what=f"variance-maximizing dimension at |r|={r_abs:g}") - 1.0
    cands = {k: v(k) for k in {max(1, math.floor(n_real)),
                               max(1, math.ceil(n_real))}}
    n_int = max(cands, key=cands.get)
    return VmaxReport(r_abs=r_abs, n_vmx_real=n_real, n_vmx_int=n_int,
                      vmax_real=M * M * v(n_real),
                      vmax_int=M * M * cands[n_int])


def vmax_fixed_r_approx(r_abs: float,
                        params: NvmxFitParams = NVMX_DEFAULT_PARAMS) -> float:
    """Fitted estimate of the maximal variance over n at fixed (M=1, |r|)."""
    if r_abs < 0.0:
        raise ValueError("|r| must be nonnegative")
    d1 = params.d1
    base = 2.0 * d1 / (math.pi - 2.0) + 1.0
    try:
        grow = math.exp(params.d2 * r_abs ** params.d3)
    except OverflowError:  # past |r| of about 1233: the fit's limit
        return 0.0
    return d1 / (base * grow - 1.0)


# ---------------------------------------------------------------------------
# calibration and limits
# ---------------------------------------------------------------------------

def _logit_step(target: float, v: float, lo: float, sup: float,
                dv: float) -> float:
    # Newton's step towards target on F = ln((v - lo) / (sup - v)), which
    # runs over the whole real line, in the variable that moves v at rate
    # dv; F(target) - F(v) from target - v without cancellation.  NaN at a
    # limit, or where dv is no finite number
    try:
        d = target - v
        dF = math.log1p(d / (v - lo))
        dF_dv = 1.0 / (v - lo)
        if sup < math.inf:
            dF -= math.log1p(-d / (sup - v))
            dF_dv += 1.0 / (sup - v)
        slope = dv * dF_dv
        return dF / slope if math.isfinite(slope) else math.nan
    except (ValueError, ZeroDivisionError):
        return math.nan


def chi_calibrate(M: float, target_var: float, n: float,
                  kind: ChiKind = ChiKind.INNER) -> tuple[float, float, float]:
    """Solve for (|r|, sigma, a) matching mean M and the target variance.

    The variance is monotone in |r| for either kind (decreasing for inner,
    increasing for outer) between its two limits lo and sup, so Newton's
    method on F = ln((V - lo) / (sup - V)) against ln|r| finds the root:
    F runs over the whole real line and is close to linear at both ends.
    The slope comes with V from one kernel call (``_ratio_m1``).  The
    iteration starts from the asymptotes: inner V -> M^2/|r|^4, with |r|^2
    moved by n - 3 sqrt(n) above n = 9, where the variance turns near the
    bulk of the chi law; outer V - lo -> (M^2 + lo) |r|^2 / (4 (s+1)
    (s+3/2)(s+2)), s = n/2, with |r|^2 at most n + 3 sqrt(n).  The steps
    are ``_roots.newton``'s in ln|r|, one evaluation past a step below
    1e-8 |r| (V's noise, up to about 1e-15 M^2, is all that is left): 4 to
    7 evaluations on n in {1, 2, 3, 5, 8} and targets across each range.
    |r| is searched on [1e-300, 1e6]; where no offset there reproduces the
    target to 1e-10 (M^2 + V), ValueError names the range.  So does a
    target outside the attainable range, or within V's stated noise 2e-14
    (M^2 + V) of a limit, which any |r| far enough out reproduces.
    """
    kind = ChiKind(kind)
    if not target_var > 0.0:
        raise ValueError("target variance must be positive")
    if kind is ChiKind.DOUBLE:
        raise ValueError("double truncation has no single-|r| calibration")
    if kind is ChiKind.OUTER:
        _outer_n(n)
    lo, sup = sorted(_var_limit(M, n, kind, w) for w in LimitDirection)
    if kind is ChiKind.INNER and target_var >= sup:
        raise ValueError(
            f"target variance {target_var:g} exceeds the maximal "
            f"variance {sup:g} attainable at n={n:g} with mean {M:g}")
    if not lo < target_var < sup:
        raise ValueError(
            f"{kind.value}-truncation variance at n={n:g} is confined to "
            f"({lo:g}, {sup:g}); target {target_var:g} is outside")
    what = f"offset |r| with {kind.value}-truncation variance {target_var:g}"
    m2, s = M * M, n / 2.0
    noise = 2e-14 * (m2 + target_var)  # chi_var_form2's stated error
    if min(target_var - lo, sup - target_var) <= noise:
        raise ValueError(f"no {what}: it lies within the variance's rounding "
                         f"noise 2e-14 (M^2 + V) = {noise:g} of a limit")
    outer = kind is ChiKind.OUTER
    if outer:
        r = math.sqrt(min(4.0 * (s + 1.0) * (s + 1.5) * (s + 2.0)
                          * (target_var - lo) / (m2 + lo),
                          n + 3.0 * math.sqrt(n)))
    else:
        r = math.sqrt((n - 3.0 * math.sqrt(n) if n > 9.0 else 0.0)
                      + M / math.sqrt(target_var))

    def g(r: float) -> tuple[float, float]:
        y = r * r / 2.0
        ratio_m1, dlr = _ratio_m1(s, y, outer)
        v = m2 * ratio_m1
        # dV/d ln|r| = |r|^2 dV/dy, infinite where dlr overflows
        return v, _logit_step(target_var, v, lo, sup,
                              2.0 * y * m2 * (1.0 + ratio_m1) * dlr)

    # tol is far above V's noise, 2e-14 (M^2 + V): a best residual past it
    # means that V jumps across the target between adjacent offsets, as
    # where y = |r|^2/2 is subnormal
    best_r = _roots.newton(
        g, r, target_var, increasing=outer, domain=(1e-300, 1e6),
        what=what, noise_evals=1, log=True, tol=1e-10 * (m2 + target_var))
    sigma = chi_sigma_from_mean(M, best_r, n, kind)
    return best_r, sigma, best_r * sigma


def _window_sup(n: float, lower: float, upper: float) -> float:
    # the window mean as sigma -> inf, where the density tends to R^(n-1):
    # n/(n+1) (u^(n+1) - l^(n+1)) / (u^n - l^n) = b e(n+1) / e(n), with
    # e(t) = expm1(t a)/t, a = ln(c/b) and b the end whose powers dominate
    # (c the other): no power underflows, the one positive exponent is at
    # most |a|/2, and e(0) = a gives the limits at n = 0 and -1.  On a
    # one-sided support, n/(n+1) times the cutoff, but inner (upper = inf)
    # R^(n-1) has no mean from n = -1 up
    if lower == 0.0 or upper == math.inf:
        return (math.inf if upper == math.inf and n >= -1.0
                else (lower or upper) * (n / (n + 1.0)))
    b, c = (upper, lower) if n > -0.5 else (lower, upper)
    q = c / b  # 0 or inf where u/l passes the double range
    a = math.log(q) if 0.0 < q < math.inf else math.log(c) - math.log(b)

    def e(t: float) -> float:
        x = t * a
        return math.expm1(x) / t if abs(x) > 1e-200 else a

    return b * (e(n + 1.0) / e(n))


def _support_kind(lower: float, upper: float) -> ChiKind:
    # the truncation that keeps [lower, upper]: inner up to inf, outer from 0
    return (ChiKind.INNER if upper == math.inf else
            ChiKind.OUTER if lower == 0.0 else ChiKind.DOUBLE)


def double_sigma(M: float, n: float, lower: float, upper: float) -> float:
    """The sigma that puts the mean of the support [lower, upper] at M: a
    window, or with ``lower`` = 0 the outer and with ``upper`` = inf the
    inner truncation (both: the untruncated law).

    The mean E rises with sigma from ``lower`` to its limit sup as sigma
    grows, n/(n+1) (u^(n+1) - l^(n+1)) / (u^n - l^n) for l = lower and u =
    upper: n/(n+1) u outer, and inner n/(n+1) l for n < -1, inf otherwise.
    A target outside (lower, sup), or within E's stated error 5e-14 M
    (``chi_raw_moment``) of either end, is a ValueError naming both ends.
    Newton steps in ln sigma on ln((E - lower) / (sup - E)) (ln(E -
    lower) where sup = inf), which nears slope 2 at both ends of a window,
    take the slope from E and the support's edge densities: 1 to 11
    evaluations, 5 in the median, for n from -30 to 1e5 on windows 0.07
    to 14 times as wide as ``lower``, and at most 6 on one-sided supports
    for n from -0.5 to 8.
    """
    kind = _support_kind(lower, upper)
    ScaledChiSpec(1.0, n, lower=lower, upper=upper, kind=kind)  # its checks
    try:
        sup = _window_sup(n, lower, upper)
    except OverflowError:  # |a|/2 past 709.78: lower subnormal, n near -1/2
        raise ValueError(f"the powers of the window [{lower:g}, {upper:g}] "
                         f"at n={n:g} leave the double range") from None
    noise = 5e-14 * M
    if not lower + noise < M < sup - noise:
        trunc = "doubly " if kind is ChiKind.DOUBLE else f"{kind.value}-"
        raise ValueError(
            f"the {trunc}truncated mean on [{lower:g}, {upper:g}] at n={n:g} "
            f"is confined to ({lower:g}, {sup:g}); got {M:g}"
            + (f", within its rounding noise 5e-14 M = {noise:g} of an end"
               if lower < M < sup else ""))
    s = n / 2.0

    def g(sigma: float) -> tuple[float, float]:
        r1, r2 = lower / sigma, upper / sigma
        y1, y2 = r1 * r1 / 2.0, r2 * r2 / 2.0
        _lower_edge(n, lower, upper, sigma, y1)
        w1 = _ratio(s, y1, y2, 1)
        mean = _SQRT2 * sigma * w1
        # dE/dsigma = 2 sqrt(2) (W3 - W1 W2), W_k = _ratio's, and W(t + 1)
        # = t W(t) + [y^t e^-y] over the edges turns it into W1 and the
        # edge terms d = y^s e^-y / W(s)
        try:
            lw = _log_mass(s, y1, y2)
            d1, d2 = (math.exp(s * math.log(y) - y - lw)
                      if 0.0 < y < math.inf else 0.0 for y in (y1, y2))
        except ValueError:  # W(s) out of the double range: no slope
            return mean, math.nan
        # an edge without density drops out: at upper = inf, 0 * r2 is NaN
        r2 = r2 if d2 else 0.0
        cov = 0.5 * w1 - d1 * (w1 - r1 / _SQRT2) - d2 * (r2 / _SQRT2 - w1)
        # its rounding, up to about 1e-15 of its terms' size (against
        # mpmath), outgrows it as sigma falls far below lower: below 1e-14
        # of them it is no slope, and Newton bisects
        if not abs(cov) > 1e-14 * (w1 + d1 * r1 + d2 * r2):
            return mean, math.nan
        return mean, _logit_step(M, mean, lower, sup,
                                 2.0 * _SQRT2 * sigma * cov)

    # the seed: inner, from the limit E - lower ~ sigma^2/lower; else the
    # untruncated sigma, or at n <= 0, where it is no number, the one of
    # that limit and sup - E ~ 1/sigma^2
    if sup == math.inf and lower > 0.0:
        sigma = math.sqrt(lower) * math.sqrt(M - lower)
    else:
        sigma = _sigma_limit(M, n) if n > 0.0 else (
            math.sqrt(lower) * math.sqrt(sup - lower)
            * math.sqrt((M - lower) / (sup - M)))
    # the root lies above about 2e-7 lower (or near the untruncated sigma)
    # and below about 3e6 upper, or inner 1e8 M (where n > 0, below M over
    # the untruncated mean per sigma): E is within its noise of an end
    # beyond.  tol is far above that noise, as chi_calibrate's is above V's
    return _roots.newton(
        g, sigma, M, increasing=True,
        domain=(1e-8 * min(lower or sigma, sigma),
                1e8 * (upper if upper < math.inf else max(sigma, M))),
        what=f"sigma giving mean {M:g} on [{lower:g}, {upper:g}] at n={n:g}",
        noise_evals=1, log=True, tol=1e-10 * M)


def _form1_sigma(v: float, spec: ScaledChiSpec) -> float:
    """The sigma that puts the variance m2 - m1^2 of ``spec``'s support at
    v, by Newton steps in ln sigma from ``spec.sigma`` on the slope dV/d ln
    sigma = (m4 - m2^2 - 2 m1 (m3 - m1 m2)) / sigma^2.  Where V rises to a
    peak in sigma and falls to its limit beyond (outer truncation,
    windows), it is the root on the seed's side of the peak; a v above the
    peak, or no root to 1e-10 (m2 + v), m2 at the seed, is a ValueError
    naming the range searched."""

    def var(sigma: float) -> tuple[float, float]:  # V and its slope
        m1, m2, m3, m4 = (chi_raw_moment(spec._replace(sigma=sigma), k)
                          for k in (1, 2, 3, 4))
        return m2 - m1 * m1, (m4 - m2 * m2 - 2.0 * m1 * (m3 - m1 * m2)) / (
            sigma * sigma)

    def g(sigma: float) -> tuple[float, float]:
        # a sigma past the peak, seen from the seed, reads as above the
        # target: the root on the seed's side lies back towards the seed
        value, slope = var(sigma)
        return (value, slope) if (slope > 0.0) == rising else (math.inf,
                                                               math.nan)

    rising = var(spec.sigma)[1] > 0.0  # the seed's side of the peak
    return _roots.newton(
        g, spec.sigma, v, increasing=rising, log=True, slope=True,
        domain=(1e-8 * spec.sigma, 1e8 * spec.sigma), noise_evals=1,
        tol=1e-10 * (chi_raw_moment(spec, 2) + v), what=f"sigma giving "
        f"variance {v:g} on [{spec.lower:g}, {spec.upper:g}] at n={spec.n:g}")


def _sigma_limit(M: float, n: float) -> float:
    # M Gamma(n/2) / (sqrt(2) Gamma((n+1)/2)) for n > 0, the untruncated
    # sigma; the ratio is 0 where n/2 rounds to 0, and the sigma there
    # infinite
    c = _complete_ratio(n / 2.0, 1)
    return (M / _SQRT2) / c if c else math.inf


def chi_limits(n: float, kind: ChiKind, which: LimitDirection | str,
               M: float = 1.0) -> tuple[float, float, float]:
    """Closed-form (variance, sigma, cutoff) limits as |r| -> 0 or inf;
    outer truncation needs n > 0."""
    kind = ChiKind(kind)
    which = LimitDirection(which)
    if kind is ChiKind.DOUBLE:
        raise ValueError("limits are tabulated for single-sided truncation")
    if kind is ChiKind.OUTER:
        _outer_n(n)
    to_0 = which is LimitDirection.R_TO_0
    var = _var_limit(M, n, kind, which)
    if kind is ChiKind.INNER:
        if not to_0:
            return var, 0.0, M
        if n > 0.0:
            return var, _sigma_limit(M, n), 0.0
        return var, math.inf, 0.0 if n >= -1.0 else M * (n + 1.0) / n
    if to_0:
        return var, math.inf, M * (n + 1.0) / n
    return var, _sigma_limit(M, n), math.inf
