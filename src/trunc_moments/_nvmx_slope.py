"""The exact n-slope of the inner chi variance, for ``chi.nvmx_search``.

With s = n/2 and y = |r|^2/2 the variance over M^2 is ratio - 1, ratio =
G(s) G(s+1) / G(s+1/2)^2 and G(t) = Gamma(t, y), so d ln(ratio)/dn, which
has the sign of dV/dn, is half the second difference of d/dt ln G(t) over
t = s, s + 1/2, s + 1 (``_dlog_ratio_dn``).  ``_dlog_gamma_upper_ds``
gives that derivative on the branches of ``specfun._gamma_inc``, each
carrying a (value, d/dt) pair (Moore, "Algorithm AS 187", Appl. Statist.
31 (1982) 330, does the same for the regularized P): d/dt ln Gamma(t, y)
is psi(t) + d ln Q or ln y + d ln H, whichever of Q and H the branch
forms, and ``_digamma`` gives psi.  The module is apart from ``chi`` and
``specfun`` so that only the commands that search n_vmx compile it.
"""

from __future__ import annotations

import math

from .chi import _FIELDS
from .specfun import (_COMPLEMENT_X, _EULER_GAMMA, _GAMMA_SERIES_X,
                      _LGAMMA1P, _POLE_E, _SQRT_2PI, _STIRLING, _TEMME_HI,
                      _TEMME_LO, _TEMME_S, _dompart, _erfcx, _gamma_star,
                      _p_first, _phi, _polyval, _temme_sum_ds, _xs)

# d ln Gamma*(s)/ds = s^-2 sum_k (1 - 2k) c_k s^(2-2k), c_k the Stirling
# coefficients of specfun._gamma_star; j c_j, from chi's Fields expansion
# sum_j c_j w^(-2j), for the derivative in _digamma_diff2
_STIRLING_DS = tuple((1 - 2 * k) * c
                     for k, c in enumerate(_STIRLING, start=1))
_FIELDS_DS = tuple(j * c for j, c in enumerate(_FIELDS, start=1))
# ln(1 + z)/z = sum_m (-z)^m / (m + 1): the coefficients of its derivative,
# 28 terms for 1e-17 at |z| = 1/4
_LOG1P_RATIO_DS = tuple((-1) ** (i + 1) * (i + 1) / (i + 2)
                        for i in range(28))
# (z e^z - expm1(z)) / z^2 = sum_m (m + 1) z^m / (m + 2)!, to 1e-18 at |z| = 1
_EXPM1_RATIO_DS = tuple((m + 1) / math.factorial(m + 2) for m in range(19))


def _polyval_ds(coef_ascending, u: float) -> tuple[float, float]:
    # the polynomial and its derivative in u, by Horner's rule
    acc = dacc = 0.0
    for c in reversed(coef_ascending):
        dacc = dacc * u + acc
        acc = acc * u + c
    return acc, dacc


def _digamma(s: float, x: float = 1.0) -> float:
    """psi(s) - ln x for real s off the poles 0, -1, -2, ...

    Steps psi(s) = psi(s + 1) - 1/s up to s >= 10, where the derivative of
    the Stirling series gives psi(s) - ln s, then adds ln(s / x), through
    log1p where s and x are within a factor 2, so that nothing cancels as
    x nears s.  Against mpmath: within 4e-16 (1 + |psi(s)| + |ln x|) on
    s in [-5.5, 1e6] off the poles and x in [1e-3 |s|, 1e3 |s|].
    """
    acc = 0.0
    while s < 10.0:
        acc -= 1.0 / s
        s += 1.0
    u = 1.0 / (s * s)
    lsx = (math.log1p((s - x) / x) if 0.5 * x < s < 2.0 * x
           else math.log(s) - math.log(x))
    # _polyval(_STIRLING_DS, u) written out, as chi._fields does
    c0, c1, c2, c3, c4, c5, c6, c7 = _STIRLING_DS
    return acc + (u * (c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (
        c5 + u * (c6 + u * c7))))))) - 0.5 / s) + lsx


def _log1p_ratio(z: float) -> tuple[float, float]:
    # (ln(1 + z)/z, its derivative) for |z| <= 1/4
    return (math.log1p(z) / z if z else 1.0), _polyval(_LOG1P_RATIO_DS, z)


def _gamma_lower_series_ds(s: float, x: float, skip: int = -1):
    # _gamma_lower_series and its derivative in s, -sum (-x)^k/(k! (s+k)^2)
    total = dtotal = 0.0
    term = 1.0
    k = 0
    while True:
        if k != skip:
            u = term / (s + k)
            total += u
            dtotal -= u / (s + k)
        k += 1
        term *= -x / k
        small = 1e-17 * abs(s + k)
        if (abs(term) <= small * min(abs(total), abs((s + k) * dtotal))
                or k > 300):
            return total, dtotal


def _gamma_upper_scaled_ds(s: float, x: float) -> tuple[float, float]:
    """(H, d ln H/ds) for H = Gamma(s, x) e^x x^-s on the branches of
    specfun._gamma_upper_scaled.  Near a pole s = e - k the head is
    (-1)^k x^-s / k! G(e) with G(e) = (Gamma(1 + e) / prod_j (1 - e/j)
    - x^e) / e, written as -F mu E(e mu): F = exp(lg), lg = e phi(e) the
    logarithm of that quotient, mu = ln x - phi(e), E(z) = expm1(z)/z.
    phi, its derivative and E' are series or ratios in e, never a
    difference divided by e.  Against mpmath, within 2e-15 (1 + |d ln H|)
    on the small-x forms, the pole form at e in {0, +-1e-8, +-0.2}
    included, up to x = 1; 1e-14 up to x = 1.5, where H is a difference
    that cancels."""
    k = round(-s)
    e = s + k
    near = k >= 0 and abs(e) < _POLE_E
    if x >= _GAMMA_SERIES_X or x > _COMPLEMENT_X and not near:
        return _gamma_upper_cf_ds(s, x)
    lx = math.log(x)
    if not near:
        k = -1
        head = _xs(-s, x, math.gamma(s))
        dhead = head * _digamma(s, x)
    elif k > 170:
        head = dhead = 0.0
    else:
        acc, dacc = _polyval_ds(_LGAMMA1P, e)
        l0, dl0 = _log1p_ratio(e)
        phi = acc * e + 1.0 - _EULER_GAMMA - l0
        dphi = dacc * e + acc - dl0
        for j in range(1, k + 1):
            lj, dlj = _log1p_ratio(-e / j)
            phi += lj / j
            dphi -= dlj / (j * j)
        f = math.exp(e * phi)
        mu = lx - phi
        z = e * mu
        ez = math.expm1(z) / z if z else 1.0
        dez = (_polyval(_EXPM1_RATIO_DS, z) if abs(z) <= 1.0
               else (math.exp(z) - ez) / z)
        c = (-1) ** k / math.factorial(k) * x ** -s
        head = -c * f * mu * ez
        dhead = -lx * head - c * f * ((phi + e * dphi) * mu * ez - dphi * ez
                                      + mu * (mu - e * dphi) * dez)
    ser, dser = _gamma_lower_series_ds(s, x, k)
    return (head - ser) * math.exp(x), (dhead - dser) / (head - ser)


def _gamma_upper_cf_ds(s: float, x: float) -> tuple[float, float]:
    # (H, d ln H/ds) from _gamma_upper_cf's Lentz steps, each carrying the
    # derivative of its two running quotients (b_i has slope -1 in s, a_i
    # slope i); it stops once both the value and the slope have settled
    tiny = 1e-300
    b = x + 1.0 - s
    c, dc = 1.0 / tiny, 0.0
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = dl = dd = d  # d ln(1/b)/ds = 1/b; dd is d d/ds over d
    for i in range(1, 600):
        an = -i * (i - s)
        b += 2.0
        den = an * d + b
        dden = i * d + an * d * dd - 1.0
        if abs(den) < tiny:
            den = tiny
        dc = -1.0 + (i - an * dc / c) / c
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / den
        dd = -dden * d
        delta = d * c
        h *= delta
        step = dc / c + dd
        dl += step
        if abs(delta - 1.0) < 1e-16 and abs(step) <= 1e-16 * abs(dl):
            break
    return h, dl


def _gamma_p_series_ds(s: float, x: float) -> tuple[float, float]:
    # _gamma_p_series and its derivative in s: the k-th term
    # x^k / ((s+1) ... (s+k)) moves by minus itself times sum_j 1/(s+j)
    total = term = 1.0
    dtotal = harm = 0.0
    k = s
    while term > 1e-17 * total:
        k += 1.0
        term *= x / k
        harm += 1.0 / k
        total += term
        dtotal -= term * harm
        k += 1.0
        term *= x / k
        harm += 1.0 / k
        total += term
        dtotal -= term * harm
    return total, dtotal


def _dlog_gamma_upper_ds(s: float, x: float):
    """(Q, H, dlog) for real s and x > 0, on the branches that
    ``specfun._gamma_inc`` takes.

    Where they form the scaled H = Gamma(s, x) e^x x^-s first, Q is None
    and dlog = d ln H/ds; where they form the regularized P first (its
    power series, or Temme's expansion below x = s), H is None and
    dlog = d ln Q/ds, which stays small where Q is near 1, so that the
    large part of d/ds ln Gamma(s, x), psi(s) - ln x, can be differenced
    analytically by the caller.  Temme's expansion is differentiated
    through d eta/ds = -1/(s f(eta)), f(eta) = eta/(lambda - 1).

    Against mpmath (tests/test_specfun.py), dlog is within 5e-16 (1 +
    |dlog|) on the continued fraction and Temme's expansion, 2e-15 on the
    power series, and as ``_gamma_upper_scaled_ds`` states on its forms.
    """
    if s <= 0.0:
        h, d = _gamma_upper_scaled_ds(s, x)
        return None, h, d
    if s >= _TEMME_S and _TEMME_LO * s <= x <= _TEMME_HI * s:
        y = s * _phi(s, x)
        mu = (x - s) / s
        eta = math.copysign(math.sqrt(2.0 * y / s), mu)
        inv_f = mu / eta if eta else 1.0
        deta = -inv_f / s
        t, ts, te = _temme_sum_ds(s, eta)
        # dQ/ds over e^-y/sqrt(2 pi s), Q = erfc(eta sqrt(s/2))/2
        # + e^-y t/sqrt(2 pi s): 1/f - eta/2 from the first term; from the
        # second t (ln(lambda) - 1/(2s)) + dt/ds, as d(-y)/ds = ln(lambda)
        dq = (inv_f - 0.5 * eta + t * (math.log1p(mu) - 0.5 / s)
              + ts + te * deta)
        root = _SQRT_2PI * math.sqrt(s)
        if x < s:
            ey = math.exp(-y) / root
            q = 0.5 * math.erfc(-math.sqrt(y)) + ey * t
            return q, None, ey * dq / q
        t += 0.5 * root * _erfcx(math.sqrt(y))
        return (None, t * _gamma_star(s) / s,
                _digamma(s, s) - math.log1p(mu) + dq / t)
    if _p_first(s, x):
        series, dseries = _gamma_p_series_ds(s, x)
        dom = _dompart(s, x)
        q = 1.0 - dom * series
        return q, None, dom * (series * _digamma(s + 1.0, x) - dseries) / q
    h, d = (_gamma_upper_scaled_ds(s, x) if x < 1.0
            else _gamma_upper_cf_ds(s, x))
    return None, h, d


def _digamma_diff2(s: float) -> float:
    # f(s) = psi(s) + psi(s + 1) - 2 psi(s + 1/2) for s > 0, which is
    # -1/(4 s^2) + O(s^-3).  It is 1/s - 2 (psi(s + 1/2) - psi(s)), the
    # bracket from the derivative of Fields's expansion (chi._fields):
    # -1/(4 s w) + (4/w) sum_j j c_j w^(-2j), w = s - 1/4, at s + m >= 10
    # (from 6, as chi._fields, it was 1e-12 off); then down to s by
    # f(s) = f(s + 1) - 1/(2 s (s + 1/2) (s + 1)), all terms negative
    m = math.ceil(10.0 - s) if s < 10.0 else 0
    w = s + m - 0.25
    u = 1.0 / (w * w)
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = _FIELDS_DS
    acc = c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (
        c6 + u * (c7 + u * (c8 + u * (c9 + u * c10))))))))
    f = (4.0 * u * acc - 0.25 / (s + m)) / w
    for j in range(m - 1, -1, -1):
        t = s + j
        f -= 0.5 / (t * (t + 0.5) * (t + 1.0))
    return f


def _dlog_ratio_dn(s: float, y: float) -> float:
    # d ln(ratio)/dn for the inner ratio G(s) G(s+1) / G(s+1/2)^2, G(t) =
    # Gamma(t, y), s = n/2: (D(s) + D(s+1) - 2 D(s+1/2)) / 2 with
    # D(t) = d/dt ln Gamma(t, y), the sign of dV/dn.  Where the regularized
    # Q comes first (_dlog_gamma_upper_ds) D(t) = psi(t) + d ln Q(t), and
    # the psi part is differenced analytically; elsewhere D(t) - ln y =
    # d ln H(t).  The order s + 1 follows from s for s > 0, by
    # Q(s+1) = Q(s) + y^s e^-y / Gamma(s+1) or y H(s+1) = s H(s) + 1, sums
    # of positive terms; for s <= 0 the latter cancels and it is computed
    a = s + 0.5
    s = a - 0.5  # the orders exactly 1/2 apart, as in chi._ratio_m1
    q0, h0, d0 = _dlog_gamma_upper_ds(s, y)
    _, h1, d1 = _dlog_gamma_upper_ds(a, y)
    if h0 is None:  # Q first at s, so at s + 1/2 and s + 1 too
        dom = _dompart(s, y)
        d2 = (q0 * d0 - dom * _digamma(s + 1.0, y)) / (q0 + dom)
        return 0.5 * (_digamma_diff2(s) + d0 + d2 - 2.0 * d1)
    if h1 is None:
        d1 += _digamma(a, y)
    if s > 0.0:
        d2 = d0 + (1.0 - d0 / h0) / (s + 1.0 / h0)
    else:
        _, h2, d2 = _dlog_gamma_upper_ds(s + 1.0, y)
        if h2 is None:
            d2 += _digamma(s + 1.0, y)
    return 0.5 * (d0 + d2 - 2.0 * d1)
