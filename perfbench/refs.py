"""mpmath references that the benchmark checks the program's outputs against.

Each function takes plain floats (the program's printed or returned
parameters) and evaluates the quantity from its definition at high
precision, by a route that shares no code with the package.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30


def _mills(r):
    """t = phi(r)/Phi(r) for a Gaussian truncated below at offset r."""
    return mp.sqrt(2 / mp.pi) * mp.exp(-r * r / 2) / mp.erfc(-r / mp.sqrt(2))


def tg_moments(mu: float, sigma: float, a: float, side: str = "left"):
    """Mean and variance of N(mu, sigma^2) restricted to x >= a (left) or
    x <= a (right, by reflection about a)."""
    mu, sigma, a = mp.mpf(mu), mp.mpf(sigma), mp.mpf(a)
    if side == "right":
        mu = 2 * a - mu
    r = (mu - a) / sigma
    with mp.workdps(40):
        t = _mills(r)
        mean = mu + sigma * t
        var = sigma * sigma * (1 - r * t - t * t)
    return (2 * a - mean if side == "right" else mean), var


def _upper_gamma(s, y):
    """Gamma(s, y); for s a positive multiple of 1/2 by the upward recurrence
    Gamma(s+1, y) = s Gamma(s, y) + y^s e^-y from Gamma(1/2, y) or Gamma(1, y),
    which is exact and much faster than the general routine."""
    if mp.isinf(y):
        return mp.zero
    k = 2 * s
    if k != int(k) or k < 1:
        return mp.gammainc(s, y)
    t, g = (mp.mpf(1) / 2, mp.sqrt(mp.pi) * mp.erfc(mp.sqrt(y))) if int(k) % 2 else \
        (mp.mpf(1), mp.exp(-y))
    while t < s:
        g = t * g + y ** t * mp.exp(-y)
        t += 1
    return g


def _gamma_mass(kind: str, s, y1, y2):
    if kind == "inner":
        return _upper_gamma(s, y1)
    if kind == "outer":
        return mp.gamma(s) - _upper_gamma(s, y2)
    return _upper_gamma(s, y1) - _upper_gamma(s, y2)


def chi_moments(sigma: float, n: float, lower: float, upper: float, kind: str):
    """Mean and variance of sigma*sqrt(chi2_n) restricted to [lower, upper]."""
    sigma, n = mp.mpf(sigma), mp.mpf(n)
    y1 = mp.mpf(lower) ** 2 / (2 * sigma ** 2)
    y2 = mp.inf if math.isinf(upper) else mp.mpf(upper) ** 2 / (2 * sigma ** 2)
    g0, g1, g2 = (_gamma_mass(kind, (n + k) / 2, y1, y2) for k in (0, 1, 2))
    mean = mp.sqrt(2) * sigma * g1 / g0
    return mean, 2 * sigma ** 2 * g2 / g0 - mean * mean


def chi_vhat(r: float, n):
    """Inner-truncation variance at unit mean, as a function of |r| and n."""
    y = mp.mpf(r) ** 2 / 2
    g = [mp.gammainc((n + k) / 2, y) for k in (0, 1, 2)]
    return g[0] * g[2] / (g[1] * g[1]) - 1


def nvmx(r: float, n_guess: float):
    """Dimensionality that maximizes ``chi_vhat`` at |r|, and the maximum."""
    n = mp.findroot(lambda m: mp.diff(lambda x: chi_vhat(r, x), m), mp.mpf(n_guess))
    return n, chi_vhat(r, n)


def is_local_max(r: float, n: float, rel_step: float = 1e-4) -> bool:
    h = rel_step * max(1.0, abs(n))
    mid = chi_vhat(r, mp.mpf(n))
    return chi_vhat(r, mp.mpf(n) - h) <= mid and chi_vhat(r, mp.mpf(n) + h) <= mid


def lognormal_back(mu: float, sigma: float, a: float):
    """Mean and variance of Y = exp(X), X ~ N(mu, sigma^2) restricted to x >= a."""
    mu, sigma, a = mp.mpf(mu), mp.mpf(sigma), mp.mpf(a)
    r = (mu - a) / sigma

    def tail(z):
        return mp.erfc(-z / mp.sqrt(2))

    with mp.workdps(40):
        m1 = mp.exp(sigma ** 2 / 2 + mu) * tail(r + sigma) / tail(r)
        m2 = mp.exp(2 * sigma ** 2 + 2 * mu) * tail(r + 2 * sigma) / tail(r)
        return m1, m2 - m1 * m1


# -- plot-data columns at unit mean and zero cutoff ---------------------------
# These take the working precision that ``plot_row`` sets; a function handed
# to mp.diff must not lower it, or the difference steps round away.

def _q(r):
    t = _mills(r)
    return 1 - r * t - t * t


def vhat(r):
    return _q(r) / (r + _mills(r)) ** 2


def skew_kurt(r):
    """Skewness and kurtosis from the raw-moment recurrence of the
    standardized truncated variable z >= -r."""
    t = _mills(r)
    m = [mp.mpf(1), t]
    for k in range(2, 5):
        m.append((k - 1) * m[k - 2] + (-r) ** (k - 1) * t)
    c2 = m[2] - m[1] ** 2
    c3 = m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
    c4 = m[4] - 4 * m[1] * m[3] + 6 * m[1] ** 2 * m[2] - 3 * m[1] ** 4
    return c3 / c2 ** 1.5, c4 / c2 ** 2


def slope_form1(r):
    """d sigma / d mu along a level curve of Var = sigma^2 Q(r)."""
    dq = mp.diff(_q, r)
    return dq / (r * dq - 2 * _q(r))


def vmax_fixed_n(n):
    return n / 2 * (mp.gamma(n / 2) / mp.gamma((n + 1) / 2)) ** 2 - 1


def nvmx_fit(r):
    """The paper's fitted shortcuts for n_vmx and v_max (closed forms)."""
    c1, c2, c3 = (mp.mpf("0.355590614404546"), mp.mpf("2.616552453455175"),
                  mp.mpf("0.087938290974657"))
    d1, d2, d3 = (mp.mpf("0.005395899517140"), mp.mpf("0.044337051307607"),
                  mp.mpf("1.360279573341640"))
    n = r * r + c1 * r ** 1.5 + c2 * r + c3 * mp.sqrt(r) - 1
    base = 2 * d1 / (mp.pi - 2) + 1
    return n, d1 / (base * mp.exp(d2 * r ** d3) - 1)


def plot_row(figure: str, x: float, n_guess: float | None = None) -> list:
    """Reference values of the data columns of one plot-data row."""
    with mp.workdps(70):
        x = mp.mpf(x)
        if figure == "var-vs-r":
            return [vhat(x)]
        if figure == "dvar-vs-r":
            return [mp.diff(vhat, x)]
        if figure == "kurtosis":
            return list(skew_kurt(x))
        if figure == "slope-form1":
            return [slope_form1(x)]
        if figure == "vmax-vs-n":
            return [vmax_fixed_n(x)]
    if figure == "nvmx-vs-r":
        n_fit, v_fit = nvmx_fit(x)
        n_star, v_star = nvmx(x, n_guess)
        return [n_fit, n_star, v_star, v_fit]
    raise ValueError(f"no reference for figure {figure!r}")
