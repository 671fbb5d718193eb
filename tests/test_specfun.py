import math
import warnings

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trunc_moments import _nvmx_slope, specfun
from trunc_moments.specfun import (
    exp_r2_half_xi,
    gamma_lower,
    gamma_upper,
    lambert_w0,
    xi,
)

SQRT2 = math.sqrt(2.0)


def test_xi_matches_erfc():
    for r in (-37.0, -5.0, -1.0, 0.0, 0.5, 3.0, 8.0):
        assert xi(r) == pytest.approx(math.erfc(-r / SQRT2), rel=1e-15)


def test_xi_total_mass():
    # xi(r) + xi(-r) is the full Gaussian mass
    for r in (0.0, 0.3, 2.0, 10.0):
        assert xi(r) + xi(-r) == pytest.approx(2.0, abs=1e-15)


def test_scaled_xi_deep_tail():
    # plain xi underflows near r = -40; the scaled variant must not
    got = exp_r2_half_xi(-40.0)
    want = mpmath.exp(800) * mpmath.erfc(40 / mpmath.sqrt(2))
    assert got == pytest.approx(float(want), rel=1e-14)
    assert exp_r2_half_xi(-1e6) > 0.0


def test_scaled_xi_and_xi_against_mpmath():
    # x = -r/sqrt(2) over [-26.6, 1e150], log-spaced beyond 10 (sparser past
    # 1e50, where mpmath's erfc is slow); scipy's erfcx was off by up to
    # 5.7e-14 here, for it rounds x**2 before exp
    xs = ([k / 8 for k in range(-213, 81)]
          + [10 ** (k / 4) for k in range(5, 200)]
          + [10.0 ** k for k in range(50, 151, 5)])
    with mpmath.workdps(40):
        for x in xs:
            r = -x * SQRT2
            x = mpmath.mpf(-r / SQRT2)  # the argument the functions see
            want = mpmath.erfc(x)
            assert exp_r2_half_xi(r) == pytest.approx(
                float(mpmath.exp(x * x) * want), rel=1e-15, abs=0)
            if x < 26.5:  # erfc(x) is subnormal beyond
                assert xi(r) == pytest.approx(float(want), rel=1e-15, abs=0)


def test_scaled_xi_overflow_and_nan():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert exp_r2_half_xi(40.0) == math.inf
        assert exp_r2_half_xi(1e200) == math.inf
        assert exp_r2_half_xi(-1e300) > 0.0
        assert math.isnan(exp_r2_half_xi(math.nan))
        assert math.isnan(xi(math.nan))


@given(st.floats(min_value=-30.0, max_value=8.0))
def test_scaled_xi_consistent_with_xi(r):
    assert exp_r2_half_xi(r) == pytest.approx(
        math.exp(r * r / 2.0) * xi(r), rel=1e-13)


class TestGammaUpper:
    def test_positive_s_vs_mpmath(self):
        for s, x in [(0.5, 0.1), (1.0, 3.0), (5.5, 2.0), (100.0, 120.0)]:
            assert gamma_upper(s, x) == pytest.approx(
                float(mpmath.gammainc(s, x, mpmath.inf)), rel=1e-13)

    def test_half_integer_is_erfc(self):
        for x in (0.01, 0.5, 4.0):
            assert gamma_upper(0.5, x) == pytest.approx(
                math.sqrt(math.pi) * math.erfc(math.sqrt(x)), rel=1e-13)

    @pytest.mark.parametrize("s", [-0.5, -1.5, -3.0, -6.0,
                                   # next to the poles of Gamma(s)
                                   -1e-12, -1.000000000001, -1.999999999999999])
    @pytest.mark.parametrize("x", [0.05, 0.8, 2.3, 30.0])
    def test_negative_s_vs_mpmath(self, s, x):
        want = float(mpmath.gammainc(s, x, mpmath.inf))
        assert gamma_upper(s, x) == pytest.approx(want, rel=5e-13)

    @given(st.floats(min_value=-8.0, max_value=8.0).filter(lambda s: abs(s) > 1e-6),
           st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=60)
    def test_recurrence(self, s, x):
        # Gamma(s+1, x) = s*Gamma(s, x) + x^s e^{-x}
        lhs = gamma_upper(s + 1.0, x)
        rhs = s * gamma_upper(s, x) + x ** s * math.exp(-x)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-300)

    @pytest.mark.parametrize("s,x", [(-1000.9, 0.5), (-200.0, 1.2),
                                     (-171.1, 1.0)])
    def test_far_below_zero_near_a_pole_vs_mpmath(self, s, x):
        # past k = 170 the pole term's 1/k! is below the smallest double
        with mpmath.workdps(40):
            want = mpmath.gammainc(s, x, mpmath.inf)
        tol = 1e-15 * (abs(s) + x + 20.0) * abs(want)
        assert abs(gamma_upper(s, x) - want) <= tol

    def test_power_through_logs_where_it_alone_overflows(self):
        # 0.01**-154.2 overflows; Gamma(-154.2, 0.01) is 1.6e306
        with mpmath.workdps(40):
            want = mpmath.gammainc(-154.2, 0.01, mpmath.inf)
        tol = 1e-15 * (154.2 + 0.01 + 20.0) * abs(want)
        assert abs(gamma_upper(-154.2, 0.01) - want) <= tol

    @pytest.mark.parametrize("s", [-300.0, -1000.9, -300.5])
    def test_saturates_far_below_zero(self, s):
        # mpmath gives 3.3e597, 6.2e1998 and 3.3e598; x**s raised
        # OverflowError in the pole-subtracted series (-300, -1000.9) and
        # in the lower series of the complement (-300.5)
        assert gamma_upper(s, 0.01) == math.inf

    def test_underflows_far_below_zero(self):
        # 1.4**-1000000.9 underflows: the series needs no million-term sum
        assert gamma_upper(-1000000.9, 1.4) == 0.0

    def test_lower_plus_upper(self):
        for s, x in [(0.5, 1.0), (3.0, 0.2), (7.5, 9.0)]:
            total = gamma_lower(s, x) + gamma_upper(s, x)
            assert total == pytest.approx(math.gamma(s), rel=1e-13)


@given(st.floats(min_value=0.0, max_value=1e8))
def test_lambert_w0_inverts(x):
    w = lambert_w0(x)
    assert w * math.exp(w) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_lambert_w0_edges():
    assert lambert_w0(0.0) == 0.0
    assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError):
        lambert_w0(-0.5)  # negative arguments are out of scope here


@pytest.mark.parametrize("x", [1e-300, 1e-20, 0.5, 1e8, 1e303, 1e305, 1e308])
def test_lambert_w0_against_mpmath(x):
    # the Halley iteration's denominator overflowed for x in about [1e303,
    # 1e306) and returned its seed log1p(x), 0.95% off
    w = mpmath.lambertw(x).real
    assert abs(lambert_w0(x) - w) <= 4e-16 * w


@pytest.mark.parametrize("L", [1.2, 709.0, 710.0, 1e6, 1e300, math.log(1e308)])
def test_w0_exp_solves_its_equation(L):
    # W(e^L) where e^L overflows, checked by w + ln w = L
    w = specfun._w0_exp(L)
    assert abs(w + math.log(w) - L) <= 2 * math.ulp(L)
    if L < 709.0:
        assert w == pytest.approx(lambert_w0(math.exp(L)), rel=4e-16)


# -- mpmath sweep at the tolerances the docstrings state ----------------------

_TINY = 2.2250738585072014e-308  # smallest normal double
_HUGE = 1.7976931348623157e308
SWEEP_S = [
    -20.0, -7.0, -1.0,                        # negative integers
    -12.0005, -3.0002, -0.9995, -1e-4, 1e-4,  # within 1e-3 of a pole
    -19.5, -2.5, 0.5, 2.5, 40.5, 1000.5,      # half-integers
    -0.3, 0.01, 0.2, 1.0, 3.7, 12.0, 19.9, 20.0, 80.0, 171.5, 5e3,
]
SWEEP_X = [10.0 ** (k / 2) for k in range(-16, 9)]  # 1e-8 .. 1e4


def _sweep_points(s):
    band = [abs(s) * f for f in (0.3, 0.9, 0.99, 1.0, 1.01, 1.1, 2.35)]
    return [x for x in SWEEP_X + band if 1e-8 <= x <= 1e4]


@pytest.mark.parametrize("s", SWEEP_S)
def test_incomplete_gammas_against_mpmath(s):
    with mpmath.workdps(40):
        gs = mpmath.gamma(s) if s != int(s) or s > 0 else None
        for x in _sweep_points(s):
            scale = 1e-15 * (abs(s) + x + 20.0)
            up = mpmath.gammainc(s, x, mpmath.inf)
            got = gamma_upper(s, x)
            if abs(up) >= _HUGE:
                assert got == math.inf, (s, x)
            elif abs(up) >= _TINY:
                assert abs(got - up) <= scale * abs(up), (s, x)
            if gs is None:  # gamma_lower has a pole here
                continue
            low = mpmath.gammainc(s, 0, x)
            got = gamma_lower(s, x)
            if s < 0.0:
                assert abs(got - low) <= scale * (abs(gs) + abs(up)), (s, x)
            elif low >= _HUGE:
                assert got == math.inf, (s, x)
            elif low >= _TINY:
                assert abs(got - low) <= scale * low, (s, x)


# -- derivatives in the order -------------------------------------------------

@pytest.mark.parametrize("s", [-5.3, -2.5, -0.7, 0.003, 0.128, 0.5, 0.9, 1.0,
                               1.2, 1.4616, 3.3, 9.99, 10.0, 57.5, 5e3, 1e6])
def test_digamma_against_mpmath(s):
    for f in (1e-3, 0.1, 0.6, 0.999, 1.0, 1.5, 2.0, 10.0, 1e3):
        x = abs(s) * f
        with mpmath.workdps(30):
            want = mpmath.digamma(s) - mpmath.log(x)
            size = 1 + abs(mpmath.digamma(s)) + abs(mpmath.log(x))
        assert abs(_nvmx_slope._digamma(s, x) - want) <= 4e-16 * size, (s, x)


# (s, x, form, tolerance on d ln H or d ln Q relative to 1 + its size): one
# point or more on every branch of _gamma_inc and _gamma_upper_scaled
_DS_BRANCHES = [
    (5.45, 2.42, "Q", 2e-15), (0.3, 0.01, "Q", 2e-15),  # P series
    (15.0, 3.0, "Q", 2e-15), (0.1, 1e-5, "Q", 2e-15), (0.6, 0.3, "Q", 2e-15),
    (1.2, 1.3, "H", 5e-16), (0.5, 5.0, "H", 5e-16),  # continued fraction
    (-2.5, 3.0, "H", 5e-16), (-0.3, 40.0, "H", 5e-16),
    (5241.0, 5000.0, "Q", 5e-16), (100.0, 60.0, "Q", 5e-16),  # Temme
    (43.0, 90.0, "H", 5e-16), (1000.0, 1010.0, "H", 5e-16),
    (1000.0, 1000.0, "H", 5e-16),
    (0.3, 0.3, "H", 2e-15), (1.1, 0.9, "H", 2e-15),  # small x
    (-0.4, 0.01, "H", 2e-15), (-1.7, 0.5, "H", 2e-15),
    (1e-8, 1e-3, "H", 1e-14), (-1e-8, 1e-3, "H", 1e-14),  # the pole form
    (-1.2, 1e-3, "H", 1e-14),
] + [(e - k, x, "H", 1e-14)
     for e in (0.0, 1e-8, -1e-8, 0.2, -0.2) for k in (0, 1, 2)
     for x in (0.1, 0.7, 1.2)]


@pytest.mark.parametrize("s,x,form,tol", _DS_BRANCHES)
def test_dlog_gamma_upper_ds_against_mpmath(s, x, form, tol):
    q, h, dlog = _nvmx_slope._dlog_gamma_upper_ds(s, x)
    assert (h is None) == (form == "Q")
    with mpmath.workdps(40):
        if form == "Q":
            want = mpmath.diff(lambda t: mpmath.log(
                mpmath.gammainc(t, x, regularized=True)), s)
            assert q == pytest.approx(
                float(mpmath.gammainc(s, x, regularized=True)), rel=1e-14)
        else:
            want = mpmath.diff(lambda t: mpmath.log(mpmath.gammainc(t, x))
                               - t * mpmath.log(x), s)
            want_h = mpmath.gammainc(s, x) * mpmath.exp(x) / mpmath.mpf(x) ** s
            assert h == pytest.approx(float(want_h), rel=1e-13)
    assert abs(dlog - want) <= tol * (1 + abs(want)), (s, x, float(want))
