import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from trunc_moments import _nvmx_slope, chi, utgd
from trunc_moments.chi import (
    ChiKind,
    ScaledChiSpec,
    chi_calibrate,
    chi_density,
    chi_limits,
    chi_raw_moment,
    chi_sigma_from_mean,
    chi_var_form1,
    chi_var_form2,
    double_sigma,
    nvmx_approx,
    nvmx_search,
    vmax_fixed_n,
    vmax_fixed_r_approx,
)


# the one message of every outer entry point at n <= 0
OUTER_REFUSAL = (r"^outer truncation needs n > 0: at n = \S+ the mass on "
                 r"\[0, cutoff\] diverges at the origin$")


def mp_raw_moment(sigma, n, y1, y2, k, kind, dps=50):
    """Reference moment straight from the radial-density integral."""
    with mpmath.workdps(dps):
        s_, n_ = mpmath.mpf(sigma), mpmath.mpf(n)
        lo = mpmath.sqrt(2 * mpmath.mpf(y1)) * s_
        hi = mpmath.sqrt(2 * mpmath.mpf(y2)) * s_ if math.isfinite(y2) \
            else mpmath.inf
        if kind is ChiKind.INNER:
            span = [lo, mpmath.inf] if lo > 0 else [0, s_, mpmath.inf]
        elif kind is ChiKind.OUTER:
            span = [0, hi]
        else:
            span = [lo, hi]

        def w(R):
            return R ** (n_ - 1) * mpmath.exp(-R ** 2 / (2 * s_ ** 2))

        num = mpmath.quad(lambda R: R ** k * w(R), span)
        return float(num / mpmath.quad(w, span))


def mp_slope(n, y):
    """d ln(ratio)/dn of the inner ratio Gamma(s, y) Gamma(s+1, y) /
    Gamma(s+1/2, y)^2, s = n/2, by mpmath's derivative in the order."""
    def D(t):
        return mpmath.diff(lambda u: mpmath.log(mpmath.gammainc(u, y)), t)

    s = n / 2
    return (D(s) + D(s + 1) - 2 * D(s + mpmath.mpf(1) / 2)) / 2


def mp_nvmx(r):
    """n_vmx at |r| by mpmath, bracketed around the fit independently of
    nvmx_search: within a factor 2 in n + 1 below |r| = 1, within 3% above,
    where the fit is 1.3% off at most."""
    with mpmath.workdps(40):
        y = mpmath.mpf(r) ** 2 / 2
        m = nvmx_approx(r) + 1.0
        a, b = ((1e-5, 1e-2) if r < 1e-3 else (m / 2, 2 * m) if r < 1
                else (0.97 * m, 1.03 * m))
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        assert mp_slope(a - 1, y) > 0 > mp_slope(b - 1, y)
        root = mpmath.findroot(lambda m: mp_slope(m - 1, y), (a, b),
                               solver="illinois")
        return float(root - 1)


class TestRawMoments:
    def test_rayleigh(self):
        spec = ScaledChiSpec(sigma=1.0, n=2.0)
        assert chi_raw_moment(spec, 1) == pytest.approx(
            math.sqrt(math.pi / 2.0), rel=1e-14)
        assert chi_raw_moment(spec, 2) == pytest.approx(2.0, rel=1e-14)
        assert chi_var_form1(spec) == pytest.approx(
            2.0 - math.pi / 2.0, rel=1e-13)

    def test_maxwell_mean(self):
        spec = ScaledChiSpec(sigma=1.0, n=3.0)
        assert chi_raw_moment(spec, 1) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)

    @pytest.mark.parametrize("kind,n,lo,hi", [
        (ChiKind.INNER, 2.0, 0.9, math.inf),
        (ChiKind.INNER, 0.5, 1.3, math.inf),
        (ChiKind.INNER, -3.0, 0.7, math.inf),
        (ChiKind.OUTER, 3.0, 0.0, 1.1),
        (ChiKind.DOUBLE, 2.5, 0.4, 1.6),
    ])
    def test_vs_mpmath(self, kind, n, lo, hi):
        spec = ScaledChiSpec(1.1, n, lower=lo, upper=hi, kind=kind)
        for k in (1, 2):
            want = mp_raw_moment(1.1, n, spec.y1, spec.y2, k, kind)
            assert chi_raw_moment(spec, k) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [1e-310, 5e-324])
    def test_untruncated_at_subnormal_n(self, n):
        # Gamma(n/2) in the Wallis ratio overflowed: OverflowError at 1e-310.
        # E[R^k] = 2^(k/2) Gamma(n/2 + k/2) / Gamma(n/2) is about n there, so
        # it is held to a few units of the subnormal spacing
        for k in (1, 2, 3):
            with mpmath.workdps(50):
                s = mpmath.mpf(n) / 2
                want = float(mpmath.sqrt(2) ** k * mpmath.gamma(s + k / 2)
                             / mpmath.gamma(s))
            got = chi_raw_moment(ScaledChiSpec(1.0, n), k)
            assert abs(got - want) <= 4 * math.ulp(0.0)

    def test_deep_inner_log_path(self):
        # r = 50: the plain gamma ratio underflows; the log route must hold
        spec = ScaledChiSpec(1.0, 3.0, lower=50.0)
        m1 = chi_raw_moment(spec, 1)
        assert 50.0 < m1 < 50.1  # mean hugs the cutoff, exponential-tail style
        assert chi_var_form1(spec) > 0.0

    def test_outer_negative_n_is_refused(self):
        # the mass on [0, cutoff] diverges at the origin from n = 0 down;
        # the former opt-in continuation to n <= 0 is gone.  n/2 rounds to
        # 0 at the smallest subnormal n, where chi_var_form2 read negative
        # outer variances
        for n in (0.0, -0.5, -1.0, -2.0, -1e300, math.nan, 5e-324):
            with pytest.raises(ValueError, match=OUTER_REFUSAL) as exc:
                ScaledChiSpec(1.0, n, upper=1.0, kind=ChiKind.OUTER)
            assert "extended" not in str(exc.value)
        assert ScaledChiSpec._fields == ("sigma", "n", "lower", "upper",
                                         "kind")
        with pytest.raises(TypeError):
            ScaledChiSpec(1.0, 1.0, 0.0, 1.0, ChiKind.OUTER, True)


class TestDensity:
    @pytest.mark.parametrize("spec", [
        ScaledChiSpec(1.3, 2.0, lower=0.5),
        ScaledChiSpec(0.8, 200.0),  # sharp peak: log-space branch
        ScaledChiSpec(1.0, 3.0, upper=2.0, kind=ChiKind.OUTER),
    ])
    def test_normalizes(self, spec):
        split = ()
        if spec.n > 50:
            split = (spec.sigma * math.sqrt(spec.n),)
        hi = spec.upper if math.isfinite(spec.upper) else math.inf
        est = oracle.quad_moment(lambda R: chi_density(spec, R),
                                 (spec.lower, hi), k=0, split=split)
        assert est.value == pytest.approx(1.0, rel=1e-10)

    def test_zero_outside_support(self):
        spec = ScaledChiSpec(1.0, 2.0, lower=1.0)
        assert chi_density(spec, 0.5) == 0.0

    @pytest.mark.parametrize("n, lower, R", [
        (3.0, 40.0, 40.4),     # Gamma(1.5, 800) underflows: ZeroDivisionError
        (-40.0, 1e-8, 1.5e-8),  # Gamma(-20, 5e-17) overflows: read 0.0
        (5.0, 40.0, 40.2), (2000.0, 10.0, 45.0), (-3.0, 0.7, 1.2),
    ])
    def test_inner_normalizer_in_log_space(self, n, lower, R):
        with mpmath.workdps(40):
            y = mpmath.mpf(lower) ** 2 / 2
            z = mpmath.mpf(R) / mpmath.sqrt(2)
            want = (2 * z ** (n - 1) * mpmath.exp(-z * z)
                    / (mpmath.sqrt(2) * mpmath.gammainc(mpmath.mpf(n) / 2, y)))
        # ln z^(n-1) e^(-z^2) of size 800 is rounded before its exp
        got = chi_density(ScaledChiSpec(1.0, n, lower=lower), R)
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)


    @pytest.mark.parametrize("n", [1.0, 3.0])
    def test_beyond_the_double_range_reads_inf(self, n):
        # about 1/sigma at R = sigma: OverflowError at sigma = 1e-310
        assert chi_density(ScaledChiSpec(1e-310, n), 1e-310) == math.inf
        # in range the density still scales as 1/sigma
        got = chi_density(ScaledChiSpec(1e-300, n), 1e-300) * 1e-300
        assert got == pytest.approx(chi_density(ScaledChiSpec(1.0, n), 1.0),
                                    rel=1e-13)

    def test_untruncated_where_half_n_rounds_to_zero(self):
        # n/2 of the smallest subnormal is 0: the mass Gamma(n/2) overflows
        # and sits at the origin.  Read a gamma-pole error of the outer
        # continuation, which the untruncated support took
        spec = ScaledChiSpec(0.7, 5e-324)
        assert chi_density(spec, 0.0) == math.inf
        assert chi_density(spec, 0.5) == 0.0
        assert chi_raw_moment(spec, 1) == 0.0


class TestSigmaAndForms:
    def test_printed_grid_cell(self):
        # n=2, |r|=1 with unit mean
        sigma = chi_sigma_from_mean(1.0, 1.0, 2.0)
        assert sigma == pytest.approx(0.60398, abs=5e-6)
        assert chi_var_form2(1.0, 1.0, 2.0) == pytest.approx(0.09438, abs=5e-6)

    def test_velocity_example(self):
        assert chi_sigma_from_mean(1000.0, 2.2, 11.0) == pytest.approx(
            300.6047554, abs=5e-7 * 300)
        assert chi_var_form2(1000.0, 2.2, 11.0) == pytest.approx(
            36227.76857, rel=1e-9)
        assert chi_var_form2(1000.0, 2.2, 10.0) == pytest.approx(
            35974.94466, rel=1e-9)

    @given(st.floats(min_value=0.05, max_value=4.0),
           st.floats(min_value=-5.0, max_value=8.0).filter(
               lambda n: abs(n) > 0.01),  # n = 0 is a gamma pole
           st.sampled_from([ChiKind.INNER, ChiKind.OUTER]))
    @settings(max_examples=60, deadline=None)
    # one ulp above n = -5, Gamma((n+1)/2) sits next to its pole at -2
    @example(r_abs=0.05, n=-4.999999999999999, kind=ChiKind.INNER)
    @example(r_abs=0.1, n=-2.0000000000001, kind=ChiKind.INNER)
    def test_form_congruence(self, r_abs, n, kind):
        if kind is ChiKind.OUTER and n < 0.05:
            return  # outer mass collapses as n -> 0; covered by the opt-in
        sigma = chi_sigma_from_mean(1.0, r_abs, n, kind)
        a = r_abs * sigma
        spec = (ScaledChiSpec(sigma, n, lower=a) if kind is ChiKind.INNER
                else ScaledChiSpec(sigma, n, upper=a, kind=kind))
        v1 = chi_var_form1(spec)
        v2 = chi_var_form2(1.0, r_abs, n, kind)
        assert v2 == pytest.approx(v1, rel=1e-9)

    def test_deep_inner_form2(self):
        # Form II must survive where both gammas underflow
        v = chi_var_form2(1.0, 50.0, 3.0)
        assert 0.0 < v < 1e-3

    @pytest.mark.parametrize("r_abs, n", [
        (500.0, 2.5e5),   # n = r^2: expm1 of three logs was 5.9e-4 off here
        (500.0, 3.0),     # deep tail, V near M^2/r^4
        (10.0, 137.0),    # the variance maximum
        (2.2, 0.5), (0.05, 1e-3), (30.0, 720.0), (200.0, 4.1e4),
    ])
    def test_inner_form2_against_mpmath(self, r_abs, n):
        # the docstring's bound: absolute error at most 2e-14 (M^2 + V)
        M = 3.0
        with mpmath.workdps(50):
            y = mpmath.mpf(r_abs) ** 2 / 2
            g = [mpmath.gammainc(mpmath.mpf(n + k) / 2, y) for k in (0, 1, 2)]
            want = M * M * (g[0] * g[2] / (g[1] * g[1]) - 1)
        got = chi_var_form2(M, r_abs, n)
        assert abs(got - want) <= 2e-14 * (M * M + want)


    @pytest.mark.parametrize("r_abs, n", [
        (500.0, 2.5e5),  # exp of two log-gammas of size 1.5e6: 8.3e-11 off
        (5.0, 1e4),      # Gamma(n/2) overflowed both masses: nan
        (1000.0, 0.5), (30.0, 3.0), (0.0, 1e6),
    ])
    def test_inner_sigma_and_moments_against_mpmath(self, r_abs, n):
        # the docstrings' bound: relative error at most 2e-15
        with mpmath.workdps(50):
            y = mpmath.mpf(r_abs) ** 2 / 2
            g = [mpmath.gammainc(mpmath.mpf(n + k) / 2, y) for k in range(4)]
            sigma = g[0] / (mpmath.sqrt(2) * g[1])
            moments = [mpmath.sqrt(2) ** k * g[k] / g[0] for k in (1, 2, 3)]
        assert chi_sigma_from_mean(1.0, r_abs, n) == pytest.approx(
            float(sigma), rel=2e-15)
        spec = ScaledChiSpec(1.0, n, lower=r_abs)
        for k, want in zip((1, 2, 3), moments):
            assert chi_raw_moment(spec, k) == pytest.approx(float(want),
                                                            rel=2e-15)

    @pytest.mark.parametrize("n", [1e-20, 1.2e-38, 1e-310, 5e-324])
    @pytest.mark.parametrize("r_abs", [0.01, 1.0, 1.6, 40.0, 1000.0])
    def test_inner_at_tiny_n_takes_the_limit(self, r_abs, n):
        # s + 1/2 rounds to 1/2 below n ~ 1e-16, which set s to 0, a pole
        # of the small-y gamma form: chi_var_form2(1, 1, 1e-20) raised
        # ZeroDivisionError, and subnormal n overflowed Gamma(n/2)
        with mpmath.workdps(50):
            y = mpmath.mpf(r_abs) ** 2 / 2
            g = [mpmath.gammainc(mpmath.mpf(k) / 2, y) for k in range(4)]
            var = g[0] * g[2] / (g[1] * g[1]) - 1
            moments = [mpmath.sqrt(2) ** k * g[k] / g[0] for k in (1, 2, 3)]
        assert abs(chi_var_form2(1.0, r_abs, n) - var) <= 2e-14 * (1 + var)
        assert chi_sigma_from_mean(1.0, r_abs, n) == pytest.approx(
            float(1 / moments[0]), rel=1e-14)
        spec = ScaledChiSpec(1.0, n, lower=r_abs)
        for k, want in zip((1, 2, 3), moments):
            assert chi_raw_moment(spec, k) == pytest.approx(float(want),
                                                            rel=1e-14)


    def test_cutoff_whose_ratio_to_the_order_underflows(self):
        # at |r| = 3.2e-161, y = |r|**2/2 is subnormal and y/s underflows
        # to 0 at s = 500, so Temme's exponent read log(0) and both raised
        # 'math domain error'; the truncation is negligible there
        v = chi_var_form2(1.0, 3.2e-161, 1000.0)
        assert v == pytest.approx(vmax_fixed_n(1.0, 1000.0), rel=0.0,
                                  abs=2e-14 * (1.0 + v))
        with mpmath.workdps(30):
            want = float(mpmath.sqrt(2) * mpmath.gamma(500.5)
                         / mpmath.gamma(500))
        spec = ScaledChiSpec(1.0, 1000.0, lower=3.2e-161)
        assert chi_raw_moment(spec, 1) == pytest.approx(want, rel=1e-14)

def mp_inner(n, r, orders=(1, 2, 3)):
    """Inner variance, sigma and the raw moments of ``orders`` at M = 1 from
    the upper incomplete gammas."""
    with mpmath.workdps(40):
        y = mpmath.mpf(r) ** 2 / 2
        g = {k: mpmath.gammainc((mpmath.mpf(n) + k) / 2, y)
             for k in {0, 1, 2, *orders}}
        var = g[0] * g[2] / (g[1] * g[1]) - 1
        sigma = g[0] / (mpmath.sqrt(2) * g[1])
        moments = [mpmath.sqrt(2) ** k * g[k] / g[0] for k in orders]
        return float(var), float(sigma), [float(m) for m in moments]


class TestInnerAtNonpositiveN:
    # raw incomplete gammas, divided: NaN at |r| = 1e-10 from n = -35 on,
    # ZeroDivisionError from |r| ~ 38, and a negative variance between
    @pytest.mark.parametrize("n", [-40.0, -35.5, -27.3, -20.0, -14.45, -10.0,
                                   -7.2, -3.0, -2.0, -1.5, -1.0, -0.5, -0.3,
                                   -1e-3, 0.0])
    def test_against_mpmath(self, n):
        # the docstrings' bounds for n in [-40, 0]
        for r_abs in (1e-10, 1e-5, 0.01, 0.2, 0.9, 1.65, 5.0, 20.0, 38.0,
                      64.0, 300.0, 1000.0):
            var, sigma, moments = mp_inner(n, r_abs)
            got = chi_var_form2(1.0, r_abs, n)
            assert abs(got - var) <= 2e-14 * (1.0 + var), (n, r_abs)
            assert chi_sigma_from_mean(1.0, r_abs, n) == pytest.approx(
                sigma, rel=1e-14, abs=0.0)
            spec = ScaledChiSpec(1.0, n, lower=r_abs)
            for k, want in zip((1, 2, 3), moments):
                assert chi_raw_moment(spec, k) == pytest.approx(
                    want, rel=2e-14, abs=0.0)

    def test_variance_between_minus_one_and_zero(self):
        # where n_vmx lies for |r| < 0.29: H(s + 1/2) and H(s + 1) have
        # positive orders there and come from the regularized kernel
        for n in [-1.0 + 0.05 * i for i in range(21)] + [-0.999, -1e-8]:
            for r_abs in (1e-10, 1e-3, 0.05, 0.2, 0.29, 1.0, 3.0):
                var = mp_inner(n, r_abs, ())[0]
                got = chi_var_form2(1.0, r_abs, n)
                assert abs(got - var) <= 2e-14 * (1.0 + var), (n, r_abs)

    @pytest.mark.parametrize("r_abs, n", [
        (1e-10, -35.0),  # NaN
        (38.0, -10.0), (60.0, -0.5),  # ZeroDivisionError
        (38.0, -3.0),  # -6.5e-5
    ])
    def test_former_failures(self, r_abs, n):
        var = mp_inner(n, r_abs)[0]
        got = chi_var_form2(1.0, r_abs, n)
        assert got > 0.0
        assert abs(got - var) <= 2e-14 * (1.0 + var)

    @pytest.mark.parametrize("k", [4, 5, 12, 40])
    @pytest.mark.parametrize("n", [-10.0, -3.0, -0.7, 0.0])
    def test_moments_past_order_three(self, n, k):
        # orders above 3/2 step up from one in (1/2, 3/2]: the continued
        # fraction alone is 1.0 off at order 20 and |r| = 1.7
        for r_abs in (1e-10, 0.9, 1.7, 30.0):
            want = mp_inner(n, r_abs, (k,))[2][0]
            got = chi_raw_moment(ScaledChiSpec(1.0, n, lower=r_abs), k)
            assert got == pytest.approx(want, rel=2e-14, abs=0.0)

    @pytest.mark.parametrize("n", [-10.0, -0.5, 0.0, 0.3, 3.0])
    def test_never_takes_raw_masses(self, n):
        # the raw gamma_lower served only the outer continuation to n <= 0,
        # which is gone: inner truncation and windows take the scaled
        # kernel at every n, and chi no longer imports it
        assert not hasattr(chi, "gamma_lower")
        assert not hasattr(chi, "_lower_mass")
        for r_abs in (1e-10, 0.5, 5.0, 38.0):
            spec = ScaledChiSpec(1.0, n, lower=r_abs)
            window = ScaledChiSpec(1.0, n, lower=r_abs, upper=1.5 * r_abs + 1,
                                   kind=ChiKind.DOUBLE)
            got = [chi_raw_moment(s, k) for s in (spec, window)
                   for k in (1, 2, 3)]
            got += [chi_sigma_from_mean(1.0, r_abs, n),
                    chi_var_form2(1.0, r_abs, n),
                    chi_density(spec, 1.5 * r_abs),
                    chi_density(window, 1.2 * r_abs + 0.5)]
            assert all(0.0 <= v < math.inf for v in got), got

    @pytest.mark.parametrize("n", [0.0, -0.5, -3.0])
    @pytest.mark.parametrize("r_abs", [0.0, 1e-200])
    def test_sigma_names_the_divergence(self, n, r_abs):
        # leaked "gamma_upper(s, 0) diverges for s <= 0"; |r|^2/2 is 0 at
        # |r| = 1e-200 too
        with pytest.raises(ValueError, match=r"^the inner-truncation mass at "
                           r"n = .* <= 0 diverges as \|r\| -> 0"):
            chi_sigma_from_mean(1.0, r_abs, n)
        with pytest.raises(ValueError, match="infinite mass at the origin"):
            ScaledChiSpec(1.0, n, lower=0.0)


def mp_outer(n, r):
    """Outer variance, sigma and raw moments 1-3 at M = 1 from the lower
    incomplete gammas."""
    with mpmath.workdps(50):
        y = mpmath.mpf(r) ** 2 / 2
        g = [mpmath.gammainc((mpmath.mpf(n) + k) / 2, 0, y) for k in range(4)]
        var = g[0] * g[2] / (g[1] * g[1]) - 1
        sigma = g[0] / (mpmath.sqrt(2) * g[1])
        moments = [mpmath.sqrt(2) ** k * g[k] / g[0] for k in (1, 2, 3)]
        return float(var), float(sigma), [float(m) for m in moments]


class TestOuter:
    @pytest.mark.parametrize("n", [31.0, 400.0, 1e4])
    @pytest.mark.parametrize("r_abs", [1e-10, 0.1, 5.0, 30.0])
    def test_against_mpmath(self, r_abs, n):
        # the raw lower gammas underflowed: from n = 31 chi_var_form2 raised
        # ZeroDivisionError at |r| = 1e-10, from n = 400 already at 0.1.
        # The bounds are the docstrings'
        var, sigma, moments = mp_outer(n, r_abs)
        got = chi_var_form2(1.0, r_abs, n, ChiKind.OUTER)
        assert abs(got - var) <= 2e-14 * (1.0 + var)
        assert chi_sigma_from_mean(1.0, r_abs, n, ChiKind.OUTER) == \
            pytest.approx(sigma, rel=2e-15, abs=0.0)
        spec = ScaledChiSpec(1.0, n, upper=r_abs, kind=ChiKind.OUTER)
        for k, want in zip((1, 2, 3), moments):
            assert chi_raw_moment(spec, k) == pytest.approx(want, rel=2e-15,
                                                            abs=0.0)

    @pytest.mark.parametrize("n", [1e-20, 0.3, 3.0])
    def test_small_n_against_mpmath(self, n):
        # below n = 1 the orders are not moved to keep them 1/2 apart: the
        # variance grows like 1/n, so moving n/2 by an ulp of 1/2 would cost
        # relative digits
        for r_abs in (1e-10, 1.0, 4.0):
            var, sigma, moments = mp_outer(n, r_abs)
            got = chi_var_form2(1.0, r_abs, n, ChiKind.OUTER)
            assert abs(got - var) <= 2e-14 * (1.0 + var)
            assert chi_sigma_from_mean(1.0, r_abs, n, ChiKind.OUTER) == \
                pytest.approx(sigma, rel=2e-15, abs=0.0)

    def test_limits_at_the_ends(self):
        # r = 0 divided 0 by 0; past |r| ~ 1.9e154 r^2/2 is inf, where the
        # lower gammas are the complete ones
        for r_abs, which in ((0.0, "r_to_0"), (1e200, "r_to_inf")):
            var, sigma, _ = chi_limits(3.0, ChiKind.OUTER, which)
            assert chi_var_form2(1.0, r_abs, 3.0, ChiKind.OUTER) == \
                pytest.approx(var, rel=1e-15, abs=0.0)
        assert chi_sigma_from_mean(1.0, 1e200, 3.0, ChiKind.OUTER) == \
            pytest.approx(sigma, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [3.0, 0.5, -0.5, -1.0, -1.5, -2.0, -3.0,
                                   -4.0])
    def test_r_to_0_takes_the_limit(self, n):
        # raised a bare ZeroDivisionError at n = 3 and -1.5: the support
        # [0, 0] holds no mass.  The answer is chi_limits', or at n <= 0
        # the one refusal of outer truncation
        calls = (lambda: chi_var_form2(2.0, 0.0, n, ChiKind.OUTER),
                 lambda: chi_sigma_from_mean(2.0, 0.0, n, ChiKind.OUTER),
                 lambda: chi_limits(n, ChiKind.OUTER, "r_to_0", 2.0))
        if n <= 0.0:
            for f in calls:
                with pytest.raises(ValueError, match=OUTER_REFUSAL):
                    f()
            return
        limits = calls[2]()
        assert limits[1] == math.inf
        for f, want in zip(calls[:2], limits):
            assert f() == want

    @pytest.mark.parametrize("n", [31.0, 400.0, 1e4])
    @pytest.mark.parametrize("frac", [0.01, 0.5, 0.99])
    def test_calibrate_roundtrip(self, n, frac):
        # raised "no offset |r| ... in [1e-10, 1]" for every target from
        # n = 31 on
        lo = chi_limits(n, ChiKind.OUTER, "r_to_0")[0]
        hi = chi_limits(n, ChiKind.OUTER, "r_to_inf")[0]
        target = lo + frac * (hi - lo)
        r, sigma, a = chi_calibrate(1.0, target, n, ChiKind.OUTER)
        assert a == pytest.approx(r * sigma, rel=1e-15)
        assert chi_var_form2(1.0, r, n, ChiKind.OUTER) == pytest.approx(
            target, rel=1e-10)
        spec = ScaledChiSpec(sigma, n, upper=a, kind=ChiKind.OUTER)
        assert chi_raw_moment(spec, 1) == pytest.approx(1.0, rel=1e-13)


def mp_window_ratio(n, y1, y2, k, dps=50):
    """W(s + k/2) / W(s), W(t) = Gamma(t, y1) - Gamma(t, y2) and s = n/2,
    from two upper gammas, or below the bulk (y2 < t) two lower ones: the
    pair that cancels least.  gammainc(t, y1, y2) itself raises
    NotImplementedError at negative integer t."""
    with mpmath.workdps(dps):
        a, b = mpmath.mpf(y1), mpmath.mpf(y2)

        def w(t):
            if 0 < b < t:
                return mpmath.gammainc(t, 0, b) - mpmath.gammainc(t, 0, a)
            return mpmath.gammainc(t, a) - mpmath.gammainc(t, b)

        s = mpmath.mpf(n) / 2
        return float(w(s + mpmath.mpf(k) / 2) / w(s))


def _windows(n):
    # (y1, width / y1): below, across and above the bulk at y = n/2
    s = n / 2.0
    starts = [1e-3, 1.0, 30.0]
    if s > 0.0:
        starts += [s * f for f in (0.01, 0.3, 0.97, 1.5, 4.0)]
    return [(y1, w) for y1 in starts for w in (0.02, 0.5, 3.0, 1e-5, 1e-9)]


class TestDouble:
    @pytest.mark.parametrize("n", [-30.0, -3.3, -0.5, 0.5, 1.0, 2.5, 10.0,
                                   100.0, 1e3, 1e4])
    def test_against_mpmath(self, n):
        # the raw masses were inf or NaN from n = 343, and 0/0 far above
        # the bulk.  Windows of width 1e-5 and 1e-9 y1 are integrated
        # directly; their moments lost about log10(y1 / width) digits as
        # a difference of shares.  5.3e-15 is the worst measured
        for y1, w in _windows(n):
            spec = ScaledChiSpec(1.0, n, lower=math.sqrt(2.0 * y1),
                                 upper=math.sqrt(2.0 * y1 * (1.0 + w)),
                                 kind=ChiKind.DOUBLE)
            for k in (1, 2, 3):
                want = mp_window_ratio(n, spec.y1, spec.y2, k,
                                       dps=40 + round(-math.log10(w)))
                got = chi_raw_moment(spec, k) / 2.0 ** (k / 2.0)
                assert got == pytest.approx(want, rel=5e-14, abs=0.0), \
                    (y1, w, k)
            assert spec.lower <= chi_raw_moment(spec, 1) <= spec.upper

    @pytest.mark.parametrize("n", [343.0, 344.0, 1000.0])
    def test_past_the_range_of_gamma(self, n):
        # inf at n = 343, NaN from 344: Gamma(n/2) overflowed
        spec = ScaledChiSpec(1.0, n, lower=1.0, upper=100.0,
                             kind=ChiKind.DOUBLE)
        want = math.sqrt(2.0) * mp_window_ratio(n, 0.5, 5000.0, 1)
        assert chi_raw_moment(spec, 1) == pytest.approx(want, rel=2e-15)

    @pytest.mark.parametrize("sigma", [1e160, 1e-160])
    def test_scale_free_window(self, sigma):
        # y1 = y2 = NaN at sigma = 1e160: the squares of the cutoffs and of
        # sigma overflowed (and underflowed at 1e-160) before their ratio
        def scaled_mean(s):
            spec = ScaledChiSpec(s, 3.0, lower=s, upper=2.0 * s,
                                 kind=ChiKind.DOUBLE)
            assert (spec.y1, spec.y2) == (0.5, 2.0)
            return chi_raw_moment(spec, 1) / s
        assert scaled_mean(sigma) == pytest.approx(scaled_mean(1.0),
                                                   rel=4e-16, abs=0.0)

    @pytest.mark.parametrize("spec", [
        ScaledChiSpec(1e160, 3.0),
        ScaledChiSpec(1e160, 3.0, lower=1e150, upper=2e160,
                      kind=ChiKind.DOUBLE),
    ])
    def test_moment_beyond_the_double_range_reads_inf(self, spec):
        # (sqrt(2) sigma)**2 raised OverflowError
        unit = ScaledChiSpec(1.0, spec.n, spec.lower / spec.sigma,
                             spec.upper / spec.sigma, spec.kind)
        assert chi_raw_moment(spec, 2) == math.inf
        # the first moment stays in range and scales with sigma
        assert chi_raw_moment(spec, 1) == pytest.approx(
            1e160 * chi_raw_moment(unit, 1), rel=1e-13)

    def test_far_above_the_bulk(self):
        # ZeroDivisionError: both masses underflowed
        spec = ScaledChiSpec(1.0, 3.0, lower=40.0, upper=41.0,
                             kind=ChiKind.DOUBLE)
        want = math.sqrt(2.0) * mp_window_ratio(3.0, 800.0, 840.5, 1)
        assert chi_raw_moment(spec, 1) == pytest.approx(want, rel=2e-15)

    def test_sigma_at_high_dimension(self):
        # exited "no sigma": the masses were inf over the whole bracket.
        # The reference is a 200-panel quadrature at 40 digits
        assert double_sigma(310.0, 1e5, 300.0, 320.0) == pytest.approx(
            0.98030852542044764, rel=2e-15)

    @pytest.mark.parametrize("spec, R", [
        # read 0.0: Gamma(1000) overflowed
        (ScaledChiSpec(1.0, 2000.0, upper=70.0, kind=ChiKind.OUTER), 60.0),
        # read 0.0: the window mass overflowed
        (ScaledChiSpec(1.0, 400.0, lower=1.0, upper=100.0,
                       kind=ChiKind.DOUBLE), 20.0),
        # ZeroDivisionError: the window mass underflowed
        (ScaledChiSpec(1.0, 3.0, lower=40.0, upper=41.0,
                       kind=ChiKind.DOUBLE), 40.5),
    ])
    def test_density_where_the_mass_leaves_double_range(self, spec, R):
        with mpmath.workdps(40):
            s = mpmath.mpf(spec.n) / 2
            z = mpmath.mpf(R) / mpmath.sqrt(2)
            mass = (mpmath.gammainc(s, 0, spec.y2) if spec.lower == 0.0
                    else mpmath.gammainc(s, spec.y1, spec.y2))
            want = float(2 * z ** (spec.n - 1) * mpmath.exp(-z * z)
                         / (mpmath.sqrt(2) * mass))
        assert chi_density(spec, R) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [-1.0, -2.0, -3.0, -4.0])
    def test_outer_continuation_poles_are_named(self, n):
        # the former continuation's gamma poles, and every other n <= 0,
        # get the one refusal from every outer entry point.  Without an
        # opt-in, chi_sigma_from_mean read sigma -1.261 at n = -0.5 and
        # chi_var_form2 variances -1.376 and -1.559 at n = -0.5 and -1.5
        for m in (n, n + 0.5):
            for f in (lambda: chi_sigma_from_mean(1.0, 1.0, m, ChiKind.OUTER),
                      lambda: chi_var_form2(1.0, 1.0, m, ChiKind.OUTER),
                      lambda: chi_limits(m, ChiKind.OUTER, "r_to_0"),
                      lambda: chi_calibrate(1.0, 0.1, m, ChiKind.OUTER),
                      lambda: double_sigma(0.5, m, 0.0, 1.0),
                      lambda: ScaledChiSpec(1.0, m, upper=1.0,
                                            kind=ChiKind.OUTER)):
                with pytest.raises(ValueError, match=OUTER_REFUSAL):
                    f()

    def test_window_whose_lower_edge_underflows(self):
        # y1 = (lower/sigma)^2/2 underflows to 0, so the window read as
        # outer truncation, and at n <= 0 as the signed continuation: the
        # mean read 1e-18, above the supremum 3.6e-321 of any sigma
        spec = ScaledChiSpec(1.2533e-25, -1.0000001, 5e-324, 1e-9, "double")
        assert spec.y1 == 0.0
        msg = (r"^the window \[4.94066e-324, 1e-09\] at sigma = 1.2533e-25: "
               r"y1 = \(lower/sigma\)\^2/2 underflows to 0, and at n = -1 "
               r"<= 0 the mass it bounds diverges as y1 -> 0$")
        for f in (lambda: chi_raw_moment(spec, 1), lambda: chi_var_form1(spec),
                  lambda: chi_density(spec, 1e-10)):
            with pytest.raises(ValueError, match=msg):
                f()
        # an inner support too: chi_density read -0.484 at R = 1
        inner = ScaledChiSpec(1.0, -1.0, lower=1e-170)
        for f in (lambda: chi_raw_moment(inner, 1),
                  lambda: chi_density(inner, 1.0)):
            with pytest.raises(ValueError, match="underflows to 0"):
                f()
        # at n > 0 the mass below the underflowed edge is negligible
        window = ScaledChiSpec(1.0, 0.5, 1e-170, 1.0, "double")
        outer = ScaledChiSpec(1.0, 0.5, upper=1.0, kind=ChiKind.OUTER)
        assert chi_raw_moment(window, 1) == chi_raw_moment(outer, 1)


class TestCalibrate:
    def test_worked_example(self):
        r, sigma, a = chi_calibrate(2.3, 0.95, 2.0)
        assert r == pytest.approx(0.53589710, abs=1.5e-8)
        assert sigma == pytest.approx(1.65173960, abs=1.5e-8)
        assert a == pytest.approx(0.88516246, abs=1.5e-8)

    def test_bound_messages(self):
        with pytest.raises(ValueError, match="maximal variance"):
            chi_calibrate(1.0, 0.6, 1.0)
        with pytest.raises(ValueError, match="confined"):
            chi_calibrate(1.0, 0.5, 2.0, ChiKind.OUTER)

    @pytest.mark.parametrize("n", [0.0, -2.0])
    def test_no_variance_bound_at_the_poles(self, n):
        # vmax_fixed_n raises at its poles; the supremum there is infinite
        r, sigma, a = chi_calibrate(1.0, 5.0, n)
        assert chi_var_form2(1.0, r, n) == pytest.approx(5.0, rel=1e-10)

    def test_double_sigma(self):
        sigma = double_sigma(1.0, 2.0, 0.5, 1.5)
        spec = ScaledChiSpec(sigma, 2.0, lower=0.5, upper=1.5,
                             kind=ChiKind.DOUBLE)
        assert chi_raw_moment(spec, 1) == pytest.approx(1.0, rel=1e-12)
        # for n = 1 the window mean tops out at its midpoint
        for M in (2.5, 1.8):
            with pytest.raises(ValueError, match=(
                    r"^the doubly truncated mean on \[1, 2\] at n=1 is "
                    rf"confined to \(1, 1.5\); got {M}$")):
                double_sigma(M, 1.0, 1.0, 2.0)
        # any sigma far enough out reproduces these
        for M in (1.0 + 1e-15, 1.5 - 1e-15):
            with pytest.raises(ValueError, match=(
                    r"confined to \(1, 1.5\); got 1(.5)?, within its rounding "
                    r"noise 5e-14 M = .* of an end$")):
                double_sigma(M, 1.0, 1.0, 2.0)

    @pytest.mark.parametrize("n", [1e-9, 0.0, -1e-9, -1.0 + 1e-9, -1.0,
                                   -1.0 - 1e-9, 1e5, -30.0])
    def test_window_mean_sup(self, n):
        # n/(n+1) (u^(n+1) - l^(n+1)) / (u^n - l^n) is 0/0 at n = 0 and -1,
        # cancels near them and overflows at n = 1e5
        with mpmath.workdps(60):
            l, u, m = mpmath.mpf(1), mpmath.mpf(2), mpmath.mpf(n)
            if n == 0.0:
                want = (u - l) / mpmath.log(u / l)
            elif n == -1.0:
                want = mpmath.log(u / l) / (1 / l - 1 / u)
            else:
                want = m / (m + 1) * (u ** (m + 1) - l ** (m + 1)) / (
                    u ** m - l ** m)
        assert chi._window_sup(n, 1.0, 2.0) == pytest.approx(float(want),
                                                              rel=1e-15)

    @pytest.mark.parametrize("M, n, lower, upper, share", [
        # near the limits n = 0 and -1 of the supremum
        (1.3, 1e-9, 1.0, 2.0, None),
        (1.3, -1e-9, 1.0, 2.0, None),
        (1.3, -1.0 + 1e-9, 1.0, 2.0, None),
        (1.3, -1.0 - 1e-9, 1.0, 2.0, None),
        # the mean is lower to the last bit for sigma below about 3e-6: a
        # Newton step on the mean itself from the untruncated sigma, 377,
        # lands at 7e-25 and stops there on a zero step
        (301.0, 1.0, 300.0, 320.0, None),
        # 1e-9 (sup - lower) below the supremum, at sigma from 5.7e3 up
        (None, 3.0, 1.0, 2.0, 1e-9),
        (None, 1.0, 0.5, 3.0, 1e-9),
        (None, -5.0, 0.2, 3.0, 1e-9),
    ])
    def test_double_sigma_against_mpmath(self, M, n, lower, upper, share):
        if M is None:
            sup = chi._window_sup(n, lower, upper)
            M = sup - share * (sup - lower)
        sigma = double_sigma(M, n, lower, upper)
        y1, y2 = ((x / sigma) ** 2 / 2.0 for x in (lower, upper))
        mean = math.sqrt(2.0) * sigma * mp_window_ratio(n, y1, y2, 1)
        assert mean == pytest.approx(M, rel=1e-12)

    def test_double_sigma_on_every_support(self, monkeypatch):
        # inner (upper = inf) and outer (lower = 0) supports too: within
        # 1e-12 of the former grid search's root (200 log-spaced sigmas,
        # then Brent), in at most 6 kernel evaluations a solve
        calls, ratio = [], chi._ratio

        def counted(*args):
            calls.append(args)
            return ratio(*args)

        monkeypatch.setattr(chi, "_ratio", counted)
        rng = np.random.default_rng(39)
        for i in range(300):
            n = float(rng.uniform(-0.5, 8.0))
            kind = (ChiKind.INNER, ChiKind.OUTER, ChiKind.DOUBLE)[i % 3]
            sigma = float(np.exp(rng.uniform(-1.0, 1.0)))
            if kind is ChiKind.INNER:
                lower, upper = sigma * float(rng.uniform(0.1, 4.0)), math.inf
            elif kind is ChiKind.OUTER:
                n = abs(n) + 0.1
                lower, upper = 0.0, sigma * float(rng.uniform(0.5, 4.0))
            else:
                lower = sigma * float(rng.uniform(0.1, 3.0))
                upper = lower + sigma * float(rng.uniform(0.5, 3.0))

            def spec(s):
                return ScaledChiSpec(s, n, lower=lower, upper=upper,
                                     kind=kind)

            M = chi_raw_moment(spec(sigma), 1)
            del calls[:]
            got = double_sigma(M, n, lower, upper)
            assert len(calls) <= 6, (i, len(calls))
            want = oracle.grid_root(
                lambda s: chi_raw_moment(spec(s), 1) - M, 1e-6 * M,
                1e3 * max(M, lower, 0.0 if kind is ChiKind.INNER
                          else upper) + 1.0)
            assert got == pytest.approx(want, rel=1e-12), (i, kind, n)

    def test_double_sigma_untruncated_and_one_sided_bounds(self):
        # lower = 0 and upper = inf: the untruncated sigma
        sigma = double_sigma(1.7, 3.0, 0.0, math.inf)
        assert sigma == pytest.approx(chi._sigma_limit(1.7, 3.0), rel=1e-15)
        for lower, upper, kind in ((0.0, 2.0, "outer"), (1.0, math.inf,
                                                          "inner")):
            with pytest.raises(ValueError, match=(
                    rf"^the {kind}-truncated mean on \[{lower:g}, "
                    rf"{upper:g}\] at n=3 is confined to")):
                double_sigma(5.0 if kind == "outer" else 0.5, 3.0, lower,
                             upper)

    @pytest.mark.parametrize("n", [50.0, 200.0])
    def test_high_dimension_roundtrip(self, n):
        # the variance is flat to rounding over |r| <= 1 at such n
        target = 0.5 * vmax_fixed_n(1.0, n)
        r, sigma, a = chi_calibrate(1.0, target, n)
        assert chi_var_form2(1.0, r, n) == pytest.approx(target, rel=1e-10)

    def test_target_at_the_supremum_edge(self):
        # the root lies below the former initial bracket's |r| = 1e-10 end
        target = 0.99999 * vmax_fixed_n(1.0, 0.5)
        r, sigma, a = chi_calibrate(1.0, target, 0.5)
        assert r == pytest.approx(3.43e-11, rel=1e-3)
        assert chi_var_form2(1.0, r, 0.5) == pytest.approx(target, rel=1e-12)

    def test_tiny_root_is_placed_to_relative_precision(self):
        # the root |r| ~ 3.4e-21 sits far below any absolute tolerance
        # above 1e-20; check the variance there against mpmath
        target = 0.9999999999 * vmax_fixed_n(1.0, 0.5)
        r, sigma, a = chi_calibrate(1.0, target, 0.5)
        with mpmath.workdps(50):
            y = mpmath.mpf(r) ** 2 / 2
            g = [mpmath.gammainc(mpmath.mpf(k) / 4, y) for k in (1, 3, 5)]
            want = float(g[0] * g[2] / g[1] ** 2 - 1)
        assert want == pytest.approx(target, rel=1e-13)

    @given(st.floats(min_value=0.5, max_value=8.0),
           st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, n, frac):
        target = frac * vmax_fixed_n(1.0, n)
        r, sigma, a = chi_calibrate(1.0, target, n)
        assert chi_var_form2(1.0, r, n) == pytest.approx(target, rel=1e-10)


class TestVmax:
    def test_poles_and_segments(self):
        with pytest.raises(ValueError):
            vmax_fixed_n(1.0, 0.0)
        with pytest.raises(ValueError):
            vmax_fixed_n(1.0, -2.0)
        assert math.isinf(vmax_fixed_n(1.0, -1.0))
        assert vmax_fixed_n(1.0, -3.0) == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_known_values(self):
        # 1-D: the half-normal supremum
        assert vmax_fixed_n(1.0, 1.0) == pytest.approx(
            math.pi / 2.0 - 1.0, rel=1e-12)
        # 2-D: untruncated Rayleigh, 4/pi - 1
        assert vmax_fixed_n(1.0, 2.0) == pytest.approx(
            4.0 / math.pi - 1.0, rel=1e-12)

    def test_series_continuity_at_handover(self):
        # one ulp either side of the switches: the Wallis ratio takes the
        # series from n = 12 up, the untruncated variance from n = 20 up
        # without steps down.  Pairs 1e-9 apart would differ by about 5e-11
        # from the slope alone
        for n, f in ((12.0, lambda n: chi_limits(n, ChiKind.INNER,
                                                 "r_to_0")[1]),
                     (20.0, lambda n: vmax_fixed_n(1.0, n))):
            below, above = f(math.nextafter(n, 0.0)), f(n)
            assert above == pytest.approx(below, rel=4e-15), n

    @pytest.mark.parametrize("n", [100.0, 120.0, 150.0, 180.0])
    def test_past_the_series_switch_against_mpmath(self, n):
        # the gamma form, kept up to n = 180, was up to 1.1e-13 off here
        with mpmath.workdps(50):
            s = mpmath.mpf(n) / 2
            want = mpmath.gamma(s) * mpmath.gamma(s + 1) \
                / mpmath.gamma(s + 0.5) ** 2 - 1
        assert vmax_fixed_n(1.0, n) == pytest.approx(float(want), rel=1e-15,
                                                      abs=0.0)

    @pytest.mark.parametrize("n", [1e-3, 0.5, 3.0, 31.7, 62.9, 99.9])
    def test_below_the_series_switch_against_mpmath(self, n):
        # 2 Gamma(n/2 + 1)^2 / (n Gamma((n+1)/2)^2) - 1 from math.gamma was
        # 3.1e-12 off at n = 62.9 and 4.9e-14 at 99.9
        with mpmath.workdps(50):
            s = mpmath.mpf(n) / 2
            want = mpmath.gamma(s) * mpmath.gamma(s + 1) \
                / mpmath.gamma(s + 0.5) ** 2 - 1
        assert vmax_fixed_n(1.0, n) == pytest.approx(float(want), rel=1e-15,
                                                      abs=0.0)

    def test_complete_ratios_against_mpmath(self):
        # the Fields series and the math.gamma form of the Wallis ratio g,
        # Gamma(s + k/2) / Gamma(s) and V = 1/g^2 - 1, on both sides of the
        # switches at s = 6 and 10; the math.gamma form was 1.2e-14 off
        # near s = 31, and V 3.5e-15 off near s = 48
        grid = [10.0 ** (-3.0 + 8.7 * i / 299) for i in range(300)]
        for edge in (6.0, 10.0):
            grid += [edge * (1.0 + d) for d in (-1e-3, -1e-16, 0.0, 1e-3)]
        with mpmath.workdps(50):
            for s in grid:
                ms = mpmath.mpf(s)
                for k in (1, 2, 3):
                    want = mpmath.exp(mpmath.loggamma(ms + mpmath.mpf(k) / 2)
                                      - mpmath.loggamma(ms))
                    assert chi._complete_ratio(s, k) == pytest.approx(
                        float(want), rel=2e-15, abs=0.0), (s, k)
                    if k == 1:
                        g = want / mpmath.sqrt(ms)
                        assert chi._wallis(s) == pytest.approx(
                            float(g), rel=2e-15, abs=0.0), s
                        assert chi._var_untruncated(2.0 * s) == \
                            pytest.approx(float(1 / g ** 2 - 1), rel=1e-15,
                                          abs=0.0), s

    def test_fields_is_horner_bit_for_bit(self):
        # the Horner loop written out keeps every operation and its order
        from trunc_moments.specfun import _polyval
        grid = [6.0 + 94.0 * i / 4999 for i in range(5000)]
        grid += [6.0 * 10.0 ** (5.3 * i / 4999) for i in range(5000)]
        for z in grid + [6.0, 1e6, math.nextafter(6.0, 7.0)]:
            u = 1.0 / ((z - 0.25) * (z - 0.25))
            assert chi._fields(z) == u * _polyval(chi._FIELDS, u), z

    def test_large_n_asymptote(self):
        # vmax ~ 1/(2n) * (1 + 1/(2n) + ...) far out
        n = 1e4
        got = vmax_fixed_n(1.0, n)
        assert got == pytest.approx(5.000124993749609e-05, rel=1e-12)

    def test_search_matches_velocity_example(self):
        rep = nvmx_search(1.0, 2.2)
        assert rep.n_vmx_int == 11
        assert rep.n_vmx_real == pytest.approx(10.89380099, abs=1e-6)  # mpmath
        assert rep.vmax_int == pytest.approx(0.03622777, abs=1e-8)
        assert nvmx_approx(2.2) == pytest.approx(10.887, abs=5e-4)

    # n_vmx < 0 below |r| = 0.29; |r| = 1e-30 and 1e-26 were 4e-4 off
    # (n = -1 + 1.1e-16) under the finite-difference quotient's step cap
    @pytest.mark.parametrize("r", [1e-60, 1e-30, 1e-26, 0.05, 0.1,
                                   0.2, 0.3, 1.0, 2.0, 2.2, 5.0, 10.0, 30.0,
                                   100.0, 1000.0])
    def test_search_against_mpmath(self, r):
        # the quotient's search was 1.5e-9 relative off at |r| = 30, 3.1e-8
        # at 100 and 2.0e-4 at 1000
        rep = nvmx_search(1.0, r)
        want = mp_nvmx(r)
        assert abs(rep.n_vmx_real - want) <= 1e-12 * max(1.0, abs(want))
        if r < 1e-10:  # below chi_var_form2's stated domain at n <= 0
            return
        with mpmath.workdps(40):
            y = mpmath.mpf(r) ** 2 / 2
            g = [mpmath.gammainc((mpmath.mpf(rep.n_vmx_real) + k) / 2, y)
                 for k in (0, 1, 2)]
            v = g[0] * g[2] / (g[1] * g[1]) - 1
        assert abs(rep.vmax_real - v) <= 2e-14 * (1.0 + v)

    @staticmethod
    def _slope_count(r):
        # the slope evaluations of nvmx_search(1, r)
        count = [0]
        slope = _nvmx_slope._dlog_ratio_dn

        def counted(s, y):
            count[0] += 1
            return slope(s, y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_nvmx_slope, "_dlog_ratio_dn", counted)
            nvmx_search(1.0, r)
        return count[0]

    # calls: the former expand-then-Brent search's slope evaluations, which
    # the secant search may not exceed; _SEARCH_CALLS: the secant search's
    # measured ones, to one, as a last-bit change in the slope may move a
    # step.  Under the finite-difference quotient such a change moved
    # nvmx_search(1000, 2.2) from 36 to 60 variance calls
    _SEARCH_CALLS = {1e-30: 6, 0.05: 7, 0.2: 7, 1.0: 2, 2.2: 5, 10.0: 2,
                     100.0: 14, 1000.0: 18}

    @pytest.mark.parametrize("r,calls", [(1e-30, 8), (0.05, 8), (0.2, 9),
                                         (1.0, 7), (2.2, 8), (10.0, 9),
                                         (100.0, 14), (1000.0, 19)])
    def test_search_evaluation_count(self, r, calls):
        count = self._slope_count(r)
        assert count <= calls
        assert abs(count - self._SEARCH_CALLS[r]) <= 1

    def test_search_mean_evaluation_count(self):
        # the benchmark's |r| range, log-uniform: 5.905 evaluations a search
        # on this grid, 7.79 under the former expand-then-Brent search
        grid = [0.05 * 200.0 ** (i / 199) for i in range(200)]
        counts = [self._slope_count(r) for r in grid]
        assert sum(counts) / len(counts) <= 6.2

    def test_search_agrees_with_the_former_search(self):
        # the former search: expand the +-5% bracket about the fitted seed,
        # then Brent to the same tolerance.  Up to |r| = 100 the two agree
        # to that tolerance; above it the slope's rounding moves its zero by
        # about 2e-13 relative (each search is 1e-13 to 2e-13 from mpmath
        # at |r| = 615.6 and 1000), and they differ by up to 4e-13
        def former(r):
            y = r * r / 2.0

            def slope(m):
                return _nvmx_slope._dlog_ratio_dn(0.5 * (m - 1.0), y)

            m = max(nvmx_approx(r) + 1.0, 1e-3)
            a, b, fa, fb = oracle.expand(slope, 0.95 * m, 1.05 * m,
                                         increasing=False, what="n_vmx")
            return oracle.brentq(slope, a, b, fa, fb, what="n_vmx",
                                 xtol=1e-13 * max(1.0, a)) - 1.0

        grid = [10.0 ** (-60.0 + 63.0 * i / 299) for i in range(300)]
        for r in grid + [731.8]:
            want = former(r)
            tol = 1e-13 if r <= 100.0 else 5e-13
            got = nvmx_search(1.0, r).n_vmx_real
            assert abs(got - want) <= tol * max(1.0, want + 1.0), r

    @pytest.mark.parametrize("n", [-0.9, -0.5, -0.2, 0.04, 3.0, 10.9, 41.0,
                                   137.0, 1030.0])
    def test_slope_against_mpmath(self, n):
        # the kernel behind nvmx_search: d ln(ratio)/dn at the |r| whose
        # n_vmx is near n, on each branch mix (s <= 0 with positive orders,
        # P series, Temme below and above the cutoff), within 1e-15 of the
        # ln-derivatives d/ds ln Gamma(s, y) - ln y that it differences
        r = {-0.9: 0.01, -0.5: 0.1, -0.2: 0.25, 0.04: 0.3, 3.0: 1.0,
             10.9: 2.2, 41.0: 5.0, 137.0: 10.0, 1030.0: 30.0}[n]
        for f in (0.9, 1.0, 1.1):
            m = (n + 1.0) * f
            with mpmath.workdps(40):
                y = mpmath.mpf(r) ** 2 / 2
                want = mp_slope(mpmath.mpf(m) - 1, y)
                size = abs(mpmath.diff(lambda u: mpmath.log(
                    mpmath.gammainc(u, y)), mpmath.mpf(m) / 2) - mpmath.log(y))
            got = _nvmx_slope._dlog_ratio_dn((m - 1.0) / 2.0, r * r / 2.0)
            assert abs(got - want) <= 1e-15 * size, (m, r)

    def test_search_at_large_r(self):
        # n_vmx near 1e6: the variance maximum is about 5e-7, which the
        # former expm1 of three logarithms read as 0.0
        rep = nvmx_search(1.0, 1000.0)
        assert rep.vmax_real > 0.0
        with mpmath.workdps(50):
            y = mpmath.mpf(1000) ** 2 / 2
            g = [mpmath.gammainc(mpmath.mpf(rep.n_vmx_real + k) / 2, y)
                 for k in (0, 1, 2)]
            want = g[0] * g[2] / (g[1] * g[1]) - 1
        assert abs(rep.vmax_real - want) <= 2e-14 * (1.0 + want)
        assert rep.vmax_real == pytest.approx(float(want), rel=1e-8)

    @pytest.mark.parametrize("r", [1300.0, 1e4])
    def test_search_refuses_r_beyond_the_variance_domain(self, r):
        # at |r| = 1e4 it reported vmax_real = 1.6e-11 where V ~ M^2/(2n)
        # gives 5.0e-9
        with pytest.raises(ValueError, match=r"at most 1000 \(the domain of "
                                             r"chi_var_form2\)"):
            nvmx_search(1.0, r)

    @pytest.mark.parametrize("r", [2.6e-162, 1e-200, 5e-324])
    def test_search_names_an_offset_whose_square_underflows(self, r):
        # it raised "math domain error", and the quotient's search "no
        # variance-maximizing dimension ... in [0, 0]"
        with pytest.raises(ValueError, match=r"\|r\|\^2/2 underflows to 0"):
            nvmx_search(1.0, r)

    @pytest.mark.parametrize("r", [1300.0, 1e4, math.inf])
    def test_fixed_r_approx_takes_its_limit(self, r):
        # exp(d2 r^d3) overflowed past |r| = 1233
        assert vmax_fixed_r_approx(r) == 0.0

    @pytest.mark.parametrize("r", [1e-8, 1e-30, 1e-60, 1e-150])
    def test_search_approaches_its_small_r_limit(self, r):
        # with L = ln(2/r^2): (1 + n_vmx) L^2 -> 24 (1 - ln 2) and
        # vmax |r| L^2 -> 2 sqrt(2 pi), both at a rate of about 1/L.  The
        # error times L reads -3.2 to -10.8 and 6.1 to 5.8 on these r
        L = math.log(2.0 / (r * r))
        rep = nvmx_search(1.0, r)
        assert abs((1.0 + rep.n_vmx_real) * L * L
                   - 24.0 * (1.0 - math.log(2.0))) <= 12.0 / L
        assert abs(rep.vmax_real * r * L * L
                   - 2.0 * math.sqrt(2.0 * math.pi)) <= 7.0 / L

    @pytest.mark.parametrize("r", [10.0, 100.0, 1000.0])
    def test_search_approaches_its_gaussian_limit(self, r):
        # chi_n nears N(sqrt(n - 1/2), 1/2) at large n: with rho the
        # Gaussian offset sqrt(2) (sqrt(n - 1/2) - |r|), V/M^2 nears
        # Q(rho) / (sqrt(2) |r| + s(rho))^2, s and Q the truncated normal's
        # mean excess and variance.  Its maximum rho* gives n_vmx near
        # (|r| + rho*/sqrt(2))^2 + 1/2, relative error 0.29 to 0.38
        # ln|r| / r^2 here
        with mpmath.workdps(30):
            def log_v(p):
                t = mpmath.npdf(p) / mpmath.ncdf(p)
                return (mpmath.log(1 - p * t - t * t)
                        - 2 * mpmath.log(mpmath.sqrt(2) * r + p + t))

            rho = mpmath.findroot(lambda p: mpmath.diff(log_v, p), 2.0)
            want = float((r + rho / mpmath.sqrt(2)) ** 2 + 0.5)
        got = nvmx_search(1.0, r).n_vmx_real
        assert abs(got - want) <= 0.45 * math.log(r) / (r * r) * got

    def test_search_small_r(self):
        rep = nvmx_search(1.0, 0.1)
        assert rep.n_vmx_real < 0.0
        assert rep.n_vmx_int == 1

    def test_fixed_r_approx_at_zero(self):
        assert vmax_fixed_r_approx(0.0) == pytest.approx(
            (math.pi - 2.0) / 2.0, rel=1e-10)


def _float_neighbours(x):
    return math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)


def mp_kernels(s, y, lower):
    """(ratio - 1, d ln(ratio)/dy, [G(s + k/2)/G(s) for k = 1, 2, 3]) at 50
    digits, G the upper incomplete gamma or with ``lower`` the lower one;
    the orders are formed in mpmath, exactly 1/2 apart as the kernel's."""
    with mpmath.workdps(50):
        s, y, h = mpmath.mpf(s), mpmath.mpf(y), mpmath.mpf(1) / 2
        g = [mpmath.gammainc(s + k * h, 0, y) if lower
             else mpmath.gammainc(s + k * h, y) for k in range(4)]

        # d ln G(t, y)/dy = +-y^(t-1) e^-y / G(t, y), lower and upper
        def dlog(k):
            d = y ** (s + k * h - 1) * mpmath.exp(-y) / g[k]
            return d if lower else -d

        return (g[0] * g[2] / g[1] ** 2 - 1, dlog(0) + dlog(2) - 2 * dlog(1),
                [g[k] / g[0] for k in (1, 2, 3)])


class TestHalfIntegerLadder:
    """For 2s a whole number the kernels take their incomplete gammas from
    the half-integer ladder (``chi._gammas``), up to ``_LADDER_CAP``."""

    def test_n_1_is_the_gaussian_truncated_at_minus_r(self):
        # the inner law at n = 1 is |Z| given |Z| >= |r|, the Gaussian
        # truncated at r = -|r|: V/M^2 = Q/t^2 from utgd._core, by H_1/2
        # from the same erfcx.  Within the sum of the two stated bounds:
        # chi_var_form2's 2e-14 (M^2 + V), and _core's Q within 4 ulps of 1
        for i in range(601):
            x = 10.0 ** (-3.0 + i / 100.0)
            t, _, q = utgd._core(-x)
            want = q / (t * t)
            assert abs(chi_var_form2(1.0, x, 1.0) - want) <= (
                2e-14 * (1.0 + want) + 4.0 * math.ulp(1.0) / (t * t)), x

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 19, 20])
    def test_seams_against_mpmath(self, n):
        # each switch and its two float neighbours: upper H against Q at
        # y = 1, lower series against P at y = s + 2, and the ladder
        # against _gamma_inc at the order cap (outer s + 1 and inner
        # s + 1/2 at 10.5).  The value meets chi_var_form2's stated bound,
        # 2e-14 (M^2 + V), and G(s + k/2)/G(s) chi_raw_moment's 2e-15.  The
        # slope, a second difference in the order that cancels where the
        # ratio does, has no stated bound; 1.6e-11 is the worst measured
        # here (outer, y = 0.5)
        s = n / 2.0
        cases = ([(s, y, False) for y in _float_neighbours(1.0)]
                 + [(s, y, True) for y in _float_neighbours(s + 2.0)])
        if n == 19:
            cases += [(top, y, lower) for y in (0.5, 3.0, 12.0, 30.0)
                      for cap, lower in ((9.5, True), (10.0, False))
                      for top in _float_neighbours(cap)]
        for s, y, lower in cases:
            rm1, slope, edges = mp_kernels(s, y, lower)
            got, dgot = chi._ratio_m1(s, y, lower)
            assert abs(got - rm1) <= 2e-14 * (1.0 + rm1), (s, y, lower)
            assert abs(dgot - slope) <= 1e-10 * abs(slope), (s, y, lower)
            for k, want in zip((1, 2, 3), edges):
                got = chi._edge_ratio(s, y, k, lower)
                assert abs(got - want) <= 2e-15 * want, (s, y, lower, k)

    @pytest.mark.parametrize("kind", [ChiKind.INNER, ChiKind.OUTER])
    def test_integer_n_takes_no_general_gamma(self, monkeypatch, kind):
        def general(*args):
            raise AssertionError("the general incomplete gamma was taken")

        monkeypatch.setattr(chi, "_gamma_inc", general)
        for n in range(1, 20):
            for r_abs in (1e-8, 0.3, 1.4, 2.0, 4.5, 9.0, 40.0):
                chi_var_form2(1.0, r_abs, n, kind)
                chi_sigma_from_mean(1.0, r_abs, n, kind)


class TestSigns:
    """The signs that make the paper's UTSCD maximum a theorem for every
    real n >= 1: log-concavity makes V/M^2 fall in |r|, and the concavity
    of psi makes the untruncated V/M^2 fall in n."""

    def test_digamma_second_difference_is_negative(self):
        # psi(s) + psi(s + 1) - 2 psi(s + 1/2) = d ln(V/M^2 + 1)/ds at |r| = 0
        for i in range(601):
            s = 0.5 * 10.0 ** (i / 100.0 * math.log10(2e6))
            assert _nvmx_slope._digamma_diff2(s) < 0.0, s

    def test_vmax_falls_in_n(self):
        grid = [10.0 ** (i / 100.0) for i in range(401)]
        v = [vmax_fixed_n(1.0, n) for n in grid]
        assert all(a > b for a, b in zip(v, v[1:]))

    def test_inner_ratio_falls_in_y(self):
        # d ln(ratio)/dy < 0 at every point of the grid.  It may read 0
        # only where y^s e^-y / Gamma(s + 1), the factor that the kernel
        # forms first and every term of the slope carries, is below the
        # smallest normal double (n >= 31 at |r| near 1e-10): 288 of the
        # 9 640 points, each such
        tiny = math.log(sys.float_info.min)
        for n in range(1, 41):
            s = n / 2.0
            for i in range(241):
                r_abs = 10.0 ** (-10.0 + i / 20.0)
                y = r_abs * r_abs / 2.0
                slope = chi._ratio_m1(s, y)[1]
                assert slope < 0.0 or slope == 0.0 and (
                    s * math.log(y) - y - math.lgamma(s + 1.0) < tiny), (n, y)


class TestLimits:
    @pytest.mark.parametrize("n,kind,which,want", [
        # (variance, sigma, cutoff) triples in the small-|r| / large-|r| limits
        (1.0, ChiKind.INNER, "r_to_0", (math.pi / 2 - 1, math.sqrt(math.pi / 2), 0.0)),
        (2.0, ChiKind.OUTER, "r_to_0", (0.125, math.inf, 1.5)),
        (-3.0, ChiKind.INNER, "r_to_0", (1.0 / 3.0, math.inf, 2.0 / 3.0)),
        (2.0, ChiKind.INNER, "r_to_inf", (0.0, 0.0, 1.0)),
    ])
    def test_cells(self, n, kind, which, want):
        var, sigma, a = chi_limits(n, kind, which)
        for got, w in zip((var, sigma, a), want):
            if math.isinf(w):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(w, rel=1e-10, abs=1e-12)

    def test_outer_limit_consistent_with_deep_truncation(self):
        # outer truncation squeezed to r -> inf approaches the untruncated chi
        var, sigma, a = chi_limits(3.0, ChiKind.OUTER, "r_to_inf")
        spec = ScaledChiSpec(sigma, 3.0)
        assert chi_raw_moment(spec, 1) == pytest.approx(1.0, rel=1e-10)
        assert chi_var_form1(spec) == pytest.approx(var, rel=1e-9)

    @pytest.mark.parametrize("n", [3.0, 12.5, 40.0, 62.858, 99.9, 1e6, 1e8])
    def test_sigma_against_mpmath(self, n):
        # exp of a difference of two log-gammas was 5.5e-10 off at n = 1e6
        # and 1.0e-8 at 1e8; the math.gamma form 1.2e-14 at n = 62.858
        with mpmath.workdps(50):
            s = mpmath.mpf(n) / 2
            want = float(mpmath.gamma(s)
                         / (mpmath.sqrt(2) * mpmath.gamma(s + 0.5)))
        for kind, which in ((ChiKind.INNER, "r_to_0"),
                            (ChiKind.OUTER, "r_to_inf")):
            sigma = chi_limits(n, kind, which)[1]
            assert sigma == pytest.approx(want, rel=1e-15 if n >= 1e6
                                          else 2e-15, abs=0.0)

    @pytest.mark.parametrize("n", [-1.0, -2.0, -3.0, -4.0])
    def test_outer_r_to_inf_poles_are_named(self, n):
        # odd n leaked "math domain error" from Gamma((n+1)/2); now every
        # n <= 0 gets the one refusal of outer truncation, never a NaN or
        # negative sigma
        for m in (n, n + 0.5):
            for which in ("r_to_0", "r_to_inf"):
                with pytest.raises(ValueError, match=OUTER_REFUSAL):
                    chi_limits(m, ChiKind.OUTER, which)

    def test_sigma_where_half_n_rounds_to_zero(self):
        # n/2 of the smallest subnormal is 0, where the complete gamma
        # ratio is 0 and the untruncated sigma infinite
        var, sigma, a = chi_limits(5e-324, ChiKind.INNER, "r_to_0")
        assert (var, sigma, a) == (math.inf, math.inf, 0.0)

    def test_inner_limit_r_to_0_matches_untruncated(self):
        var, sigma, a = chi_limits(2.0, ChiKind.INNER, "r_to_0")
        spec = ScaledChiSpec(sigma, 2.0)
        assert chi_var_form1(spec) == pytest.approx(var, rel=1e-11)


def test_spec_validation():
    with pytest.raises(ValueError):
        ScaledChiSpec(-1.0, 2.0)
    with pytest.raises(ValueError):
        ScaledChiSpec(1.0, 2.0, lower=2.0, upper=1.0, kind=ChiKind.DOUBLE)
    with pytest.raises(ValueError):
        ScaledChiSpec(1.0, -2.0)  # nonpositive n needs a positive lower cut
