import bisect
import math
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import oracle
from test_r_from_variance import SEAMS
from trunc_moments import utgd
from trunc_moments.utgd import Side, TruncatedGaussianSpec

SQRT_2_PI = math.sqrt(2.0 / math.pi)


def mp_central_moments(r, ks, dps=40):
    """(E[W], [E[(W - E[W])**k] for k in ks]) for the excess W = Z - x of a
    standard normal Z >= x = -r, by quadrature of W's density, which is
    proportional to exp(-x w - w**2/2) on w >= 0; about the mean, so
    nothing cancels."""
    with mpmath.workdps(dps):
        x = -mpmath.mpf(r)

        def f(w):
            return mpmath.exp(-x * w - w * w / 2)

        # the mass lies within a few 1/x of 0 for x > 0, near -x otherwise
        peak, width = max(-x, 0), 1 / (abs(x) + 1)
        pts = [0, peak + width, peak + 10 * width, mpmath.inf]
        mass = mpmath.quad(f, pts)
        mean = mpmath.quad(lambda w: w * f(w), pts) / mass
        return mean, [mpmath.quad(lambda w: (w - mean) ** k * f(w), pts) / mass
                      for k in ks]


def mp_shape(r):
    """(skewness, kurtosis) at r from the raw moments of z >= -r by their
    recurrence m_k = (k-1) m_(k-2) + (-r)**(k-1) t: the 4th central moment
    cancels about 8 log10|r| digits, which the working precision adds."""
    with mpmath.workdps(40 + int(8 * math.log10(max(1.0, abs(r))))):
        x = -mpmath.mpf(r)
        t, _, _ = oracle.mp_gauss(r)
        m = [mpmath.mpf(1), t]
        for k in range(2, 5):
            m.append((k - 1) * m[k - 2] + x ** (k - 1) * t)
        c2 = m[2] - m[1] ** 2
        c3 = m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3
        c4 = m[4] - 4 * m[1] * m[3] + 6 * m[1] ** 2 * m[2] - 3 * m[1] ** 4
        return float(c3 / c2 ** 1.5), float(c4 / c2 ** 2)


def test_inverse_mills_at_zero():
    assert utgd.inverse_mills(0.0) == pytest.approx(SQRT_2_PI, rel=1e-15)


@given(st.floats(min_value=-300.0, max_value=35.0))
def test_inverse_mills_positive_and_dominates_r(r):
    t = utgd.inverse_mills(r)
    assert t > 0.0
    assert r + t > 0.0  # the truncated mean always exceeds the cutoff


@pytest.mark.parametrize("r", [-1e6, -3e4, -500.0, -21.0, -20.0, -19.5,
                               -8.0, -2.0, 0.0, 1.0, 5.0, 30.0])
def test_core_against_mpmath(r):
    with mpmath.workdps(50):
        t, _, vhat = map(float, oracle.mp_gauss(r))
    assert utgd.inverse_mills(r) == pytest.approx(t, rel=5e-15)
    # the direct zone loses a few digits to cancellation just above the
    # series handover; 1e-10 is the honest envelope there
    assert utgd.normalized_variance(r) == pytest.approx(vhat, rel=1e-10)


def test_normalized_variance_at_zero():
    # half-normal: vhat = pi/2 - 1
    assert utgd.normalized_variance(0.0) == pytest.approx(
        math.pi / 2.0 - 1.0, rel=1e-15)


@given(st.floats(min_value=-1e5, max_value=35.0))
def test_variance_bound(r):
    vhat = utgd.normalized_variance(r)
    assert 0.0 < vhat < 1.0


def test_normalized_variance_monotone_decreasing():
    rs = [-50.0, -20.5, -20.0, -19.5, -4.0, 0.0, 4.0, 20.0]
    vals = [utgd.normalized_variance(r) for r in rs]
    assert vals == sorted(vals, reverse=True)


@pytest.mark.parametrize("r", [-100.0, -25.0, -5.0, 0.0, 3.0])
def test_dvhat_matches_finite_difference(r):
    h = 1e-6 * max(1.0, abs(r))
    fd = (utgd.normalized_variance(r + h)
          - utgd.normalized_variance(r - h)) / (2.0 * h)
    assert utgd.dnormalized_variance_dr(r) == pytest.approx(fd, rel=5e-6)


@pytest.mark.parametrize("r", [-20.0, -18.5, -16.0, -14.0, -12.5, -11.0,
                               -10.75, -10.59, -10.25, -10.0, -9.75, -9.5,
                               -9.0, -8.5, -8.0])
def test_dvhat_against_mpmath(r):
    # [-20, -11] is series zone: the direct formula was off by up to 2e-6
    # relative here (r = -16 is a slope-table row).  On (-11, -8] the direct
    # slope on the continued fraction's t, s and Q holds it to 1e-11; with
    # the direct t, s and Q, and the series below a cut at -9.75, it was
    # 1.0e-8 (the direct formula alone 2.4e-8 off near -10.59).
    rel = 1e-12 if r <= -11.0 else 1e-11
    with mpmath.workdps(60):
        want = float(mpmath.diff(lambda x: oracle.mp_gauss(x)[2],
                                 mpmath.mpf(r)))
    assert utgd.dnormalized_variance_dr(r) == pytest.approx(want, rel=rel)


def mp_slopes(r):
    """(dvhat/dr, dsigma1/dmu) at r from the exact reductions of the
    derivatives on t, s and Q (t' = -t s, Q' = t (s**2 - Q)), in a working
    precision that covers their cancellation: about 8 log10|r| digits."""
    with mpmath.workdps(30 + int(8 * math.log10(max(1.0, abs(r))))):
        x = mpmath.mpf(r)
        t, q, _ = oracle.mp_gauss(x)
        s = x + t
        dq = t * (s * s - q)
        return float(t + q * (t * s - 2) / s ** 3), float(dq / (x * dq - 2 * q))


# log-spaced r in [-2**18, -4], where vhat, its slope and dsigma1/dmu come
# from the continued fraction
TAIL_GRID = [-2.0 ** (2.0 + 16.0 * k / 399) for k in range(400)]


def mp_tails(r, m):
    """[y_1, ..., y_m], y_k = x E[W**k]/E[W**(k-1)] for the excess W = Z - x
    of a standard normal Z >= x = -r, from E[W] = t - x forward by
    E[W**(k+1)] = k E[W**(k-1)] - x E[W**k]: E[W] and each step cancel
    about 2 log10 x digits, which the working precision adds."""
    with mpmath.workdps(30 + int(2 * (m + 1) * math.log10(abs(r)))):
        x = -mpmath.mpf(r)
        t, _, _ = oracle.mp_gauss(r)
        e = [mpmath.mpf(1), t - x]
        for k in range(1, m):
            e.append(k * e[k - 1] - x * e[k])
        return [float(x * e[k] / e[k - 1]) for k in range(1, m + 1)]


def test_tails_against_the_moment_ratios():
    # the continued fraction's tails at the depths its callers take, on a
    # 3 400-point scan: y_m, the one nearest the fraction's start, within
    # 1.2e-14 relative (y_6 of m = 6 near r = -8.66, where the depth
    # m + 8 + 450u steps down), the others within 1.7e-15
    for r in TAIL_GRID:
        want = mp_tails(r, 6)
        for m in (2, 4, 6):
            u, ys = utgd._tails(r, m)
            assert u == 1.0 / (r * r) and len(ys) == m, (r, m)
            for k, (got, y) in enumerate(zip(ys, want), 1):
                rel = 2e-14 if k == m else 4e-15
                assert abs(got - y) <= rel * y, (r, m, k)


def test_dvhat_in_the_fraction_zone():
    # (u/r) y2 (y1 y2 - 2 y2 y3 + y3 y4)/y1: 1.1e-14 at worst on a
    # 3 000-point scan; t + Q (ts - 2)/s**3 on the fraction's t, s and Q
    # was 3.9e-12 off on (-11, -4], the series 3.2e-10 below
    for r in TAIL_GRID:
        assert utgd.dnormalized_variance_dr(r) == pytest.approx(
            mp_slopes(r)[0], rel=2e-14), r


def test_dsigma1_dmu_in_the_fraction_zone():
    # g/(r (g + 2 (y2 - y1))), g = y1 y2 (y3 - y2)(1 + u y1): 6.7e-16 at
    # worst on a 3 000-point scan; dQ/(r dQ - 2Q) on the fraction's t, s
    # and Q was 1.9e-14 off on (-11, -4], the series 1e-11 below
    for r in TAIL_GRID:
        assert utgd.dsigma1_dmu(r) == pytest.approx(
            mp_slopes(r)[1], rel=3e-15), r
    # beyond it ~ 1/(2r), also where u = 1/r**2 underflows to 0 (the
    # series read NaN there), down to the last float
    for r in (-1e100, -1e160, -1e300, -sys.float_info.max):
        assert utgd.dsigma1_dmu(r) == pytest.approx(0.5 / r, rel=1e-14), r
    assert utgd.dsigma1_dmu(-math.inf) == 0.0
    assert math.copysign(1.0, utgd.dsigma1_dmu(-math.inf)) == -1.0


def test_dvar_asymptotes():
    # -2/r^3 on the right, 4/r^3 on the left
    r = 1024.0
    assert utgd.dvar_dr(1.0, r, 0.0) == pytest.approx(-2.0 / r ** 3, rel=1e-3)
    assert utgd.dvar_dr(1.0, -r, 0.0) == pytest.approx(-4.0 / r ** 3, rel=1e-3)
    # 4/r**3 formed as 4u/r, u = 1/r**2, which u*u*r would underflow from
    # |r| = 1e77; at -inf the limit -0.0
    assert utgd.dnormalized_variance_dr(-1e100) == pytest.approx(
        -4e-300, rel=1e-14)
    assert math.copysign(1.0, utgd.dnormalized_variance_dr(-math.inf)) == -1.0
    assert utgd.dnormalized_variance_dr(-math.inf) == 0.0


# the series zone: log-spaced r in [-2**18, -11], and the sweeps' grid there
SERIES_GRID = sorted({-2.0 ** (k / 64.0) for k in range(222, 64 * 18 + 1)}
                     | {k * 0.01 for k in range(-6000, -1099)} | {-11.0})
SERIES_POLYS = ("_PSI", "_PHI")


def test_series_depth_keeps_the_full_depth_digits(monkeypatch):
    # _core's t, s and Q, from psi and phi taking only the terms that carry
    # digits at u, stay within 4 ulps of Horner's rule over every
    # coefficient (Q within 4 ulps of 1, as it is 1 minus a sum near 1)
    from trunc_moments.specfun import _polyval

    got = [utgd._core(r) for r in SERIES_GRID]
    monkeypatch.setattr(utgd, "_series",
                        lambda poly, u: _polyval(poly[1][-1][::-1], u))
    for r, have in zip(SERIES_GRID, got):
        for key, x, y in zip("tsq", have, utgd._core(r)):
            ulp = math.ulp(1.0 if key == "q" else y)
            assert abs(x - y) <= 4.0 * ulp, (r, key, x, y)


def depth(name, r):
    breaks, heads = getattr(utgd, name)
    return len(heads[bisect.bisect_right(breaks, 1.0 / (r * r))])


def test_series_depth_follows_its_rule():
    # at each depth every omitted term is below 2**-60/L of the leading one
    for name in SERIES_POLYS:
        coef = getattr(utgd, name)[1][-1][::-1]
        m = next(k for k, c in enumerate(coef) if c)
        for r in SERIES_GRID:
            u = 1.0 / (r * r)
            bound = 2.0 ** -60 * abs(coef[m] * u ** m) / len(coef)
            k0 = depth(name, r)
            assert all(abs(c) * u ** k < bound
                       for k, c in enumerate(coef[k0:], k0)), (name, r)


def test_series_kernels_take_only_the_terms_with_digits(monkeypatch):
    # _core runs Horner over just that depth: at r = -60 over at most 10
    # terms, at r = -11 over all of psi's and phi's
    taken = []

    class Counted(tuple):
        def __iter__(self):
            taken.append((self.name, len(self)))
            return super().__iter__()

    def counted(name, head):
        head = Counted(head)
        head.name = name
        return head

    for name in SERIES_POLYS:
        breaks, heads = getattr(utgd, name)
        monkeypatch.setattr(utgd, name, (breaks, tuple(
            counted(name, head) for head in heads)))
    for r in (-2.0 ** 18, -60.0, -20.0, -11.0):
        taken.clear()
        utgd._core(r)
        assert {name for name, _ in taken} == set(SERIES_POLYS)
        assert all(k == depth(name, r) for name, k in taken), (r, taken)
        if r == -60.0:
            assert max(k for _, k in taken) <= 10
    assert all(k == len(getattr(utgd, name)[1][-1]) for name, k in taken)


class TestMeanAndForms:
    def test_mean_roundtrip(self):
        spec = TruncatedGaussianSpec(mu=-0.9408, sigma=2.8555, cutoff=-1.0)
        M = utgd.mean_from_params(spec)
        assert utgd.sigma_from_mean_r(M, spec.r, -1.0) == pytest.approx(
            2.8555, rel=1e-14)

    def test_right_side_mirror(self):
        left = TruncatedGaussianSpec(0.4, 1.7, -0.3, Side.LEFT)
        right = TruncatedGaussianSpec(-0.4 - 0.6, 1.7, -0.3, Side.RIGHT)
        ml = utgd.mean_from_params(left)
        mr = utgd.mean_from_params(right)
        assert ml - (-0.3) == pytest.approx((-0.3) - mr, rel=1e-14)

    @given(st.floats(min_value=-30.0, max_value=8.0),
           st.floats(min_value=0.05, max_value=20.0),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=80)
    def test_form_congruence(self, r, sigma, a):
        mu = a + r * sigma
        M = utgd.mean_from_params(TruncatedGaussianSpec(mu, sigma, a))
        v1 = utgd.var_form1(sigma, r)
        v2 = utgd.var_form2(M, r, a)
        assert v2 == pytest.approx(v1, rel=1e-11)
        assert 0.0 < v2 < (M - a) ** 2

    def test_var_from_mu_sigma_warns_on_mismatch(self):
        spec = TruncatedGaussianSpec(0.2, 1.1, 0.0)
        M = utgd.mean_from_params(spec)
        assert utgd.var_from_mu_sigma(M, 0.2, 1.1, 0.0) == pytest.approx(
            utgd.var_form1(1.1, spec.r), rel=1e-12)
        with pytest.warns(RuntimeWarning):
            utgd.var_from_mu_sigma(M + 0.01, 0.2, 1.1, 0.0)


class TestShape:
    def test_half_normal_closed_forms(self):
        s, k, _, _ = utgd.skewness_kurtosis(1.0, 0.0, 0.0)
        want_s = math.sqrt(2.0) * (4.0 - math.pi) / (math.pi - 2.0) ** 1.5
        want_k = 3.0 + 8.0 * (math.pi - 3.0) / (math.pi - 2.0) ** 2
        assert s == pytest.approx(want_s, abs=1e-12)
        assert k == pytest.approx(want_k, abs=1e-12)

    def test_untruncated_limit(self):
        # cutoff far below the location: the parent Gaussian shape survives
        s, k, _, _ = utgd.skewness_kurtosis(1.0, 300.0, 0.0)
        assert s == pytest.approx(0.0, abs=1e-12)
        assert k == pytest.approx(3.0, abs=1e-12)

    def test_deep_truncation_limit(self):
        # cutoff far above the location: exponential-tail shape
        s, k, _, _ = utgd.skewness_kurtosis(1.0, -1e6, 0.0)
        assert s == pytest.approx(2.0, rel=1e-5)
        assert k == pytest.approx(9.0, rel=1e-5)

    # SEAMS adds the cuts at -4 and -11 and their float neighbours
    @pytest.mark.parametrize("r", [-1000.0, -50.0, -10.0, -9.94, -9.5, -7.0,
                                   -5.0, -3.0, 0.0, 4.0] + SEAMS)
    def test_against_mpmath_moments(self, r):
        _, (c2, c3, c4) = mp_central_moments(r, (2, 3, 4))
        want_s = float(c3 / c2 ** 1.5)
        want_k = float(c4 / c2 ** 2)
        s, k, _, _ = utgd.skewness_kurtosis(1.0 - r, r, -r)
        # the continued fraction from r = -4 down, the direct form above;
        # never looser than the former rel=2e-8 (with abs=1e-10 for S)
        tol = 1e-12 if r <= -4.0 else 1e-9
        assert s == pytest.approx(
            want_s, abs=min(tol, max(2e-8 * abs(want_s), 1e-10)))
        assert k == pytest.approx(
            want_k, abs=min(tol, max(2e-8 * abs(want_k), 1e-12)))

    @pytest.mark.parametrize("r", [-2.0 ** k for k in range(2, 19)]
                             + [-4.5, -6.0, -12.0, -100.0, -3e4])
    def test_deep_tail_against_the_moment_recurrence(self, r):
        s, k = mp_shape(r)
        got_s, got_k, _, _ = utgd.skewness_kurtosis(1.0, r, 0.0)
        assert got_s == pytest.approx(s, abs=1e-12)
        assert got_k == pytest.approx(k, abs=1e-12)

    def test_grid_across_the_former_series_switch(self):
        # where a switch from the direct form to u-series polynomials at
        # r = -10 left the kurtosis up to 2.9e-7 off (near r = -9.94)
        off = []
        for i in range(-1200, -499):
            r = i / 100.0
            s, k = mp_shape(r)
            got_s, got_k, _, _ = utgd.skewness_kurtosis(1.0, r, 0.0)
            if not (abs(got_s - s) <= 1e-9 and abs(got_k - k) <= 1e-9):
                off.append((r, got_s - s, got_k - k))
        assert not off, off

    @pytest.mark.parametrize("r", [-100.0, -10.5, -4.0, -3.99, 0.5, 20.0])
    def test_wrappers_share_the_normalized_kernel(self, r):
        # on either side of the -4 cut, bit for bit: the normalized pair is
        # normalized_shape's, the unnormalized pair scales by var_form2
        skew, kurt = utgd.normalized_shape(r)
        var = utgd.var_form2(-2.0, -r, 0.0, Side.RIGHT)
        assert utgd.skewness_kurtosis(-2.0, -r, 0.0, Side.RIGHT) == (
            -skew, kurt, -skew * var ** 1.5, kurt * var * var)
        summary = utgd.moment_summary(TruncatedGaussianSpec(2.0 * r, 2.0, 0.0))
        assert (summary.skewness, summary.kurtosis) == (skew, kurt)

    def test_right_side_flips_skewness(self):
        sl, kl, _, _ = utgd.skewness_kurtosis(1.0, 0.7, 0.0, Side.LEFT)
        # the mirrored spec keeps r = (mu - a)/sigma, which flips sign
        sr, kr, _, _ = utgd.skewness_kurtosis(-1.0, -0.7, 0.0, Side.RIGHT)
        assert sr == pytest.approx(-sl, rel=1e-14)
        assert kr == pytest.approx(kl, rel=1e-14)


def test_central_moments_56_vs_quadrature():
    sigma, r, a = 1.3, -0.4, 0.2
    mu = a + r * sigma
    spec = TruncatedGaussianSpec(mu, sigma, a)
    M = utgd.mean_from_params(spec)
    cm5, cm6 = utgd.central_moments_56(M, r, a)

    norm = math.erfc(-r / math.sqrt(2.0)) / 2.0

    def dens(x):
        z = (x - mu) / sigma
        return math.exp(-z * z / 2.0) / (sigma * math.sqrt(2 * math.pi) * norm)

    got5 = oracle.quad_moment(dens, (a, math.inf), k=5, center=M)
    got6 = oracle.quad_moment(dens, (a, math.inf), k=6, center=M)
    assert cm5 == pytest.approx(got5.value, rel=1e-10)
    assert cm6 == pytest.approx(got6.value, rel=1e-10)


@pytest.mark.parametrize("r", [-1000.0, -50.0, -20.0, -5.0, -3.0, -2.0,
                               math.nextafter(-4.0, 0.0)])
def test_central_moments_56_left_tail_vs_quadrature(r):
    # at M - a = 1 the unnormalized moments are those of the excess over
    # the cutoff divided by its mean's powers; the shift from the parent
    # mean was 2.0 / 1.4e3 relative off at r = -50.  Just above the -4 cut
    # the shift's cancellation leaves cm6 2.9e-9 off (3.9e-9 at worst on
    # (-4, -3])
    rel = 4e-9 if -4.0 < r < -3.0 else 1e-9
    mean, (c5, c6) = mp_central_moments(r, (5, 6))
    cm5, cm6 = utgd.central_moments_56(1.0, r, 0.0)
    assert cm5 == pytest.approx(float(c5 / mean ** 5), rel=rel)
    assert cm6 == pytest.approx(float(c6 / mean ** 6), rel=rel)


def test_central_moments_56_right_side_mirror():
    cm5, cm6 = utgd.central_moments_56(1.0, -20.0, 0.0)
    assert utgd.central_moments_56(-1.0, 20.0, 0.0, Side.RIGHT) == (-cm5, cm6)


class TestHeightAndDensity:
    def test_r_from_height_roundtrip(self):
        # boundary-to-mode density ratio exp(-r^2/2) inverts back to r
        for r in (0.0, 0.3, 2.0, 5.0):
            assert utgd.r_from_height(math.exp(-r * r / 2.0)) \
                == pytest.approx(r, abs=1e-12)
        with pytest.raises(ValueError):
            utgd.r_from_height(1.5)

    def test_density_normalizes(self):
        M, r, a = 1.2, -0.8, 0.1
        sigma = utgd.sigma_from_mean_r(M, r, a)
        norm = math.erfc(-r / math.sqrt(2.0)) / 2.0
        h = 1.0 / (sigma * math.sqrt(2.0 * math.pi) * norm)  # modal density
        est = oracle.quad_moment(
            lambda x: utgd.density(M, r, a, x, h), (a, math.inf), k=0)
        assert est.value == pytest.approx(1.0, rel=1e-11)

    def test_var_max_from_height(self):
        # boundary at full modal height means r = 0, i.e. the half-normal
        assert utgd.var_max_from_height(1.0, 0.0, 1.0) == pytest.approx(
            math.pi / 2.0 - 1.0, rel=1e-12)


def test_moment_summary_consistent():
    spec = TruncatedGaussianSpec(0.5, 1.4, -0.2)
    summ = utgd.moment_summary(spec)
    M = utgd.mean_from_params(spec)
    assert summ.mean == pytest.approx(M, rel=1e-14)
    assert summ.variance == pytest.approx(utgd.var_form1(1.4, spec.r), rel=1e-13)
    s, k, _, _ = utgd.skewness_kurtosis(M, spec.r, -0.2)
    assert summ.skewness == pytest.approx(s, rel=1e-13)
    assert summ.kurtosis == pytest.approx(k, rel=1e-13)
    cm5, cm6 = utgd.central_moments_56(M, spec.r, -0.2)
    assert summ.cm5 == pytest.approx(cm5, rel=1e-13)
    assert summ.cm6 == pytest.approx(cm6, rel=1e-13)


def test_moment_summary_right_side_mirror():
    # the right side at (-mu, -a) is the left side mirrored about 0: odd
    # moments change sign, even ones stay, bit for bit
    left = utgd.moment_summary(TruncatedGaussianSpec(0.5, 1.4, -0.2))
    right = utgd.moment_summary(
        TruncatedGaussianSpec(-0.5, 1.4, 0.2, Side.RIGHT))
    for name in ("mean", "m3", "skewness", "cm5"):
        assert getattr(right, name) == -getattr(left, name), name
    for name in ("m2", "m4", "variance", "kurtosis", "cm6"):
        assert getattr(right, name) == getattr(left, name), name


def test_density_right_side_mirror():
    # the right side at (-M, -r, -a) is the left side mirrored about 0
    M, r, a, h = 1.2, -0.8, 0.1, 0.7
    for x in (0.1, 0.5, 3.0):
        assert utgd.density(-M, -r, -a, -x, h, Side.RIGHT) == \
            utgd.density(M, r, a, x, h)
    assert utgd.density(-M, r, -a, 0.0, h, Side.RIGHT) == 0.0
    with pytest.raises(ValueError, match="right truncation requires M < a"):
        utgd.density(M, r, a, 0.0, h, Side.RIGHT)


def test_density_right_side_takes_the_spec_r():
    # the right side's density from the spec's own r integrates to 1 over
    # x <= a
    spec = TruncatedGaussianSpec(0.4, 1.3, 1.0, Side.RIGHT)
    M = utgd.mean_from_params(spec)
    norm = math.erfc(spec.r / math.sqrt(2.0)) / 2.0  # mass below the cutoff
    h = 1.0 / (spec.sigma * math.sqrt(2.0 * math.pi) * norm)
    total, _ = quad(lambda x: utgd.density(M, spec.r, spec.cutoff, x, h,
                                           Side.RIGHT),
                    -math.inf, spec.cutoff)
    assert total == pytest.approx(1.0, rel=1e-10)


def test_spec_validation():
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(0.0, -1.0, 0.0)
    with pytest.raises(ValueError):
        TruncatedGaussianSpec(0.0, 0.0, 0.0)
