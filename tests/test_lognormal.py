import math
import random

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trunc_moments import lognormal
from trunc_moments.lognormal import (
    back_moments,
    calibrate_original,
    log_var_forms,
    log_xi,
    lognormal_slopes,
)

# census-style worked example: ln(income) modeled above a reporting floor
CENSUS = dict(mu=10.53367109, sigma=1.02333081, a=9.6125)


def mp_slopes(mu, sigma, a, dps=50):
    """d(sigma)/d(mu) along the level curves of the two log-variance
    forms, from mpmath derivatives of the forms themselves; Form II at the
    congruent mean, held fixed."""
    with mpmath.workdps(dps):
        mu_, s_, a_ = map(mpmath.mpf, (mu, sigma, a))

        def xi(z):
            return mpmath.erfc(-z / mpmath.sqrt(2))

        def forms(m, s, log_m):
            r = (m - a_) / s
            x0 = xi(r)
            d1 = mpmath.log(xi(r + s) / x0)
            d2 = mpmath.log(xi(r + 2 * s) / x0)
            return (2 * s * s + 2 * m + d2
                    + mpmath.log(-mpmath.expm1(-s * s + 2 * d1 - d2)),
                    2 * log_m + mpmath.log(mpmath.expm1(
                        -2 * m + 2 * log_m + d2 - 4 * d1)))

        r = (mu_ - a_) / s_
        log_m = s_ * s_ / 2 + mu_ + mpmath.log(xi(r + s_) / xi(r))
        return tuple(
            float(-mpmath.diff(lambda m: forms(m, s_, log_m)[i], mu_)
                  / mpmath.diff(lambda s: forms(mu_, s, log_m)[i], s_))
            for i in (0, 1))


def mp_log_var_form1(mu, sigma, a, dps=80):
    """Form I's ln Var(Y) in mpmath, digits enough for its cancellation
    at sigma = 1e-6."""
    with mpmath.workdps(dps):
        mu_, s_, a_ = map(mpmath.mpf, (mu, sigma, a))
        r = (mu_ - a_) / s_
        x0, x1, x2 = (mpmath.erfc(-(r + k * s_) / mpmath.sqrt(2))
                      for k in range(3))
        d1, d2 = mpmath.log(x1 / x0), mpmath.log(x2 / x0)
        return float(2 * s_ * s_ + 2 * mu_ + d2
                     + mpmath.log(-mpmath.expm1(-s_ * s_ + 2 * d1 - d2)))


def mp_back_moments(mu, sigma, a, dps=60):
    """E[Y], Var[Y] for Y = exp(X), X truncated Gaussian, by quadrature."""
    with mpmath.workdps(dps):
        mu_, s_, a_ = map(mpmath.mpf, (mu, sigma, a))
        z0 = mpmath.erfc(-(mu_ - a_) / (s_ * mpmath.sqrt(2))) / 2

        def mom(k):
            return mpmath.quad(
                lambda x: mpmath.exp(k * x) * mpmath.npdf(x, mu_, s_) / z0,
                [a_, mu_ + 40 * s_])

        m1 = mom(1)
        return float(m1), float(mom(2) - m1 ** 2)


def test_log_xi_matches_erfc_log():
    for z in (-30.0, -3.0, -0.5, 0.0, 1.0, 6.0):
        want = math.log(math.erfc(-z / math.sqrt(2.0)))
        assert log_xi(z) == pytest.approx(want, rel=1e-13)


def test_log_xi_deep_tail():
    # direct erfc underflows near z = -40; the split branch must not
    with mpmath.workdps(40):
        want = float(mpmath.log(mpmath.erfc(60 / mpmath.sqrt(2))))
    assert log_xi(-60.0) == pytest.approx(want, rel=1e-13)


class TestBackMoments:
    def test_census_row(self):
        res = back_moments(**CENSUS)
        assert res.mean_y == pytest.approx(75588.26676, rel=1e-3)
        assert res.var_y == pytest.approx(8.30314328e9, rel=1e-3)

    @pytest.mark.parametrize("mu,sigma,a", [
        (0.0, 1.0, -1.0),
        (2.0, 0.5, 1.8),
        (-1.0, 2.0, 0.5),     # cutoff above the location
        (10.5, 1.02, 9.61),
    ])
    def test_vs_quadrature(self, mu, sigma, a):
        want_m, want_v = mp_back_moments(mu, sigma, a)
        res = back_moments(mu, sigma, a)
        assert res.mean_y == pytest.approx(want_m, rel=1e-11)
        assert res.var_y == pytest.approx(want_v, rel=1e-10)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            back_moments(800.0, 1.0, 799.0)


class TestLogVarForms:
    @given(st.floats(min_value=-2.0, max_value=4.0),
           st.floats(min_value=0.05, max_value=2.5),
           st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=60)
    # deep cutoffs (r near -79 and -75), where log xi is ~ -r**2/2
    @example(mu=-1.0, sigma=0.05078125, a=3.0)
    @example(mu=-1.75, sigma=0.05, a=2.0)
    def test_congruence(self, mu, sigma, a):
        lv1, lv2 = log_var_forms(mu, sigma, a)
        # the xi-difference rounding noise is amplified when sigma is small
        # and the cutoff deep, so the property holds to ~1e-6 in log space;
        # the census anchors pin the exact digits
        assert lv2 == pytest.approx(lv1, abs=2e-6)

    def test_census_congruent_point(self):
        lv1, lv2 = log_var_forms(**CENSUS)
        assert lv1 == pytest.approx(22.8398940417, abs=1e-7)
        assert lv2 == pytest.approx(lv1, abs=1e-9)

    def test_tiny_sigma_delta_method(self):
        # Var[Y] -> sigma^2 Q(r) M_y^2 as sigma -> 0; both forms must agree
        # with that limit instead of cancelling to garbage
        mu, sigma, a = 1.0, 1e-8, 0.5
        lv1, lv2 = log_var_forms(mu, sigma, a)
        from trunc_moments.utgd import var_form1
        r = (mu - a) / sigma
        res = back_moments(mu, sigma, a)
        want = 2.0 * math.log(res.mean_y) + math.log(var_form1(sigma, r))
        assert lv1 == pytest.approx(want, abs=1e-6)
        assert lv2 == pytest.approx(want, abs=1e-6)


    def test_small_sigma_vs_mpmath(self):
        # the bound ``_forms`` states down to sigma = 1e-6 at the congruent
        # mean, where Form II's log variance is Form I's; the log-xi second
        # differences gave Form I 2.6e-4 at r = -2.73, sigma = 4e-6 and
        # 3.7e-5 at r = -3, sigma = 1e-5, and Form II 3.7e-5 and 2.5e-6 at
        # r = -3 and 0, sigma = 1e-5
        rng = random.Random(20261021)
        cases = [(-2.7317, 4.0106e-6), (-3.0, 1e-5), (0.0, 3e-6),
                 (-3.0, 1e-4), (2.0, 1e-6), (-2.9784, 1.1553e-3),
                 (0.0, 1e-5)]
        cases += [(rng.uniform(-3.0, 2.0), 10.0 ** rng.uniform(-6.0, -2.0))
                  for _ in range(40)]
        # deeper, where Q at z_1 comes from the continued fraction (r <= -4)
        cases += [(-6.0, 1e-6), (-10.0, 1e-6), (-6.0, 1e-5), (-10.0, 3e-3)]
        cases += [(rng.uniform(-10.0, -6.0), 10.0 ** rng.uniform(-6.0, -3.0))
                  for _ in range(10)]
        for r, sigma in cases:
            a = rng.uniform(0.0, 10.0)
            mu = a + r * sigma
            want = mp_log_var_form1(mu, sigma, a)
            assert log_var_forms(mu, sigma, a) == pytest.approx(
                (want, want), abs=5e-8), (r, sigma)


class TestSlopes:
    @pytest.mark.parametrize("mu,sigma,a", [
        (10.6, 0.96, 9.6125),
        (1.0, 0.8, 0.2),
        (0.5, 1.5, 1.0),
    ])
    def test_vs_finite_difference(self, mu, sigma, a):
        res = back_moments(mu, sigma, a)
        k1, k2 = lognormal_slopes(mu, sigma, a, res.mean_y)
        h = 1e-6

        def sig_on_curve(form, mu_probe):
            # sigma that keeps the given log-variance form at its value;
            # Form II's anchor mean stays fixed along its curve
            target = log_var_forms(mu, sigma, a, M_y=res.mean_y)[form]
            from scipy.optimize import brentq
            return brentq(
                lambda s: log_var_forms(mu_probe, s, a,
                                        M_y=res.mean_y)[form] - target,
                sigma * 0.8, sigma * 1.25, xtol=1e-14)

        fd1 = (sig_on_curve(0, mu + h) - sig_on_curve(0, mu - h)) / (2 * h)
        assert k1 == pytest.approx(fd1, rel=1e-5)
        fd2 = (sig_on_curve(1, mu + h) - sig_on_curve(1, mu - h)) / (2 * h)
        assert k2 == pytest.approx(fd2, rel=1e-5)

    # (r, sigma) boxes and the relative error bounds for (Form I, Form II)
    # that lognormal_slopes states on them
    @pytest.mark.parametrize("r_box, sigma_box, bounds", [
        ((-1.0, 2.0), (0.3, 1.5), (1e-13, 3e-14)),
        ((-6.0, 4.0), (0.05, 2.5), (1.5e-10, 3.5e-11)),
        ((-6.0, 4.0), (1e-3, 0.05), (5e-7, 2.5e-10)),
        ((-80.0, -40.0), (0.01, 0.05), (1.5e-4, 4.5e-8)),
    ])
    def test_vs_mpmath(self, r_box, sigma_box, bounds):
        rng = random.Random(20250)
        for _ in range(12):
            r = rng.uniform(*r_box)
            lo, hi = sigma_box
            sigma = lo * (hi / lo) ** rng.random()
            a = rng.uniform(0.0, 10.0)
            mu = a + r * sigma
            got = lognormal_slopes(mu, sigma, a, 1.0)
            for k, want, bound in zip(got, mp_slopes(mu, sigma, a), bounds):
                assert k == pytest.approx(want, rel=bound, abs=0.0), \
                    (mu, sigma, a)

    @pytest.mark.parametrize("r, sigma", [(5.0, 20.0), (-1.0, 20.0),
                                          (1.0, 30.0)])
    def test_wide_sigma(self, r, sigma):
        # exp(sigma**2) overflowed in the raw-xi algebra (OverflowError)
        mu, a = 1.0 + r * sigma, 1.0
        assert lognormal_slopes(mu, sigma, a, 1.0) == pytest.approx(
            mp_slopes(mu, sigma, a), rel=1e-13, abs=0.0)

    def test_far_above_the_cutoff(self):
        # r = 40: every tail underflows and the forms are the untruncated
        # lognormal's; Form II does not move with sigma there (the raw-xi
        # algebra read NaN for Form I)
        sigma = 1.0
        k1, k2 = lognormal_slopes(41.0, sigma, 1.0, 1.0)
        c = math.exp(-sigma * sigma) / math.expm1(-sigma * sigma)
        assert k1 == pytest.approx(-2.0 / (4.0 * sigma - 2.0 * sigma * c),
                                   rel=1e-15)
        assert k2 == -math.inf

    def test_deep_cutoff(self):
        # r = -50: xi(r) underflows, and the slopes divided by it
        mu, sigma, a = 9.0, 0.02, 10.0
        got = lognormal_slopes(mu, sigma, a, 1.0)
        for k, want, bound in zip(got, mp_slopes(mu, sigma, a),
                                  (1.5e-4, 4.5e-8)):
            assert k == pytest.approx(want, rel=bound, abs=0.0)

    def test_form1_small_sigma_vs_mpmath(self):
        # the bound lognormal_slopes states down to sigma = 1e-6, where the
        # t-differences gave 2.5e-2 at r = -3 and 5.7e-4 at r = 2
        rng = random.Random(20261020)
        cases = [(2.0, 1e-6), (-3.0, 1e-6), (-3.0, 1e-5), (0.0, 1e-2)]
        cases += [(rng.uniform(-3.0, 2.0), 10.0 ** rng.uniform(-6.0, -2.0))
                  for _ in range(40)]
        for r, sigma in cases:
            a = rng.uniform(0.0, 10.0)
            mu = a + r * sigma
            got = lognormal_slopes(mu, sigma, a, 1.0)[0]
            assert got == pytest.approx(mp_slopes(mu, sigma, a)[0],
                                        rel=5e-8, abs=0.0), (r, sigma)

    def test_form2_slope_fd_at_fixed_target(self):
        # the Form II curve constrains Var(Y) at fixed E[Y]; reproduce by FD
        mu, sigma, a = 10.6, 0.96, 9.6125
        res = back_moments(mu, sigma, a)
        _, k2 = lognormal_slopes(mu, sigma, a, res.mean_y)
        from scipy.optimize import brentq
        target = log_var_forms(mu, sigma, a, M_y=res.mean_y)[1]

        def sig2(mu_probe):
            return brentq(
                lambda s: log_var_forms(mu_probe, s, a, M_y=res.mean_y)[1]
                - target, sigma * 0.8, sigma * 1.25, xtol=1e-14)

        h = 1e-6
        fd2 = (sig2(mu + h) - sig2(mu - h)) / (2 * h)
        assert k2 == pytest.approx(fd2, rel=1e-5)


class TestForm1Rises:
    """``calibrate_original`` solves Form I by Newton in sigma, which needs
    Form I's log variance to rise with sigma."""

    def test_sigma_partial_is_positive(self):
        # r = (mu - a)/sigma in [-1e4, 1e6] over the whole sigma grid; in
        # the deeper left tail the partial's terms cancel.  Form II is
        # anchored to the mean e^mu, where its arg falls past -709 up the
        # grid: its partials' factor e^arg/expm1(arg) must not overflow
        rng = random.Random(28)
        rs = [-1e4, -1e3, -60.0, -10.0, -1.0, 0.0, 1.0, 10.0, 40.0, 1e3, 1e6]
        rs += [rng.uniform(-60.0, 40.0) for _ in range(20)]
        for r in rs:
            a = rng.uniform(0.0, 10.0)
            for sigma in lognormal._SIGMA_GRID:
                mu = a + r * sigma
                parts = lognormal._forms(mu, sigma, a, mu)[3]
                d_sigma = lognormal._partials(parts)[0][1]
                assert d_sigma > 0.0, (r, sigma)

    @pytest.mark.parametrize("root, seed", [(1.0, 1e-6), (1e-5, 1e-3)])
    def test_newton_from_the_deep_left_tail(self, monkeypatch, root, seed):
        # at mu - a = -10, r runs below -1e4 for sigma below 1e-3, where the
        # sigma-partial's terms cancel (8.0e16 at r = -1e7): Newton stepped
        # by it to sigma = 1.0000000007e-6, 55.6 below the target in ln
        # Var, from the first seed, and to 9.44e-6, 0.23 below, from the
        # second.  Form I's solve now takes no step there
        mu, a = 0.0, 10.0
        target = lognormal._forms(mu, root, a)[1]
        newton, got = lognormal._roots.newton, []

        def form1_only(*args, **kwargs):  # Form I's solve comes first
            try:
                got.append(newton(*args, **kwargs))
            except ValueError as exc:
                got.append(str(exc))
            raise LookupError

        monkeypatch.setattr(lognormal._roots, "newton", form1_only)
        with pytest.raises(LookupError):
            lognormal._sigma_pair(mu, a, 0.0, target, seed)
        if root == 1.0:
            assert got == [pytest.approx(1.0, rel=1e-13)]
        else:
            # r = -1e6: Form I's computed log variance jumps over the
            # target by 1.1e-4 (both q's carry about r**2 ulps there), so
            # the nearest sigma misses it by 4e-5, beyond the solve's 1e-6
            assert got == ["no sigma reproducing the target variance at "
                           "this mu in [1e-06, 63.0957]"]

    def test_log_variance_rises_along_the_grid(self):
        # at fixed mu - a in [-60, 40]: r runs from (mu - a)/63 to 1e6 (mu - a)
        rng = random.Random(2028)
        for _ in range(100):
            a = rng.uniform(0.0, 15.0)
            mu = a + rng.uniform(-60.0, 40.0)
            values = []
            for sigma in lognormal._SIGMA_GRID:
                # Form II, at the mean e^mu, is undefined up the grid
                values.append(lognormal._forms(mu, sigma, a, mu)[1])
            assert all(map(float.__lt__, values, values[1:])), mu - a


class TestCalibrateOriginal:
    def test_census_panel_b(self):
        # seed is the approximation-seeded location from the log-space fit
        rows = [calibrate_original(75588.26676, 8.30314328e9, 9.6125,
                                   mu_seed=10.62072268, rounds=k)
                for k in (1, 2, 3)]
        assert rows[0].mu0 == pytest.approx(10.54083623, abs=5e-5)
        assert rows[0].sigma0 == pytest.approx(1.02134843, abs=5e-5)
        assert rows[2].mu0 == pytest.approx(10.53367109, abs=5e-5)
        assert rows[2].sigma0 == pytest.approx(1.02333081, abs=5e-5)
        # residual shrinkage round over round
        resids = [max(r.mean_resid, r.var_resid) for r in rows]
        assert resids[1] < resids[0]
        assert resids[2] < resids[1]
        assert resids[2] < 1e-8

    def test_reproduces_targets(self):
        res = calibrate_original(75588.26676, 8.30314328e9, 9.6125,
                                 mu_seed=10.62072268, rounds=3)
        back = back_moments(res.mu0, res.sigma0, 9.6125)
        assert back.mean_y == pytest.approx(75588.26676, rel=1e-9)
        assert back.var_y == pytest.approx(8.30314328e9, rel=1e-9)
