import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import oracle
from test_r_from_variance import SEAMS, vhat_noise
from trunc_moments import _roots, calibrate, specfun, utgd
from trunc_moments.calibrate import (
    APPROX1_SET_I,
    Method,
    VarianceForm,
    calibrate_approx1,
    calibrate_approx2,
    calibrate_auto,
    point_slope,
    r_from_variance,
    sigma_approx1,
    sigma_approx2,
    sigma_newton,
    solve_U_approx1,
    solve_U_approx2,
    two_point,
)
from trunc_moments.utgd import Side, TruncatedGaussianSpec, dsigma1_dmu

# the two running examples: (mean, variance, cutoff)
A = (1.3, 3.0, -1.0)
B = (1.8, 0.4, 0.5)
# a mean next to 0: calibrate_auto's mean is 1.2e-15 |M - a| off, which
# relative to |M| read 2.3e-12
C = (0.002304685806706175, 16.398848695791177, -4.426486076499787)

# each method with a target it reaches and its sampling locations
_METHODS = {
    "auto": (calibrate_auto, A, ()),
    "approx1": (calibrate_approx1, A, ()),
    "approx2": (calibrate_approx2, B, ()),
    "two-point": (two_point, A, (-0.995, -0.7)),
    "two-point-seeded": (two_point, B, ()),
    "point-slope": (lambda *args, **kw: point_slope(*args, rounds=3, **kw),
                    B, (1.6,)),
    "point-slope-seeded": (point_slope, A, ()),
}


class TestSingleFunctionalSolvers:
    def test_form_solutions_disagree_off_manifold(self):
        M, v, a = A
        s1 = sigma_newton(v, -0.995, a, M, VarianceForm.I)
        s2 = sigma_newton(v, -0.995, a, M, VarianceForm.II)
        assert s1 == pytest.approx(2.87179324, abs=1.5e-8)
        assert s2 == pytest.approx(0.24118430, abs=1.5e-8)
        s1 = sigma_newton(v, -0.7, a, M, VarianceForm.I)
        s2 = sigma_newton(v, -0.7, a, M, VarianceForm.II)
        assert s1 == pytest.approx(2.78224205, abs=1.5e-8)
        assert s2 == pytest.approx(14.47105787, abs=1.5e-8)

    @given(st.floats(min_value=-2.0 ** 18, max_value=38.0))
    @example(-2.0 ** 18)
    @example(-20.0)
    @example(-10.0)
    @example(0.0)
    @example(8.0)
    @example(38.0)
    @settings(max_examples=100)
    def test_r_from_variance_roundtrip(self, r):
        # deep-left the curve flattens as 1/r^2, so the inverse can only be
        # as sharp as the forward evaluation noise divided by the slope: the
        # inverse keeps a residual within twice the noise, and the noise at
        # r and at the root adds the same again
        vhat = utgd.normalized_variance(r)
        r_back = r_from_variance(vhat)
        _, slope = utgd._vhat_slope(r)
        tol = 4.0 * vhat_noise(r) * math.ulp(vhat) / abs(slope)
        if -20.0 <= r <= 8.0:  # the former bound there
            tol = min(tol, 1e-7 * max(1.0, r * r))
        assert abs(r_back - r) <= tol + 4.0 * math.ulp(r)

    def test_r_from_variance_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            r_from_variance(1.0)
        with pytest.raises(ValueError):
            r_from_variance(0.0)


# -- Form I: Newton in ln sigma against the former solver ---------------------

def former_sigma_form1(target_var: float, u: float) -> float:
    """The former Form I of ``sigma_newton`` at u = mu - a: widen [1e-8, 1]
    (u < 0: [-1, -1e-8]) in r by doubling until it brackets the root of
    (u/r)**2 Q(r) = target_var, then Brent; sigma = u/r."""
    def f(r: float) -> float:
        return (u / r) ** 2 * utgd._core(r)[2] - target_var

    lo, hi = (1e-8, 1.0) if u > 0.0 else (-1.0, -1e-8)
    what = f"Form I offset r for variance {target_var:g}"
    bracket = oracle.expand(f, lo, hi, increasing=u < 0.0, what=what,
                            tiny=1e-280, huge=1e12)
    return u / oracle.brentq(f, *bracket, what=what)


def q_noise(r: float) -> float:
    """Bound, in ulps of Q, on |_core(r)[2] - Q(r)|.

    On (-4, 0) the direct zone's 1 - rt - t**2 cancels, the rounding of t
    amplified about r**4 times; on (-11, -4] Q comes from the continued
    fraction, which does not cancel; the series zone's 1 - phi/psi**2
    below -11 cancels about r**2 times, plus its truncation error next to
    the cut.  ``test_q_noise_bound`` holds the kernel to it."""
    if r >= 0.0:
        return 16.0
    if r > -4.0:
        return 256.0 + 16.0 * r ** 4
    if r > -11.0:
        return 12.0
    return 4.0 * r * r + 8e3 * (11.0 / r) ** 30


def mp_q(r: float) -> float:
    # 1 - rt - t**2 cancels about 2 log10(r**2) digits
    with mpmath.workdps(40 + int(4 * math.log10(max(1.0, abs(r))))):
        return float(oracle.mp_gauss(r)[1])


@pytest.mark.parametrize("lo,hi", [
    (-2.0 ** 18, -1e3), (-1e3, -30.0), (-30.0, -13.0), (-13.0, -11.0),
    (-11.0, -9.75), (-9.75, -7.0), (-7.0, -4.0), (-4.0, -2.0), (-2.0, 0.0),
    (0.0, 3.0), (3.0, 38.0)])
def test_q_noise_bound(lo, hi):
    # the bound is two to four times the worst error of a random 400-point
    # scan per zone (more just below 0, where its floor of 256 rules; 5
    # ulps on a 4 000-point scan of [-11, -4])
    rs = [lo + (hi - lo) * (k + 0.5) / 200 for k in range(200)]
    for r in rs + [r for r in SEAMS if lo <= r <= hi]:
        q = utgd._core(r)[2]
        assert abs(q - mp_q(r)) <= q_noise(r) * math.ulp(q), r


def var_form1(sigma: float, u: float) -> float:
    return sigma * sigma * utgd._core(u / sigma)[2]


def form1_residual(sigma: float, u: float, target_var: float) -> float:
    return abs(var_form1(sigma, u) - target_var)


@given(st.floats(min_value=-3.0, max_value=1.0), st.booleans(),
       st.floats(min_value=-4.0, max_value=1.0))
@example(0.0, False, -2.0)
@example(1.0, False, -4.0)  # r about -32
@example(math.log10(9.0), False, -4.0)  # r about -10: the fraction's zone
@example(-3.0, True, 1.0)
@settings(max_examples=200, deadline=None)
def test_form1_agrees_with_the_former_solver(log10_u, above, log10_var):
    # u = mu - a is +-[1e-3, 10] and the variance [1e-4, 10], log-uniform.
    # Where Q's noise exceeds a few ulps (r in about (-4, 0) and below -11),
    # a root is any sigma whose residual is within that noise, and which
    # one a solver keeps is luck
    u = 10.0 ** log10_u * (1.0 if above else -1.0)
    v = 10.0 ** log10_var
    s_new = sigma_newton(v, u, 0.0, 1.0, VarianceForm.I)
    s_old = former_sigma_form1(v, u)
    noise = q_noise(u / s_old) * math.ulp(v)
    assert form1_residual(s_new, u, v) <= max(
        form1_residual(s_old, u, v), 2.0 * noise) + 2.0 * math.ulp(v)


def test_form1_evaluations(monkeypatch):
    # on 2 000 random (u, variance) as above the Newton iteration takes 1 to
    # 6 kernel calls, 4.216 on average (4.255 with the direct Q on (-11,
    # -4]); the former expand-then-Brent 8 to 30
    calls = []

    def counted(r):
        calls.append(r)
        return core(r)

    core = utgd._core
    monkeypatch.setattr(calibrate, "_core", counted)
    rng = np.random.default_rng(7)
    counts = []
    for _ in range(2000):
        u = float(10.0 ** rng.uniform(-3.0, 1.0)) \
            * (1.0 if rng.random() < 0.5 else -1.0)
        v = float(10.0 ** rng.uniform(-4.0, 1.0))
        calls.clear()
        sigma_newton(v, u, 0.0, 1.0, VarianceForm.I)
        counts.append(len(calls))
    assert max(counts) <= 6
    assert sum(counts) <= 4.22 * len(counts)


@pytest.mark.parametrize("v,mu,want", [
    (1e-30, 1.0, 1e-15),  # r = 1e15: Q = 1
    (0.3, 1e-300, math.sqrt(0.3 / (1.0 - 2.0 / math.pi))),  # r ~ 0
    (1e-300, 1e-300, math.sqrt(1e-300 / (1.0 - 2.0 / math.pi))),
    (1e300, 1.0, math.sqrt(1e300 / (1.0 - 2.0 / math.pi))),
    (1e-4, -1e30, None),  # r = -1e16, where Q rounds to 0
    (1e-30, 1e300, None),  # sigma = 1e-15 needs r = 1e315
])
def test_form1_over_every_sigma(v, mu, want):
    # the former searched |r| in [1e-280, 1e12] and failed on the first
    # four; any positive finite sigma at which r is finite is searched now,
    # and where no sigma there reproduces the target the error names them
    if want is None:
        with pytest.raises(ValueError, match=r"^no Form I spread sigma for "
                                             r"variance .* in \["):
            sigma_newton(v, mu, 0.0, 2.0, VarianceForm.I)
        return
    sigma = sigma_newton(v, mu, 0.0, 2.0, VarianceForm.I)
    assert sigma == pytest.approx(want, rel=4e-16)
    assert form1_residual(sigma, mu, v) <= 2.0 * math.ulp(v)


class TestSlopes:
    @pytest.mark.parametrize("r", [-3.0, -0.5, 0.0, 0.6, 2.0, 5.0])
    def test_form1_slope_vs_finite_difference(self, r):
        # walk mu at fixed variance target and watch sigma respond
        a, target = 0.0, None
        sigma = 1.0
        mu = a + r * sigma
        target = utgd.var_form1(sigma, r)
        h = 1e-6
        sp = sigma_newton(target, mu + h, a, mu + 10.0, VarianceForm.I)
        sm = sigma_newton(target, mu - h, a, mu + 10.0, VarianceForm.I)
        assert dsigma1_dmu(r) == pytest.approx((sp - sm) / (2 * h), rel=1e-5)

    def test_form1_slope_extremum(self):
        res = minimize_scalar(dsigma1_dmu, bounds=(0.0, 2.0), method="bounded",
                              options={"xatol": 1e-12})
        assert res.x == pytest.approx(0.5987678543728484, abs=1e-7)
        assert res.fun == pytest.approx(-0.32470827114698586, abs=1e-10)

    def test_worked_example_slopes(self):
        M, v, a = A
        # tangent slope of the Form I level curve at the first probe
        s1 = sigma_newton(v, -0.995, a, M, VarianceForm.I)
        assert dsigma1_dmu((-0.995 - a) / s1) == pytest.approx(
            -0.30009822, abs=1.5e-8)
        # the Form II level curve is a line through (a, 0)
        s2 = sigma_newton(v, -0.995, a, M, VarianceForm.II)
        assert s2 / (-0.995 - a) == pytest.approx(48.23685957, abs=1.5e-8)


class TestApproximations:
    def test_approx1_dataset_a(self):
        M, v, a = A
        res = calibrate_approx1(M, v, a)
        assert res.mu0 == pytest.approx(-0.93790632, abs=1.5e-8)
        assert res.sigma0 == pytest.approx(2.85432733, abs=1.5e-8)
        assert res.var_achieved == pytest.approx(2.99938674, abs=1.5e-8)
        assert res.mean_achieved == pytest.approx(1.30013513, abs=1.5e-8)

    def test_approx2_dataset_b(self):
        M, v, a = B
        res = calibrate_approx2(M, v, a)
        assert res.mu0 == pytest.approx(1.74441942, abs=1.5e-8)
        assert res.sigma0 == pytest.approx(0.68720795, abs=1.5e-8)
        assert res.var_achieved == pytest.approx(0.40059879, abs=1.5e-8)
        assert res.mean_achieved == pytest.approx(1.79955814, abs=1.5e-8)

    def test_sigma_approx1_domain(self):
        with pytest.raises(ValueError):
            sigma_approx1(0.95)
        with pytest.raises(ValueError):
            sigma_approx2(0.5)

    @pytest.mark.parametrize("params", [None, APPROX1_SET_I])
    def test_fn1_envelope_coarse(self, params):
        # coarse sweep; the fine-grained envelope lives in the acceptance run
        kw = {} if params is None else {"params": params}
        for U in [i / 10 for i in range(-100, 10)]:
            exact = 1.0 / _s_of(_r_at_U(U))
            assert abs(sigma_approx1(U, **kw) - exact) / exact < 0.005

    def test_fn2_envelope_coarse(self):
        for U in [0.9, 0.95, 0.99, 0.999, 1.0 - 1e-6]:
            exact = 1.0 / _s_of(_r_at_U(U))
            assert abs(sigma_approx2(U) - exact) / exact < 0.009


def _former_solve_U_approx2(vhat):
    """Function 2's U as found before the solve moved to ln(1 - U): a sign
    change on a 21-point U grid from 1 - 1e-13 down by 0.02, then Brent."""
    grid = [1.0 - 1e-13] + [0.9 - 0.02 * i for i in range(20)]

    def g(u):
        w = specfun.lambert_w0(1.0 / (2.0 * math.pi * (1.0 - u) ** 2))
        return u * u / w - (vhat + 1.0 - u)

    _, lo, _, glo = _roots.scan(g, grid, what="function-2 location U")
    return oracle.brentq(g, lo, grid[0], glo, what="function-2 location U",
                         xtol=1e-12)


def _mp_approx2(vhat):
    """Function 2's U and sigma~ at variance vhat in 50-digit mpmath, solved
    for ln w, w = W(1/(2 pi (1 - U)**2)): 1 - U = 1/sqrt(2 pi w e^w)."""
    with mpmath.workdps(50):
        def parts(t):
            w = mpmath.exp(t)
            eps = 1 / mpmath.sqrt(2 * mpmath.pi * w * mpmath.exp(w))
            return 1 - eps, eps, w

        def ln_ratio(t):
            U, eps, w = parts(t)
            return mpmath.log((U * U / w - eps) / vhat)

        # sigma~**2 ~ 1/w far out; w > 1.1 on the rising branch
        t = mpmath.findroot(ln_ratio, max(-math.log(vhat), 0.5))
        U, _, w = parts(t)
        return U, U / mpmath.sqrt(w)


class TestApproxFunction2:
    # function 2's variance sigma~**2 - (1 - U) peaks at U* = 0.78335
    def test_peak_constants(self):
        with mpmath.workdps(50):
            def v(l):
                eps = mpmath.exp(l)
                w = mpmath.lambertw(1 / (2 * mpmath.pi * eps ** 2)).real
                return (1 - eps) ** 2 / w - eps

            peak = mpmath.findroot(lambda l: mpmath.diff(v, l), -1.5)
            assert calibrate._APPROX2_PEAK_L == float(peak)
            assert calibrate._APPROX2_VHAT_MAX == float(v(peak))

    def test_log_grid_against_mpmath(self):
        # U, and sigma~ where U rounds to 1, to 1e-14 relative from
        # vhat = 1e-300 up to 0.3344, 2.3e-5 below the maximum, where the
        # root is double and its conditioning falls
        for vhat in np.geomspace(1e-300, 0.3344, 121):
            U, s, _ = calibrate._approx2(calibrate._approx2_log_eps(vhat))
            U_mp, s_mp = _mp_approx2(float(vhat))
            assert abs(U - U_mp) <= 1e-14 * U_mp, vhat
            assert abs(s - s_mp) <= 1e-14 * s_mp, vhat
            assert solve_U_approx2(vhat) == U

    def test_former_solver_agrees(self):
        # on the range the former grid reached, within its Brent xtol
        for vhat in np.linspace(0.0186, 0.333, 200):
            assert solve_U_approx2(vhat) == pytest.approx(
                _former_solve_U_approx2(vhat), abs=1e-12, rel=0.0)

    def test_above_the_maximum(self):
        peak = calibrate._APPROX2_VHAT_MAX
        U = solve_U_approx2(peak)  # the double root: 1e-8 in l
        assert U == pytest.approx(0.7833478828573955, abs=1e-7)
        for vhat in (math.nextafter(peak, 1.0), 0.34, 0.9):
            with pytest.raises(ValueError, match=re.escape(
                    "approximating function 2's maximum normalized "
                    "variance 0.33442 (at U = 0.78335)")):
                solve_U_approx2(vhat)

    def test_evaluation_counts(self):
        # 5.5 evaluations on average from the seed sigma~**2 ~ 1/L, up to
        # 25 next to the maximum, where Newton converges only linearly
        counts = []
        for vhat in np.linspace(1e-6, calibrate._APPROX2_VHAT_MAX, 2001):
            with mock.patch.object(calibrate, "_approx2",
                                   wraps=calibrate._approx2) as spy:
                solve_U_approx2(float(vhat))
            counts.append(spy.call_count)
        assert np.mean(counts) < 6.0
        assert max(counts) <= 26

    def test_sigma_at_the_rounding_of_U(self):
        # below 1 - U = 5.6e-17 U is 1 and sigma~ carries the answer:
        # calibrate_approx2 meets both moments of an untruncated model
        for vhat in (1e-3, 1e-100, 1e-300):
            res = calibrate_approx2(1.0, vhat, 0.0)
            assert res.mu0 == 1.0
            assert res.sigma0 == pytest.approx(math.sqrt(vhat), rel=1e-15)


def _mp_mean_var(mu, sigma, a, side):
    """Mean and variance of the truncated Gaussian (mu, sigma, a, side),
    from the closed forms in mpmath.  1 - r*t - t**2 cancels about
    2*log10(r**2) digits, so the working precision grows with r."""
    r = (mu - a) / sigma if side is Side.LEFT else (a - mu) / sigma
    with mpmath.workdps(40 + int(2 * math.log10(1.0 + r * r))):
        r_ = (mpmath.mpf(mu) - a) / sigma
        if side is Side.RIGHT:
            r_ = -r_
        t, q, _ = oracle.mp_gauss(r_)
        s = sigma * (r_ + t)
        mean = a + s if side is Side.LEFT else a - s
        return float(mean), float(sigma ** 2 * q)


def _s_of(r):
    return r + utgd.inverse_mills(r)


def _r_at_U(U, lo=-3000.0, hi=700.0):
    """Location r on the congruent manifold where mu sits at fraction U of
    the cutoff-to-mean distance (M=1, a=0)."""
    from scipy.optimize import brentq
    return brentq(lambda r: r / _s_of(r) - U, lo, hi, xtol=1e-14)


class TestIntersectionMethods:
    def test_two_point_dataset_a(self):
        M, v, a = A
        res = two_point(M, v, a, -0.995, -0.7)
        assert res.mu0 == pytest.approx(-0.94080581, abs=1.5e-8)
        assert res.sigma0 == pytest.approx(2.85534187, abs=1.5e-8)
        assert res.var_achieved == pytest.approx(2.99968031, abs=1.5e-8)
        assert res.mean_achieved == pytest.approx(1.29987745, abs=1.5e-8)

    def test_two_point_dataset_b(self):
        M, v, a = B
        res = two_point(M, v, a, 1.6, 1.64)
        assert res.mu0 == pytest.approx(1.74141742, abs=1.5e-8)
        assert res.sigma0 == pytest.approx(0.68426408, abs=1.5e-8)

    def test_point_slope_dataset_a(self):
        M, v, a = A
        r1 = point_slope(M, v, a, -0.995, rounds=1)
        assert r1.mu0 == pytest.approx(-0.94080194, abs=1.5e-8)
        assert r1.sigma0 == pytest.approx(2.85552850, abs=1.5e-8)
        r2 = point_slope(M, v, a, -0.995, rounds=2)
        assert r2.mu0 == pytest.approx(-0.94080265, abs=1.5e-8)
        assert r2.sigma0 == pytest.approx(2.85549402, abs=1.5e-8)
        assert r2.var_achieved == pytest.approx(3.0, abs=1.5e-8)
        assert r2.mean_achieved == pytest.approx(1.3, abs=1.5e-8)

    def test_point_slope_dataset_b(self):
        M, v, a = B
        rows = {k: point_slope(M, v, a, 1.6, rounds=k) for k in (1, 2, 3)}
        assert rows[1].mu0 == pytest.approx(1.74003554, abs=1.5e-8)
        assert rows[1].sigma0 == pytest.approx(0.68350240, abs=1.5e-8)
        assert rows[2].mu0 == pytest.approx(1.74527287, abs=1.5e-8)
        assert rows[2].sigma0 == pytest.approx(0.68638919, abs=1.5e-8)
        assert rows[3].mu0 == pytest.approx(1.74528023, abs=1.5e-8)
        assert rows[3].sigma0 == pytest.approx(0.68639325, abs=1.5e-8)
        assert rows[3].var_achieved == pytest.approx(0.4, abs=1.5e-8)
        assert rows[3].mean_achieved == pytest.approx(1.8, abs=1.5e-8)


class TestAutoPipeline:
    @pytest.mark.parametrize("case,seed", [(A, Method.APPROX1),
                                           (B, Method.APPROX2),
                                           (C, Method.APPROX1)])
    def test_converges_and_picks_seed(self, case, seed):
        # the seed is the default mu1 of two_point and point_slope;
        # calibrate_auto itself inverts vhat(r) exactly
        M, v, a = case
        assert calibrate._approx_seed(v, M - a)[0] is seed
        res = calibrate_auto(M, v, a)
        assert res.method is Method.EXACT
        assert res.mean_resid < 1e-12
        assert res.var_resid < 1e-12

    def test_rejects_unattainable(self):
        with pytest.raises(ValueError):
            calibrate_auto(1.0, 1.1, 0.0)
        with pytest.raises(ValueError):
            calibrate_auto(1.0, -0.1, 0.0)
        with pytest.raises(ValueError, match="cutoff must lie strictly "
                                             "below the target mean"):
            calibrate_auto(-1.0, 0.5, 0.0)

    @pytest.mark.parametrize("method", list(_METHODS))
    def test_right_side(self, method):
        # (-M, V, -a, -mu1, -mu2) on the right is the left problem mirrored:
        # the same sigma and exactly -mu, bit for bit
        call, (M, v, a), mus = _METHODS[method]
        left = call(M, v, a, *mus)
        right = call(-M, v, -a, *(-mu for mu in mus), side=Side.RIGHT)
        assert right.mu0 == -left.mu0
        assert right.sigma0 == left.sigma0
        assert right.mean_achieved == -left.mean_achieved
        assert (right.var_achieved, right.mean_resid, right.var_resid) == \
            (left.var_achieved, left.mean_resid, left.var_resid)
        spec = TruncatedGaussianSpec(right.mu0, right.sigma0, -a, Side.RIGHT)
        assert utgd.mean_from_params(spec) == pytest.approx(
            right.mean_achieved, rel=1e-12)

    @given(st.floats(min_value=0.02, max_value=0.98),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_random_targets(self, vhat, a, d):
        M = a + d
        res = calibrate_auto(M, vhat * d * d, a)
        assert res.mean_resid < 1e-10
        assert res.var_resid < 1e-10

    @given(st.floats(min_value=-12.0, max_value=math.log10(0.5)),
           st.booleans(), st.sampled_from(Side),
           st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.1, max_value=5.0))
    @example(-12.0, False, Side.LEFT, 0.0, 1.0)
    @example(-12.0, True, Side.LEFT, 0.0, 1.0)
    @example(-12.0, False, Side.RIGHT, 0.0, 1.0)
    @example(-12.0, True, Side.RIGHT, 0.0, 1.0)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_whole_range(self, log10_gap, near_one, side, a, d):
        # vhat, or 1 - vhat, is 10**log10_gap: both tails of (0, 1)
        gap = 10.0 ** log10_gap
        vhat = 1.0 - gap if near_one else gap
        M = a + d if side is Side.LEFT else a - d
        V = vhat * d * d
        res = calibrate_auto(M, V, a, side=side)
        mean, var = _mp_mean_var(res.mu0, res.sigma0, a, side)
        assert abs(mean - M) / d < 1e-10
        assert abs(var - V) / V < 1e-10


def test_switch_point_value():
    # normalized variance where the two approximating functions hand over,
    # U = r/s(r) = 0.9: the literal is the Brent root that approx_switch_vhat
    # solved for on first use, bit for bit
    r = oracle.brentq(lambda r: r / utgd._core(r)[1] - 0.9, 0.0, 10.0,
                      what="offset r at U = 0.9", xtol=1e-15)
    assert calibrate.approx_switch_vhat() == utgd.normalized_variance(r)
    with mpmath.workdps(40):
        r = mpmath.findroot(
            lambda r: r / (r + oracle.mp_gauss(r)[0]) - 0.9, 2.3)
        assert calibrate.approx_switch_vhat() == pytest.approx(
            float(oracle.mp_gauss(r)[2]), rel=1e-15)


@pytest.mark.parametrize("side", list(Side))
@pytest.mark.parametrize("method", list(_METHODS))
def test_every_method_names_the_bound(method, side):
    # M = a divided by zero in approx2, and M on the wrong side gave
    # approx1 a negative sigma; one check names the bound instead
    call, (M, v, a), mus = _METHODS[method]
    sign = -1.0 if side is Side.RIGHT else 1.0
    M, a = sign * M, sign * a
    mus = [sign * mu for mu in mus]
    where = "above" if side is Side.RIGHT else "below"
    for mean in (a, 2.0 * a - M):  # at the cutoff, mirrored past it
        with pytest.raises(ValueError, match=f"^the cutoff must lie "
                           f"strictly {where} the target mean$"):
            call(mean, v, a, *mus, side=side)
    d2 = (M - a) ** 2
    for var in (d2, 2.0 * d2):
        with pytest.raises(ValueError, match=re.escape(
                f"the variance of any such model is confined to "
                f"(0, (mean - cutoff)^2) = (0, {d2:g}); got {var:g}")):
            call(M, var, a, *mus, side=side)
