import math
import re

import pytest

from trunc_moments import utgd
from trunc_moments.chi import ChiKind, ScaledChiSpec, chi_raw_moment, chi_var_form1
from oracle import expand, quad_moment, sample_truncated
from trunc_moments.utgd import Side, TruncatedGaussianSpec


def half_normal(x):
    return math.sqrt(2.0 / math.pi) * math.exp(-x * x / 2.0)


class TestQuadMoment:
    def test_half_normal_mean(self):
        est = quad_moment(half_normal, (0.0, math.inf), k=1)
        assert est.value == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-11)
        assert est.abs_err_bound < 1e-10
        assert est.evaluations > 0

    def test_rayleigh_second_moment(self):
        est = quad_moment(lambda x: x * math.exp(-x * x / 2.0),
                          (0.0, math.inf), k=2)
        assert est.value == pytest.approx(2.0, abs=1e-11)

    def test_truncated_gaussian_mean(self):
        # mu=0, sigma=2, cutoff 0: mean is sigma*sqrt(2/pi) ~ 1.5958
        est = quad_moment(lambda x: half_normal(x / 2.0) / 2.0,
                          (0.0, math.inf), k=1)
        assert est.value == pytest.approx(1.5958, abs=5e-5)

    def test_center_shifts_moment(self):
        m = quad_moment(half_normal, (0.0, math.inf), k=1).value
        c2 = quad_moment(half_normal, (0.0, math.inf), k=2, center=m).value
        assert c2 == pytest.approx(1.0 - 2.0 / math.pi, abs=1e-11)

    def test_split_handles_sharp_peak(self):
        # chi with n=200: nearly all mass in a thin shell near R=14
        from trunc_moments.chi import chi_density
        spec = ScaledChiSpec(1.0, 200.0)
        est = quad_moment(lambda R: chi_density(spec, R), (0.0, math.inf),
                          k=2, split=(math.sqrt(200.0),))
        assert est.value == pytest.approx(chi_raw_moment(spec, 2), rel=1e-11)

    def test_halving_tolerance_consistent(self):
        loose = quad_moment(half_normal, (0.0, math.inf), k=3, tol=1e-9)
        tight = quad_moment(half_normal, (0.0, math.inf), k=3, tol=5e-10)
        assert abs(loose.value - tight.value) <= max(loose.abs_err_bound,
                                                     1e-12)


class TestSampler:
    def test_deterministic(self):
        spec = TruncatedGaussianSpec(0.5, 1.2, 0.0)
        one = sample_truncated(spec, 50_000, seed=123)
        two = sample_truncated(spec, 50_000, seed=123)
        assert one == two
        other = sample_truncated(spec, 50_000, seed=124)
        assert other.mean != one.mean

    def test_gaussian_rejection_route(self):
        # Table-1-style spec at r=1: Var = 0.37981
        sigma = utgd.sigma_from_mean_r(1.0, 1.0, 0.0)
        spec = TruncatedGaussianSpec(sigma, sigma, 0.0)
        summ = sample_truncated(spec, 1_000_000, seed=7)
        assert abs(summ.variance - 0.37981) < 4.0 * summ.var_se
        assert abs(summ.mean - 1.0) < 4.0 * summ.mean_se

    def test_exponential_tail_route(self):
        # acceptance ~ 1e-15: forces the one-sided exponential proposal
        spec = TruncatedGaussianSpec(-8.0, 1.0, 0.0)
        summ = sample_truncated(spec, 200_000, seed=11)
        M = utgd.mean_from_params(spec)
        v = utgd.var_form1(1.0, -8.0)
        assert abs(summ.mean - M) < 4.0 * summ.mean_se
        assert abs(summ.variance - v) < 4.0 * summ.var_se

    def test_right_side(self):
        spec = TruncatedGaussianSpec(0.3, 1.0, 1.5, Side.RIGHT)
        summ = sample_truncated(spec, 200_000, seed=3)
        M = utgd.mean_from_params(spec)
        assert abs(summ.mean - M) < 4.0 * summ.mean_se

    def test_rayleigh_chi(self):
        spec = ScaledChiSpec(3.14, 2.0)
        summ = sample_truncated(spec, 1_000_000, seed=42)
        want = 3.14 * math.sqrt(math.pi / 2.0)
        assert abs(summ.mean - want) < 4.0 * summ.mean_se

    def test_truncated_chi(self):
        spec = ScaledChiSpec(1.0, 3.0, lower=1.8)
        summ = sample_truncated(spec, 300_000, seed=9)
        assert abs(summ.mean - chi_raw_moment(spec, 1)) < 4.0 * summ.mean_se
        assert abs(summ.variance - chi_var_form1(spec)) < 4.0 * summ.var_se

    def test_doubly_truncated_chi(self):
        spec = ScaledChiSpec(1.0, 2.0, lower=0.5, upper=1.5,
                             kind=ChiKind.DOUBLE)
        summ = sample_truncated(spec, 200_000, seed=21)
        assert abs(summ.mean - chi_raw_moment(spec, 1)) < 4.0 * summ.mean_se

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_truncated(TruncatedGaussianSpec(0.0, 1.0, 0.0), 0, seed=1)


# -- the former solvers' bracket search ---------------------------------------

@pytest.mark.parametrize("increasing,a,root,want", [
    (True, -1.0, 100.0, (-1.0, 128.0)),       # b grows outwards
    (True, -1.0, -3.0, (-4.0, 1.0)),          # a grows outwards
    (False, 1e-3, 1e-9, (1e-3 / 2 ** 20, 1.0)),  # a shrinks towards 0
])
def test_expand_moves_the_endpoint_on_the_root_side(increasing, a, root,
                                                    want):
    sign = 1.0 if increasing else -1.0
    a, b, fa, fb = expand(lambda x: sign * (x - root), a, 1.0,
                          increasing=increasing, what="x")
    assert (a, b) == want
    assert fa * fb <= 0.0


def test_expand_follows_the_stated_direction_on_flat_curves():
    # |f| is equal at both ends, so only the stated monotonicity says that
    # the root lies beyond b
    def step(x):
        return 1.0 if x < 5.0 else -1.0

    assert expand(step, 1e-3, 1.0, increasing=False, what="x") == \
        (1e-3, 8.0, 1.0, -1.0)


def test_expand_stops_at_its_limit():
    # b doubles from 1 while it stays below the default huge = 1e300, a
    # halves from 0.5 while it stays above tiny = 1e-300; the message names
    # the last bracket searched
    top = 2.0 ** math.floor(math.log2(1e300))
    with pytest.raises(ValueError,
                       match=re.escape(f"no x in [0.5, {top:.6g}]")):
        expand(lambda x: x - math.inf, 0.5, 1.0, increasing=True, what="x")
    bottom = 2.0 ** math.ceil(math.log2(1e-300))
    with pytest.raises(ValueError,
                       match=re.escape(f"no x in [{bottom:.6g}, 1]")):
        expand(lambda x: x, 0.5, 1.0, increasing=True, what="x")
