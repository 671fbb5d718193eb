"""``r_from_variance`` inverts vhat(r) by a seeded, safeguarded Newton
iteration: roots that agree with the former expand-then-Brent solver,
residuals no worse than its own outside vhat's evaluation noise, and a
bounded number of kernel calls."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from trunc_moments import calibrate, utgd
from trunc_moments.calibrate import r_from_variance

HALF_PI_M1 = math.pi / 2.0 - 1.0  # vhat(0), the half-normal
GUARD_TARGETS = [1e-300, 1e-12, 0.018, 0.1, 0.3, HALF_PI_M1, 0.9, 0.95, 0.98,
                 1.0 - 1e-6, 1.0 - 1e-12]
# the left tail's zone cuts, utgd._TAIL_CUT and _SERIES_CUT, and their float
# neighbours, which the kernels' sweeps take besides their grids
SEAMS = [x for cut in (-4.0, -11.0)
         for x in (math.nextafter(cut, -math.inf), cut,
                   math.nextafter(cut, 0.0))]


# -- the former solver, kept as the oracle ------------------------------------

def former_r_from_variance(vhat_target: float) -> float:
    """The former ``r_from_variance``: widen [-1, 1] by doubling until it
    brackets the root, then Brent."""
    if not 0.0 < vhat_target < 1.0:
        raise ValueError("normalized variance must lie in (0, 1)")

    def f(r: float) -> float:
        return utgd.normalized_variance(r) - vhat_target

    what = f"offset r with normalized variance {vhat_target:g}"
    return oracle.brentq(f, *oracle.expand(
        f, -1.0, 1.0, increasing=False, what=what), what=what)


# -- the forward noise of vhat ------------------------------------------------

def vhat_noise(r: float) -> float:
    """Bound, in ulps of vhat, on |normalized_variance(r) - vhat(r)|.

    On (-4, 0) the direct zone's 1 - rt - t**2 and r + t cancel, and the
    rounding of t is amplified about r**4 times; from -4 down vhat is
    1 - u y2 (y3 - y2) on the continued fraction's tails, which does not
    cancel (1 ulp at worst on a 3 000-point scan of [-2**18, -4]).
    ``test_vhat_noise_bound`` holds the kernel to it."""
    if r >= 0.0:
        return 16.0
    if r > -4.0:
        return 256.0 + 16.0 * r ** 4
    return 2.0


def mp_vhat(r: float) -> float:
    # 1 - rt - t**2 cancels about 2 log10(r**2) digits
    with mpmath.workdps(40 + int(4 * math.log10(max(1.0, abs(r))))):
        return float(oracle.mp_gauss(r)[2])


@pytest.mark.parametrize("lo,hi", [
    (-2.0 ** 18, -1e3), (-1e3, -30.0), (-30.0, -13.0), (-13.0, -11.0),
    (-11.0, -9.75), (-9.75, -7.0), (-7.0, -4.0), (-4.0, -2.0), (-2.0, 0.0),
    (0.0, 3.0), (3.0, 38.0)])
def test_vhat_noise_bound(lo, hi):
    # the bound is about twice the worst error of a random 400-point scan
    # per zone (1 ulp on a 3 000-point scan of [-2**18, -4]); 509 ulps just
    # above the -4 cut
    rs = [lo + (hi - lo) * (k + 0.5) / 200 for k in range(200)]
    for r in rs + [r for r in SEAMS if lo <= r <= hi]:
        v = utgd.normalized_variance(r)
        assert abs(v - mp_vhat(r)) <= vhat_noise(r) * math.ulp(v), r


def residual(r: float, vhat_target: float) -> float:
    return abs(utgd.normalized_variance(r) - vhat_target)


# -- the new solver against the oracle ----------------------------------------

@given(st.floats(min_value=-300.0, max_value=math.log10(0.5)), st.booleans())
@example(math.log10(1.0 - 0.98), True)  # the residual-noise zone
@example(math.log10(1.0 - 0.97), True)
@example(math.log10(1.0 - 0.9), True)
@example(math.log10(HALF_PI_M1), False)
@example(-300.0, False)
@example(-15.95, True)  # 1 - vhat near the float spacing below 1
@settings(max_examples=200, deadline=None)
def test_agrees_with_the_former_solver(log10_gap, near_one):
    # vhat, or 1 - vhat, is log-uniform on [1e-300, 0.5]; 1 - vhat is drawn
    # from its representable part, at least the spacing of floats below 1
    gap = 10.0 ** log10_gap
    if near_one:
        gap = max(gap, 2.0 ** -53)
    vhat = 1.0 - gap if near_one else gap
    r_new, r_old = r_from_variance(vhat), former_r_from_variance(vhat)
    res_new, res_old = residual(r_new, vhat), residual(r_old, vhat)
    # where vhat's evaluation noise exceeds a few ulps (r in about (-4, -1))
    # a root is any r whose residual is within that noise, and which one a
    # solver keeps is luck
    noise = vhat_noise(r_old) * math.ulp(vhat)
    assert res_new <= max(res_old, 2.0 * noise) + 2.0 * math.ulp(vhat)
    # both roots lie within the noise floor, over the slope, of the true one
    _, slope = utgd._vhat_slope(r_old)
    spread = res_new + res_old + 2.0 * noise
    # vhat = 1/r**2 exactly above r = 9; its slope underflows from 5.6e102
    tol = spread / abs(slope) if slope else spread * r_old / (2.0 * vhat)
    assert abs(r_new - r_old) <= tol + 4.0 * math.ulp(r_old)


def count_calls(monkeypatch) -> list[float]:
    """The offsets at which ``r_from_variance`` calls its kernel, from now
    on."""
    calls = []

    def counted(r):
        calls.append(r)
        return utgd._vhat_slope(r)

    monkeypatch.setattr(calibrate, "_vhat_slope", counted)
    return calls


def test_at_most_three_evaluations(monkeypatch):
    # the seed, one Newton step and one evaluation after the step that
    # falls below 1e-8 max(1, |r|): with vhat within a few ulps on (-11,
    # -4] no evaluation is spent on redrawing its noise, where up to 6 were
    calls = count_calls(monkeypatch)
    rng = np.random.default_rng(34)
    targets = np.concatenate([rng.uniform(0.0, 1.0, 3000),
                              10.0 ** rng.uniform(-300.0, 0.0, 500),
                              1.0 - 10.0 ** rng.uniform(-15.9, 0.0, 500)])
    counts = []
    for vhat in targets:
        calls.clear()
        r_from_variance(float(vhat))
        counts.append(len(calls))
    assert max(counts) <= 3


@pytest.mark.parametrize("vhat", GUARD_TARGETS)
def test_evaluations_per_inversion(monkeypatch, vhat):
    # a silent fall-back to bracketing would take 9 to 521 evaluations here
    calls = count_calls(monkeypatch)
    r = r_from_variance(vhat)
    assert len(calls) <= 3
    noise = vhat_noise(r) * math.ulp(vhat)
    assert residual(r, vhat) <= max(
        residual(former_r_from_variance(vhat), vhat), 2.0 * noise) \
        + 2.0 * math.ulp(vhat)


@pytest.mark.parametrize("seed", [-50.0, 0.0, 50.0])
@pytest.mark.parametrize("vhat", [1e-12, 0.3, 0.98, 1.0 - 1e-9])
def test_bracket_safeguards_a_poor_seed(monkeypatch, seed, vhat):
    # from a seed far off the root Newton overshoots, and the bracket's
    # bisection brings it back
    monkeypatch.setattr(calibrate, "_r_seed", lambda v: seed)
    r, r_old = r_from_variance(vhat), former_r_from_variance(vhat)
    noise = vhat_noise(r_old) * math.ulp(vhat)
    assert residual(r, vhat) <= max(residual(r_old, vhat), 2.0 * noise) \
        + 2.0 * math.ulp(vhat)


@pytest.mark.parametrize("vhat", [1e-320, 5e-324])
def test_subnormal_target(vhat):
    # r * r overflows, so the kernel reads vhat = 0 at the root; the seed
    # 1/sqrt(vhat) is the root of vhat = 1/r**2 and is returned as it is
    assert r_from_variance(vhat) == 1.0 / math.sqrt(vhat)


def zoned_dvhat(r: float) -> float:
    """``dnormalized_variance_dr`` from the pieces of the public kernels:
    the reduction of d(Q/s**2)/dr on ``_core``'s t, s and Q above the tail
    cut, the continued fraction's tails from it down."""
    if r > utgd._TAIL_CUT:
        t, s, q = utgd._core(r)
        return t + q * (t * s - 2.0) / (s * s * s)
    u, (y1, y2, y3, y4) = utgd._tails(r, 4)
    return u / r * y2 * (y1 * y2 - 2.0 * y2 * y3 + y3 * y4) / y1


def test_slope_kernel_is_bit_identical_to_the_public_kernels():
    rs = [-math.inf, -1e300, -1e100, -2.0 ** 18, -1e3, -11.0, -10.99,
          -10.5, -9.75, -4.0, -3.99, -3.0, 0.0, 2.0, 40.0, 1e200]
    rs += [k / 64.0 for k in range(-1280, 1281)]
    for r in rs:
        assert utgd._vhat_slope(r) == (utgd.normalized_variance(r),
                                       zoned_dvhat(r)), r


def test_seed_is_close():
    # within 1.4e-4 of the root over r in [-15, 15]
    for k in range(-300, 301):
        r = k / 20.0
        assert calibrate._r_seed(utgd.normalized_variance(r)) == pytest.approx(
            r, abs=1.4e-4 * max(1.0, abs(r)))
