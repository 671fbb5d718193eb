"""``calibrate_original`` solves both level curves by Newton, Form II's in
the grid cell that a bisection over the sigma grid finds: the same
results (to 1e-13) and the same errors as the two scans and Brent solves
it replaced, one log-xi step evaluation per sigma and round, the slopes'
included, and the walk up the grid only where the bisection cannot vouch
for its cell."""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trunc_moments import _roots, lognormal, specfun
from trunc_moments.calibrate import CalibrationResult, Method, _intersect
from trunc_moments.lognormal import (
    _SIGMA_GRID,
    back_moments,
    calibrate_original,
    lognormal_slopes,
)

INCOME = (75588.26676, 8.30314328e9, 9.6125, 10.62072268)


# -- the former solver, kept as the oracle ------------------------------------

def _former_scan(f, grid, *, what):
    """The former ``_roots.scan``: first cell of the grid over which f
    changes sign, skipping cells where f is NaN or raises."""
    prev = None
    for x in grid:
        try:
            fx = f(x)
        except (ArithmeticError, ValueError):
            fx = math.nan
        if prev is not None and _roots._straddles(prev[1], fx):
            return prev[0], x, prev[1], fx
        prev = None if fx != fx else (x, fx)
    raise ValueError(f"no {what} in [{min(grid):.6g}, {max(grid):.6g}]")


def _former_solve_sigma(log_var_at_sigma, target_log_var):
    def g(s):
        return log_var_at_sigma(s) - target_log_var

    what = "sigma reproducing the target variance at this mu"
    return _roots.brentq(g, *_former_scan(g, _SIGMA_GRID, what=what),
                         what=what)


def _form1(mu, s, a):
    return lognormal._forms(mu, s, a)[1]


def _form2(mu, s, a, log_m):
    return lognormal._forms(mu, s, a, log_m)[2]


def _former_calibrate_original(M_y, var_y, a, mu_seed, rounds=3,
                               trace=None):
    """The former ``calibrate_original``: two scans of the sigma grid per
    round, one per variance form, each evaluating the log-xi steps at
    every grid point it visits.  The slopes, the intersection and the
    back-transform are the package's own.  Each round's (mu, s1, s2) is
    appended to ``trace``."""
    if not M_y > math.exp(a):
        raise ValueError("target mean must exceed e**cutoff")
    if not var_y > 0.0 or rounds < 1:
        raise ValueError("need var_y > 0 and rounds >= 1")
    target = math.log(var_y)
    mu = mu_seed
    mu0 = sigma0 = math.nan
    growth = 0
    gap_prev = math.inf
    for _ in range(rounds):
        s1 = _former_solve_sigma(lambda s: _form1(mu, s, a), target)
        s2 = _former_solve_sigma(
            lambda s: _form2(mu, s, a, math.log(M_y)), target)
        if trace is not None:
            trace.append((mu, s1, s2))
        k1 = lognormal_slopes(mu, s1, a, M_y)[0]
        k2 = lognormal_slopes(mu, s2, a, M_y)[1]
        mu0, sigma0 = _intersect(mu, s1, s2, k1, k2)
        gap = abs(s2 - s1)
        growth = growth + 1 if gap > gap_prev else 0
        if growth >= 3:
            raise RuntimeError("point-slope iteration diverging")
        gap_prev = gap
        mu = mu0
    back = back_moments(mu0, sigma0, a)
    return CalibrationResult(
        mu0=mu0, sigma0=sigma0, method=Method.POINT_SLOPE, iterations=rounds,
        mean_resid=abs(back.mean_y - M_y) / M_y,
        var_resid=abs(back.var_y - var_y) / var_y,
        mean_achieved=back.mean_y, var_achieved=back.var_y)


def _outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except Exception as exc:  # the type and message must match too
        return type(exc).__name__, str(exc)


def _assert_same_outcome(got, want, req=None):
    """The same exception type and message, or mu0 and sigma0 within
    1e-13 relative: both roots come from Newton solves, not from Brent in
    the grid cells that the former scans found, and the two differ in
    their last bits (mu0 and sigma0 at most 1.3e-14 relative apart on
    1 800 census-like requests)."""
    if not isinstance(want, CalibrationResult):
        assert got == want, req
    else:
        assert isinstance(got, CalibrationResult), req
        assert (got.mu0, got.sigma0) == pytest.approx(
            (want.mu0, want.sigma0), rel=1e-13, abs=0.0), req


def _census_like(rng):
    """Original-scale targets of a log-income model, as the benchmark's
    calib stream draws them; mu < a is the slow mode of the scan."""
    a = rng.uniform(8.0, 11.0)
    sigma = rng.uniform(0.3, 1.5)
    mu = a + rng.uniform(-1.0, 2.0) * sigma
    back = back_moments(mu, sigma, a)
    return back.mean_y, back.var_y, a, mu + rng.uniform(-0.1, 0.1)


def test_same_results_as_two_scans_on_census_like_requests():
    rng = random.Random(20261018)
    raised = 0
    for _ in range(150):
        req = _census_like(rng)
        want = _outcome(_former_calibrate_original, *req)
        _assert_same_outcome(_outcome(calibrate_original, *req), want, req)
        raised += not isinstance(want, CalibrationResult)
    assert raised > 0  # the requests that raise are compared too


@given(mu=st.floats(5.0, 12.0), sigma=st.floats(0.2, 2.0),
       shift=st.floats(-1.5, 2.5), seed_off=st.floats(-0.3, 0.3),
       var_scale=st.floats(0.5, 2.0), rounds=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
@example(mu=10.53367109, sigma=1.02333081, shift=-0.8, seed_off=0.0,
         var_scale=1.0, rounds=3)
def test_same_results_as_two_scans_property(mu, sigma, shift, seed_off,
                                            var_scale, rounds):
    a = mu - shift * sigma
    try:
        back = back_moments(mu, sigma, a)
    except OverflowError:
        return
    req = (back.mean_y, back.var_y * var_scale, a, mu + seed_off)
    trace = []
    want = _outcome(_former_calibrate_original, *req, rounds=rounds,
                    trace=trace)
    got = _outcome(calibrate_original, *req, rounds=rounds)
    # every round's pair of roots, at the former's mu, within 1e-13
    log_m, target = math.log(req[0]), math.log(req[1])
    seed = 1.0
    for mu_k, s1, s2 in trace:
        pair = lognormal._sigma_pair(mu_k, a, log_m, target, seed)[:2]
        assert pair == pytest.approx((s1, s2), rel=1e-13, abs=0.0), req
        seed = s1
    # Where the rounds have not converged (the result misses a target by
    # more than 1e-8), the result is a point on the way, often diverging
    # (mu0 = -446 after 4 rounds), and each round multiplies the roots'
    # last-bit differences; there the rounds above are the comparison
    if (isinstance(want, CalibrationResult)
            and max(want.mean_resid, want.var_resid) > 1e-8):
        assert isinstance(got, CalibrationResult), req
    else:
        _assert_same_outcome(got, want, req)


# -- the erfcx asymptotic series ----------------------------------------------

def _former_erfcx_series(x):
    """The former loop over the 8-term asymptotic series (x >= 26)."""
    w = 0.5 / x / x
    acc = 1.0
    for k in range(8, 0, -1):
        acc = 1.0 - (2 * k - 1) * w * acc
    return specfun._INV_SQRT_PI / x * acc


@given(st.floats(26.0, 1e300))
@settings(max_examples=300)
@example(26.0)
@example(1e154)
@example(1.5e154)
@example(1e300)
def test_erfcx_series_matches_the_former_loop(x):
    assert specfun._erfcx(x) == _former_erfcx_series(x)


def test_erfcx_series_matches_the_former_loop_on_a_grid():
    for k in range(3000):
        x = 26.0 * 10.0 ** (k * 298.5 / 2999)
        assert specfun._erfcx(x) == _former_erfcx_series(x), x


# -- evaluation count -----------------------------------------------------------

def _count_steps(monkeypatch):
    """The sigmas of the ``_log_xi_steps`` calls, one list per round (a
    ``_sigma_pair`` call) after a first list for what comes before any;
    ``_roots.brentq`` must not be called."""
    rounds = [[]]
    steps, sigma_pair = lognormal._log_xi_steps, lognormal._sigma_pair

    def counted_steps(r, sigma):
        rounds[-1].append(sigma)
        return steps(r, sigma)

    def counted_pair(*args):
        rounds.append([])
        return sigma_pair(*args)

    def no_brentq(*args, **kwargs):  # not an Exception, which _outcome takes
        pytest.fail("calibrate_original calls brentq")

    monkeypatch.setattr(lognormal, "_log_xi_steps", counted_steps)
    monkeypatch.setattr(lognormal, "_sigma_pair", counted_pair)
    monkeypatch.setattr(_roots, "brentq", no_brentq)
    return rounds


def test_one_step_evaluation_per_sigma_and_round(monkeypatch):
    # the income example: both roots are Newton solves, and each sigma's
    # tails are computed once a round, the slopes' included.  Form I's
    # Newton solve evaluates off the grid; Form II probes 3 grid points,
    # galloping from the cell of Form I's root, then solves by Newton in
    # its cell.  The walk took 125 grid points a round
    def no_walk(*args):
        raise AssertionError("the income example needs no walk")

    monkeypatch.setattr(_roots, "_walk", no_walk)
    rounds = _count_steps(monkeypatch)
    calibrate_original(*INCOME)
    back = rounds[-1].pop()  # the final back-transform
    assert back == pytest.approx(1.02333081, abs=5e-5)
    assert rounds[0] == []
    assert [len(at) for at in rounds[1:]] == [10, 12, 11]
    for at in rounds[1:]:
        assert len(set(at)) == len(at)
        assert len(set(at) & set(_SIGMA_GRID)) == 3


def test_step_evaluations_on_census_like_requests(monkeypatch):
    # at most once per sigma and round, and no more a request than this
    # sample took when Form II's Brent solve and the separate evaluations
    # for the slopes went (54.25 a request before)
    rounds = _count_steps(monkeypatch)
    rng = random.Random(20261018)
    total = 0
    for _ in range(150):
        req = _census_like(rng)
        rounds[:] = [[]]
        _outcome(calibrate_original, *req)
        total += sum(map(len, rounds))
        for at in rounds[1:]:
            assert len(set(at)) == len(at)
    assert total <= 6806  # 45.37 a request


# -- the walk, where the bisection cannot vouch for its cell --------------------

# calib-stream requests: in the first, Form II's gap is NaN at every grid
# point of round 2, grid[0] included; in the second, Form II's gallop in
# round 1 probes past its sign change into the NaN cells above it, which
# count as past the crossing
NAN_AT_GRID_0 = (29196.226537544066, 79543388.35232405, 9.606232695150453,
                 10.310902759990936)
NAN_AT_A_PROBE = (10125.873522588625, 10194645.587503992, 8.630586093239648,
                  9.1136655769772)


def _count_walks(monkeypatch):
    walks, walk = [], _roots._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(_roots, "_walk", counted)
    return walks


@pytest.mark.parametrize("req,raises", [
    ((INCOME[0], 1e30, INCOME[2], INCOME[3]), True),  # unattainable var_y
    (NAN_AT_GRID_0, True),
    (NAN_AT_A_PROBE, False),
])
def test_walks_where_bisection_cannot_vouch(monkeypatch, req, raises):
    # the requests that raise have a round with no crossing, which only the
    # walk can vouch for; NAN_AT_A_PROBE's NaN probes lie above its crossing
    walks = _count_walks(monkeypatch)
    got = _outcome(calibrate_original, *req)
    assert len(walks) == (1 if raises else 0)
    _assert_same_outcome(got, _outcome(_former_calibrate_original, *req))
    if raises:
        assert got == ("ValueError", "no sigma reproducing the target "
                       "variance at this mu in [1e-06, 63.0957]")
    else:
        assert isinstance(got, CalibrationResult)


def _undefined_at(monkeypatch, undefined):
    steps = lognormal._log_xi_steps

    def patched(r, sigma):
        if undefined(sigma):
            raise OverflowError
        return steps(r, sigma)

    monkeypatch.setattr(lognormal, "_log_xi_steps", patched)


def test_walks_past_an_undefined_probe(monkeypatch):
    # the gaps are NaN at sigma = 1e-6, far below the crossings near
    # sigma = 1: Form II's bisection cannot start from there, so every
    # round's walk skips that point and finds the same cell; Form I's
    # Newton solve never goes there
    want = calibrate_original(*INCOME)
    _undefined_at(monkeypatch, lambda sigma: sigma == _SIGMA_GRID[0])
    walks = _count_walks(monkeypatch)
    got = calibrate_original(*INCOME)
    assert len(walks) == 3
    assert got == want
    _assert_same_outcome(got, _former_calibrate_original(*INCOME))


def test_bisects_below_undefined_points_above_the_crossing(monkeypatch):
    # the gaps are NaN from sigma = 6.7 (grid[140]) up, far above the
    # crossings near sigma = 1: round 1's first probe, grid[-1], counts as
    # past them, and no round walks
    want = calibrate_original(*INCOME)
    _undefined_at(monkeypatch, lambda sigma: sigma >= _SIGMA_GRID[140])
    walks = _count_walks(monkeypatch)
    got = calibrate_original(*INCOME)
    assert not walks
    assert got == want
    _assert_same_outcome(got, _former_calibrate_original(*INCOME))
