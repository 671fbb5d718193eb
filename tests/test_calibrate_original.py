"""``calibrate_original`` solves Form I's level curve by Newton and brackets
Form II's by bisection over the sigma grid: the same results (to 1e-13)
and the same errors as the two scans it replaced, one log-xi step
evaluation per grid point probed, and the walk up the grid only where the
bisection cannot vouch for its cell."""

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
    r = (mu - a) / s
    return lognormal._form1(mu, s, r, lognormal._log_xi_steps(r, s))[0]


def _form2(mu, s, a, log_m):
    r = (mu - a) / s
    return lognormal._log_var_form2(mu, s, r, lognormal._log_xi_steps(r, s),
                                    log_m)


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
    1e-13 relative: Form I's root comes from a Newton solve, not from
    Brent in the grid cell that the former scan found, and the two differ
    in their last bits (at most 1.1e-14 relative over 3 800 solves)."""
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
        pair = lognormal._sigma_pair(mu_k, a, log_m, target, seed)
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

def test_one_step_evaluation_per_grid_point_and_round(monkeypatch):
    # the income example: Form I's Newton solve evaluates off the grid and
    # never inside ``brentq``; Form II probes grid points for its
    # bisection, each at most once a round, and then runs one Brent solve
    form1_at, form2_at = [], []
    brent_calls, in_brent = [0], [False]
    form1, form2 = lognormal._form1, lognormal._log_var_form2
    brentq = _roots.brentq

    def counted_form1(mu, sigma, *args):
        assert not in_brent[0]
        form1_at[-1].append(sigma)
        return form1(mu, sigma, *args)

    def counted_form2(mu, sigma, *args):
        if not in_brent[0]:
            form2_at[-1].append(sigma)
        return form2(mu, sigma, *args)

    def counted_brentq(f, *args, **kwargs):
        brent_calls[0] += 1
        in_brent[0] = True
        try:
            return brentq(f, *args, **kwargs)
        finally:
            in_brent[0] = False

    def counted_pair(*args):
        form1_at.append([])
        form2_at.append([])
        return sigma_pair(*args)

    def no_walk(*args):
        raise AssertionError("the income example needs no walk")

    sigma_pair = lognormal._sigma_pair
    monkeypatch.setattr(lognormal, "_form1", counted_form1)
    monkeypatch.setattr(lognormal, "_log_var_form2", counted_form2)
    monkeypatch.setattr(_roots, "brentq", counted_brentq)
    monkeypatch.setattr(lognormal, "_sigma_pair", counted_pair)
    monkeypatch.setattr(_roots, "_walk", no_walk)
    rounds = 3
    calibrate_original(*INCOME, rounds=rounds)

    back = form1_at[-1].pop()  # the final back-transform
    assert back == pytest.approx(1.02333081, abs=5e-5)
    assert len(form1_at) == len(form2_at) == rounds
    assert brent_calls[0] == rounds
    for at1, at2 in zip(form1_at, form2_at):
        assert not set(at1) & set(_SIGMA_GRID)
        assert len(set(at2)) == len(at2)
        assert set(at2) <= set(_SIGMA_GRID)
    # round 1 starts Newton at the untruncated sigma, later rounds at the
    # previous root; each round adds one Form I evaluation for the slope at
    # the root.  Form II gallops from the cell of Form I's root, where its
    # own crossing lies.  The walk took 125 grid points a round
    assert [len(v) for v in form1_at] == [4 + 1, 5 + 1, 4 + 1]
    assert [len(v) for v in form2_at] == [3, 3, 3]


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
