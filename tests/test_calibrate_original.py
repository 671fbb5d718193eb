"""``calibrate_original`` brackets both level curves by bisection over the
sigma grid: the same floats and the same errors as the two scans it
replaced, one log-xi step evaluation per grid point probed, and the walk
up the grid only where the bisection cannot vouch for its cell."""

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
    return lognormal._log_var_form1(mu, s, r, lognormal._log_xi_steps(r, s))


def _form2(mu, s, a, log_m):
    r = (mu - a) / s
    return lognormal._log_var_form2(mu, s, r, lognormal._log_xi_steps(r, s),
                                    log_m)


def _former_calibrate_original(M_y, var_y, a, mu_seed, rounds=3):
    """The former ``calibrate_original``: two scans of the sigma grid per
    round, one per variance form, each evaluating the log-xi steps at
    every grid point it visits.  The slopes, the intersection and the
    back-transform are the package's own, which this change left alone."""
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
        assert _outcome(calibrate_original, *req) == want, req
        raised += isinstance(want, tuple)
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
    assert (_outcome(calibrate_original, *req, rounds=rounds)
            == _outcome(_former_calibrate_original, *req, rounds=rounds))


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
    # the income example: each round probes grid points for both forms'
    # bisections, each at most once; every other log-xi step is a Brent
    # evaluation or the final back-transform
    rounds_visited, brent_calls = [], [0]
    in_brent = [False]
    steps, brentq = lognormal._log_xi_steps, _roots.brentq
    sigma_pair = lognormal._sigma_pair

    def counted_steps(r, sigma):
        if in_brent[0]:
            brent_calls[0] += 1
        else:
            rounds_visited[-1].append(sigma)
        return steps(r, sigma)

    def counted_brentq(f, *args, **kwargs):
        in_brent[0] = True
        try:
            return brentq(f, *args, **kwargs)
        finally:
            in_brent[0] = False

    def counted_pair(*args):
        rounds_visited.append([])
        return sigma_pair(*args)

    def no_walk(*args):
        raise AssertionError("the income example needs no walk")

    monkeypatch.setattr(lognormal, "_log_xi_steps", counted_steps)
    monkeypatch.setattr(_roots, "brentq", counted_brentq)
    monkeypatch.setattr(lognormal, "_sigma_pair", counted_pair)
    monkeypatch.setattr(_roots, "_walk", no_walk)
    rounds = 3
    calibrate_original(*INCOME, rounds=rounds)

    back = rounds_visited[-1].pop()
    assert back == pytest.approx(1.02333081, abs=5e-5)
    assert len(rounds_visited) == rounds
    for visited in rounds_visited:
        assert len(set(visited)) == len(visited)
        assert set(visited) <= set(_SIGMA_GRID)
    # round 1 bisects Form I from grid[0] and grid[-1] and finds Form II in
    # the same cell; rounds 2 and 3 start from that cell.  The same cells
    # as the walk give the same 8 Brent evaluations a round; the walk took
    # 125 grid points a round
    assert [len(v) for v in rounds_visited] == [10, 3, 3]
    assert brent_calls[0] == 24


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
    assert got == _outcome(_former_calibrate_original, *req)
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
    # the gap is NaN at round 1's first bisection probe, far below the
    # crossing: the walk skips that point and finds the same cells
    want = calibrate_original(*INCOME)
    _undefined_at(monkeypatch, lambda sigma: sigma == _SIGMA_GRID[80])
    walks = _count_walks(monkeypatch)
    got = calibrate_original(*INCOME)
    assert len(walks) == 1  # round 1 only: later rounds start at the cell
    assert got == want == _former_calibrate_original(*INCOME)


def test_bisects_below_undefined_points_above_the_crossing(monkeypatch):
    # the gaps are NaN from sigma = 6.7 (grid[140]) up, far above the
    # crossings near sigma = 1: round 1's first probe, grid[-1], counts as
    # past them, and no round walks
    want = calibrate_original(*INCOME)
    _undefined_at(monkeypatch, lambda sigma: sigma >= _SIGMA_GRID[140])
    walks = _count_walks(monkeypatch)
    got = calibrate_original(*INCOME)
    assert not walks
    assert got == want == _former_calibrate_original(*INCOME)
