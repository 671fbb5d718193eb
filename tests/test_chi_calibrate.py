"""``chi_calibrate`` inverts Form II, Var(M, |r|, n), in |r| by a seeded,
safeguarded Newton iteration on the closed-form slope: residuals no worse
than the former expand-then-Brent solver's outside the variance's rounding
noise, a named diagnostic where there is no root, and a bounded number of
kernel calls."""

import math

import pytest

import oracle
from trunc_moments import chi
from trunc_moments.chi import (ChiKind, LimitDirection, chi_calibrate,
                               chi_var_form2)

# the benchmark's chi mix
BENCH_DIMS = (1.0, 2.0, 3.0, 5.0, 8.0)
GRID_DIMS = {
    ChiKind.INNER: (-40.0, -20.5, -7.3, -3.0, -1.5, -1.0, -0.5, 1e-3, 0.1,
                    0.5, 1.0, 2.5, 8.0, 30.0, 100.0, 1e3, 1e4, 1e5, 1e6),
    ChiKind.OUTER: (1e-3, 0.1, 0.5, 1.0, 2.5, 8.0, 30.0, 100.0, 1e3, 1e4,
                    1e5, 1e6),
}
# where each target lies between the two limits of its range
FRACTIONS = (1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0 - 1e-3, 1.0 - 1e-6)


# -- the former solver, kept as the oracle ------------------------------------

def former_chi_calibrate(M: float, target_var: float, n: float,
                         kind: ChiKind) -> float:
    """The former ``chi_calibrate``'s |r|: widen [1e-10, 1] by doubling
    until it brackets the root, then Brent on ``chi_var_form2``."""
    def g(r: float) -> float:
        return chi_var_form2(M, r, n, kind) - target_var

    what = f"offset |r| with {kind.value}-truncation variance {target_var:g}"
    bracket = oracle.expand(g, 1e-10, 1.0, increasing=kind is ChiKind.OUTER,
                            what=what, huge=1e6)
    return oracle.brentq(g, *bracket, what=what)


def limits(M: float, n: float, kind: ChiKind) -> tuple[float, float]:
    return tuple(sorted(chi._var_limit(M, n, kind, w)
                        for w in LimitDirection))


def target(n: float, kind: ChiKind, frac: float) -> float:
    lo, sup = limits(1.0, n, kind)
    # inner -2 < n <= 0 has no finite supremum: spread over (0, inf)
    return 1.0 / frac - 1.0 if math.isinf(sup) else lo + frac * (sup - lo)


def residual(r: float, target_var: float, n: float, kind: ChiKind) -> float:
    return abs(chi_var_form2(1.0, r, n, kind) - target_var)


def var_noise(target_var: float) -> float:
    # chi_var_form2's stated absolute error at M = 1, 2e-14 (M^2 + V): the
    # rounding of a ratio near 1 from which 1 is subtracted
    return 2e-14 * (1.0 + target_var)


# -- the new solver against the oracle ----------------------------------------

@pytest.mark.parametrize("kind, n", [(k, n) for k, dims in GRID_DIMS.items()
                                     for n in dims])
def test_agrees_with_the_former_solver(kind, n):
    # V's rounding noise reaches hundreds of ulps of the target where
    # V << M^2; within it, which root a solver keeps is luck, and Brent's
    # last bracket end is a point where the noise happens to cancel (both
    # roots are as far from mpmath's).  Targets whose former root lies
    # below |r| = 1e-10, outside the kernel's stated domain, are skipped;
    # where the former found none (inner n = 1e-3 from the middle of the
    # range up, whose roots lie near |r| = 1e-160) the new one may fail
    for frac in FRACTIONS:
        t = target(n, kind, frac)
        try:
            r_old = former_chi_calibrate(1.0, t, n, kind)
        except ValueError:
            r_old = None
        if r_old is not None and r_old < 1e-10:
            continue
        try:
            r = chi_calibrate(1.0, t, n, kind)[0]
        except ValueError as exc:  # only where the former failed too
            assert r_old is None and str(exc).startswith("no offset |r|")
            continue
        res_old = math.inf if r_old is None else residual(r_old, t, n, kind)
        assert residual(r, t, n, kind) <= min(
            max(res_old, var_noise(t)) + 4.0 * math.ulp(t),
            1e-10 * (1.0 + t)), (frac, r, r_old)


@pytest.mark.parametrize("kind", list(GRID_DIMS))
@pytest.mark.parametrize("frac", [1e-12, 1.0 - 1e-9])
def test_targets_at_the_edge_of_the_range(kind, frac):
    # 1e-12 of the range from a limit, a target can sit inside V's rounding
    # noise, where any |r| is a root as good as another.  The answer is one
    # within that noise, or the named diagnostic; never a V far off
    for n in GRID_DIMS[kind]:
        t = target(n, kind, frac)
        try:
            r = chi_calibrate(1.0, t, n, kind)[0]
        except ValueError as exc:
            assert str(exc).startswith("no offset |r| with"), n
        else:
            assert residual(r, t, n, kind) <= 1e-10 * (1.0 + t), n


@pytest.mark.parametrize("kind", [ChiKind.INNER, ChiKind.OUTER])
def test_evaluations_on_the_benchmark_mix(monkeypatch, kind):
    # n in {1, 2, 3, 5, 8}, targets at 0.05 to 0.95 of each range: 4 to 7
    # kernel calls were measured (5.2 inner, 5.1 outer on average); the
    # former expand-then-Brent made 14 to 17
    calls = []

    def counted(s, y, lower=False):
        calls.append(y)
        return ratio_m1(s, y, lower)

    ratio_m1 = chi._ratio_m1
    monkeypatch.setattr(chi, "_ratio_m1", counted)
    counts = []
    for n in BENCH_DIMS:
        for M in (0.1, 1000.0):
            lo, sup = limits(M, n, kind)
            for k in range(1, 20):
                calls.clear()
                t = lo + 0.05 * k * (sup - lo)
                r = chi_calibrate(M, t, n, kind)[0]
                counts.append(len(calls))
                assert abs(chi_var_form2(M, r, n, kind) - t) <= \
                    2e-14 * (M * M + t)
    assert max(counts) <= 7
    assert sum(counts) <= 5.25 * len(counts)


@pytest.mark.parametrize("kind", [ChiKind.INNER, ChiKind.OUTER])
def test_the_benchmark_mix_stays_on_the_ladder(monkeypatch, kind):
    # n in {1, 2, 3, 5, 8}: every incomplete gamma comes from the
    # half-integer ladder, none from the general _gamma_inc (Legendre's
    # fraction, the series or Temme's expansion, 3.4 to 17.7 us a kernel
    # call).  The outer ladder's only series are its two top orders where
    # y < s + 2
    general, series, below = [], [], []

    def counted(counts, f):
        def g(*args):
            counts.append(args)
            return f(*args)
        return g

    gammas = chi._gammas

    def ladder(orders, y, lower=False):
        if lower and y < orders[0] + 2.0:
            below.append(y)
        return gammas(orders, y, lower)

    monkeypatch.setattr(chi, "_gamma_inc", counted(general, chi._gamma_inc))
    monkeypatch.setattr(chi, "_gamma_p_series",
                        counted(series, chi._gamma_p_series))
    monkeypatch.setattr(chi, "_gammas", ladder)
    for n in BENCH_DIMS:
        for M in (0.1, 1000.0):
            lo, sup = limits(M, n, kind)
            for k in range(1, 20):
                chi_calibrate(M, lo + 0.05 * k * (sup - lo), n, kind)
    assert general == []
    assert len(series) == 2 * len(below)
    assert (len(below) > 0) is (kind is ChiKind.OUTER)


def test_no_representable_root():
    # at n = -2 the inner variance grows without bound as |r| -> 0, but
    # slowly: V = 999 lies near |r| = 3e-162, where y = |r|^2/2 is
    # subnormal and V jumps across the target between adjacent offsets
    with pytest.raises(ValueError, match=r"^no offset \|r\| with inner-"):
        chi_calibrate(1.0, 999.0, -2.0)
