"""The package's records against the frozen dataclasses they replaced.

The eight records are namedtuple types, so the package needs no
``dataclasses`` import.  The former ``@dataclass(frozen=True)``
definitions are kept below, validation, properties and methods included,
as the reference: every record must build from the same arguments, show the
same repr and hash, compare the same, reject the same inputs with the same
message, refuse assignment and survive a pickle round-trip.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import pickle
from dataclasses import dataclass

import pytest

from trunc_moments import calibrate, chi, lognormal, utgd
from trunc_moments.calibrate import Method
from trunc_moments.chi import ChiKind
from trunc_moments.utgd import Side


@dataclass(frozen=True)
class TruncatedGaussianSpec:
    """Parent-Gaussian parameterization of a truncated distribution."""

    mu: float
    sigma: float
    cutoff: float
    side: Side = Side.LEFT

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0):
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        for name in ("mu", "sigma", "cutoff"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def r(self) -> float:
        return (self.mu - self.cutoff) / self.sigma


@dataclass(frozen=True)
class MomentSummary:
    """Mean, low raw moments and shape measures of a truncated Gaussian."""

    mean: float
    m2: float
    m3: float
    m4: float
    variance: float
    skewness: float
    kurtosis: float
    cm5: float
    cm6: float


@dataclass(frozen=True)
class ApproxFn1Params:
    """Quadratic coefficients of alpha(U) and beta(U) for approximating
    function 1."""

    c1: float
    c2: float
    c3: float
    d1: float
    d2: float
    d3: float

    def alpha(self, U: float) -> float:
        return self.c1 + self.c2 * U + self.c3 * U * U

    def beta(self, U: float) -> float:
        return self.d1 + self.d2 * U + self.d3 * U * U


@dataclass(frozen=True)
class CalibrationResult:
    mu0: float
    sigma0: float
    method: Method
    iterations: int
    mean_resid: float
    var_resid: float
    mean_achieved: float
    var_achieved: float


@dataclass(frozen=True)
class ScaledChiSpec:
    """Scaled chi distribution with truncated radial support."""

    sigma: float
    n: float
    lower: float = 0.0
    upper: float = math.inf
    kind: ChiKind = ChiKind.INNER

    def __post_init__(self) -> None:
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.lower < 0.0:
            raise ValueError("cutoffs must be nonnegative")
        k = ChiKind(self.kind)
        if k is ChiKind.INNER:
            if not math.isinf(self.upper):
                raise ValueError("inner truncation takes no upper cutoff")
            if self.n <= 0.0 and self.lower == 0.0:
                raise ValueError(
                    "n <= 0 concentrates infinite mass at the origin; a "
                    "positive lower cutoff is required")
        elif k is ChiKind.OUTER:
            if self.lower != 0.0:
                raise ValueError("outer truncation takes no lower cutoff")
            if not 0.0 < self.upper < math.inf:
                raise ValueError("outer truncation needs a finite cutoff")
            if not self.n / 2.0 > 0.0:
                raise ValueError(
                    f"outer truncation needs n > 0: at n = {self.n:g} the "
                    f"mass on [0, cutoff] diverges at the origin")
        else:
            if not 0.0 < self.lower < self.upper < math.inf:
                raise ValueError("double truncation needs 0 < lower < upper < inf")

    @property
    def y1(self) -> float:
        r = self.lower / self.sigma
        return r * r / 2.0

    @property
    def y2(self) -> float:
        if math.isinf(self.upper):
            return math.inf
        r = self.upper / self.sigma
        return r * r / 2.0


@dataclass(frozen=True)
class VmaxReport:
    r_abs: float
    n_vmx_real: float
    n_vmx_int: int
    vmax_real: float
    vmax_int: float


@dataclass(frozen=True)
class NvmxFitParams:
    """Fitted coefficients for the vmx dimensionality and its variance."""

    c1: float
    c2: float
    c3: float
    d1: float
    d2: float
    d3: float


@dataclass(frozen=True)
class LognormalMoments:
    mean_y: float
    var_y: float
    log_var_y: float


# (package record, reference dataclass)
PAIRS = [
    (utgd.TruncatedGaussianSpec, TruncatedGaussianSpec),
    (utgd.MomentSummary, MomentSummary),
    (calibrate.ApproxFn1Params, ApproxFn1Params),
    (calibrate.CalibrationResult, CalibrationResult),
    (chi.ScaledChiSpec, ScaledChiSpec),
    (chi.VmaxReport, VmaxReport),
    (chi.NvmxFitParams, NvmxFitParams),
    (lognormal.LognormalMoments, LognormalMoments),
]
NEW = {old.__name__: new for new, old in PAIRS}

# Valid argument tuples for each record, in field order; positions past the
# record's required fields exercise its defaults.
VALID = {
    "TruncatedGaussianSpec": [
        (1.0, 2.0, 0.0), (-3.0, 0.5, 1.0, Side.RIGHT), (0.0, 1e-300, -5.0),
        (1e308, 1e308, -1e308, Side.LEFT), (2, 3, 1, "right")],
    "MomentSummary": [
        (1.0, 2.0, 3.0, 4.0, 0.5, 0.1, 3.2, -0.0, 1e-300),
        (math.nan, math.inf, -math.inf, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0)],
    "ApproxFn1Params": [
        tuple(calibrate.APPROX1_SET_I), tuple(calibrate.APPROX1_SET_II),
        (1, 2, 3, 4, 5, 6)],
    "CalibrationResult": [
        (1.5, 0.7, Method.EXACT, 3, 1e-17, 2e-16, 1.5, 0.49),
        (0.0, 1.0, Method.APPROX1, 0, math.nan, math.inf, -0.0, 1.0)],
    "ScaledChiSpec": [
        (1.0, 3.0), (2.0, 0.5, 0.1), (1.0, -4.0, 2.0, math.inf, "inner"),
        (1.0, 3.0, 0.0, 2.0, ChiKind.OUTER),
        (1.0, 0.5, 0.0, 1.5, ChiKind.OUTER),
        (0.3, 2.0, 0.5, 1.5, ChiKind.DOUBLE),
        (1.0, 2.0, 0.5, 1.5, "double")],
    "VmaxReport": [(2.2, 3.7, 4, 0.08, 0.079), (0.1, -0.5, 1, 1.0, 0.5)],
    "NvmxFitParams": [
        tuple(chi.NVMX_DEFAULT_PARAMS), (0.0, -1.0, 1e-20, 2, 3, 4)],
    "LognormalMoments": [(2.5, 1.25, math.log(1.25)), (1.0, 0.0, -math.inf)],
}

# Invalid spec arguments: one or more for every check in the validation,
# and arguments that fail before any check runs.
INVALID = {
    "TruncatedGaussianSpec": [
        (1.0, 0.0, 0.0), (1.0, -2.0, 0.0), (1.0, math.nan, 0.0),
        (1.0, -math.inf, 0.0), (1.0, math.inf, 0.0), (math.nan, 1.0, 0.0),
        (math.inf, 1.0, 0.0), (0.0, 1.0, -math.inf),
        (0.0, 1.0, math.nan, Side.RIGHT), (0.0, "1", 0.0)],
    "ScaledChiSpec": [
        # sigma
        (0.0, 3.0), (-1.0, 3.0), (math.nan, 3.0),
        # lower
        (1.0, 3.0, -0.5), (1.0, 3.0, -0.5, 2.0, ChiKind.OUTER),
        # kind
        (1.0, 3.0, 0.0, math.inf, "bogus"),
        # inner
        (1.0, 3.0, 0.0, 2.0), (1.0, 3.0, 1.0, 2.0, ChiKind.INNER),
        (1.0, 0.0), (1.0, -2.5, 0.0, math.inf, ChiKind.INNER),
        # outer
        (1.0, 3.0, 0.5, 2.0, ChiKind.OUTER), (1.0, 3.0, 0.0, math.inf, "outer"),
        (1.0, 3.0, 0.0, 0.0, ChiKind.OUTER), (1.0, 3.0, 0.0, -1.0, "outer"),
        (1.0, 0.0, 0.0, 2.0, ChiKind.OUTER),
        (1.0, -3.0, 0.0, 2.0, ChiKind.OUTER), (1.0, 5e-324, 0.0, 2.0, "outer"),
        (1.0, math.nan, 0.0, 2.0, ChiKind.OUTER),
        # double
        (1.0, 3.0, 0.0, 2.0, ChiKind.DOUBLE),
        (1.0, 3.0, 2.0, 2.0, ChiKind.DOUBLE),
        (1.0, 3.0, 2.5, 2.0, "double"),
        (1.0, 3.0, 1.0, math.inf, ChiKind.DOUBLE),
        (1.0, 3.0, 1.0, math.nan, ChiKind.DOUBLE)],
}


def _built(cls, args, kwargs=None):
    """What building cls shows: its repr, or the exception raised."""
    try:
        rec = cls(*args, **(kwargs or {}))
    except Exception as exc:
        return type(exc), str(exc)
    return repr(rec)


def _as_kwargs(old, args):
    return {f.name: v for f, v in zip(dataclasses.fields(old), args)}


def _library_records():
    """Records built by the package's own calls."""
    spec = utgd.TruncatedGaussianSpec(0.5, 1.2, 0.0)
    return [
        spec,
        utgd.TruncatedGaussianSpec(1.0, 1.0, 2.0, Side.RIGHT),
        utgd.moment_summary(spec),
        calibrate.calibrate_auto(1.3, 0.3, 0.0),
        calibrate.point_slope(1.3, 0.3, 0.0, rounds=2),
        calibrate.APPROX1_SET_II,
        chi.nvmx_search(1.0, 2.2),
        chi.NVMX_DEFAULT_PARAMS,
        chi.ScaledChiSpec(1.1, 3.0, lower=0.5),
        lognormal.back_moments(0.2, 0.8, 0.0),
        lognormal.calibrate_original(2.0, 1.0, 0.0, 0.5),
    ]


def _reference(rec):
    old = next(o for n, o in PAIRS if type(rec) is n)
    return old(*(getattr(rec, f.name) for f in dataclasses.fields(old)))


@pytest.mark.parametrize("new, old", PAIRS, ids=[o.__name__ for _, o in PAIRS])
def test_construction_repr_hash_eq(new, old):
    assert new.__name__ == old.__name__
    # the constructor's signature: the fields in order, the same defaults
    params = inspect.signature(new).parameters.values()
    assert [(p.name, p.default) for p in params] == [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default) for f in dataclasses.fields(old)]
    assert new._fields == tuple(f.name for f in dataclasses.fields(old))
    cases = VALID[old.__name__]
    built = []
    for args in cases:
        kwargs = _as_kwargs(old, args)
        a, b = new(*args), old(*args)
        assert repr(a) == repr(b)
        assert hash(a) == hash(b)
        # keyword construction, and positional then keyword
        assert repr(new(**kwargs)) == repr(b)
        head = len(args) // 2
        tail = dict(list(kwargs.items())[head:])
        assert repr(new(*args[:head], **tail)) == repr(b)
        built.append((a, b))
    # equality is field-wise, as the reference's
    for a1, b1 in built:
        for a2, b2 in built:
            assert (a1 == a2) == (b1 == b2)
            assert (a1 != a2) == (b1 != b2)
        assert a1 == new(*a1)


@pytest.mark.parametrize("name", sorted(INVALID))
def test_spec_validation_messages(name):
    new, old = NEW[name], globals()[name]
    # the first valid case takes every default, so replacing fields in it
    # builds the same values as the constructor called with those fields
    base = new(*VALID[name][0])
    for args in INVALID[name]:
        expect = _built(old, args)
        assert isinstance(expect, tuple), args
        assert _built(new, args) == expect, args
        assert _built(new, (), _as_kwargs(old, args)) == expect, args
        assert _built(base._replace, (), _as_kwargs(old, args)) == expect, args
    # the same cases reach ValueError through each check named above; the
    # outer refusal names n after its colon
    if name == "ScaledChiSpec":
        messages = {_built(old, args)[1].split(":")[0]
                    for args in INVALID[name]}
        assert len(messages) == 9


def test_properties_and_methods():
    for args in VALID["TruncatedGaussianSpec"]:
        assert utgd.TruncatedGaussianSpec(*args).r == \
            TruncatedGaussianSpec(*args).r
    for args in VALID["ScaledChiSpec"]:
        a, b = chi.ScaledChiSpec(*args), ScaledChiSpec(*args)
        assert (a.y1, a.y2) == (b.y1, b.y2)
    for args in VALID["ApproxFn1Params"]:
        a, b = calibrate.ApproxFn1Params(*args), ApproxFn1Params(*args)
        for U in (0.0, 1.5, -40.0, 1e3):
            assert (a.alpha(U), a.beta(U)) == (b.alpha(U), b.beta(U))


def test_library_records_match_reference():
    recs = _library_records()
    assert {type(r) for r in recs} == {n for n, _ in PAIRS}
    for rec in recs:
        ref = _reference(rec)
        assert repr(rec) == repr(ref)
        assert hash(rec) == hash(ref)


@pytest.mark.parametrize("new, old", PAIRS, ids=[o.__name__ for _, o in PAIRS])
def test_assignment_raises_and_pickle_round_trips(new, old):
    for args in VALID[old.__name__]:
        rec = new(*args)
        for attr in (new._fields[0], new._fields[-1], "other"):
            with pytest.raises(AttributeError):
                setattr(rec, attr, 1.0)
            with pytest.raises(AttributeError):
                delattr(rec, attr)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is new
        assert repr(back) == repr(rec)
        assert back == rec or any(v != v for v in rec)  # NaN fields
