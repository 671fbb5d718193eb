"""Independent ground truth for the analytic moment formulas.

Nothing in here reuses the closed forms from the other modules: moments
come from adaptive quadrature of the bare density, the truncated Gaussian's
scaled quantities from their definitions in mpmath, and distributions can
also be sampled by rejection from their untruncated parents.  Tests compare
the analytic expressions against these estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad

from trunc_moments.chi import ScaledChiSpec
from trunc_moments.utgd import Side, TruncatedGaussianSpec

__all__ = ["OracleEstimate", "SampleSummary", "mp_gauss", "quad_moment",
           "sample_truncated"]


@dataclass(frozen=True)
class OracleEstimate:
    value: float
    abs_err_bound: float
    evaluations: int


@dataclass(frozen=True)
class SampleSummary:
    count: int
    mean: float
    variance: float
    mean_se: float
    var_se: float


def quad_moment(density, support: tuple[float, float], k: int = 1,
                center: float = 0.0, tol: float = 1e-12,
                split: tuple[float, ...] = ()) -> OracleEstimate:
    """Normalized k-th moment about ``center`` of an (unnormalized) density.

    Semi-infinite supports are mapped onto [0, 1) with x = a + t/(1-t);
    ``split`` lists interior points (sharp modes, say) where the adaptive
    integrator should restart.
    """
    a, b = support
    if math.isinf(b):
        def transform(f):
            def g(t):
                x = a + t / (1.0 - t)
                return f(x) / (1.0 - t) ** 2
            return g
        pieces = [0.0]
        pieces += sorted((s - a) / (1.0 + (s - a)) for s in split if s > a)
        pieces.append(1.0)
    else:
        def transform(f):
            return f
        pieces = [a] + sorted(s for s in split if a < s < b) + [b]

    def integrate(f):
        total = err = 0.0
        neval = 0
        g = transform(f)
        for lo, hi in zip(pieces, pieces[1:]):
            val, abserr, info = quad(g, lo, hi, epsabs=tol, epsrel=tol,
                                     limit=300, full_output=True)[:3]
            total += val
            err += abserr
            neval += info["neval"]
        return total, err, neval

    mass, mass_err, n1 = integrate(density)
    mom, mom_err, n2 = integrate(lambda x: (x - center) ** k * density(x))
    if mass <= 0.0:
        raise ValueError("density integrates to a non-positive mass")
    value = mom / mass
    bound = mom_err / mass + abs(value) * mass_err / mass
    return OracleEstimate(value=value, abs_err_bound=bound,
                          evaluations=n1 + n2)


def mp_gauss(r):
    """(t, Q, vhat) of the standard normal truncated to z >= -r, in mpmath
    at the caller's working precision: the inverse Mills ratio t =
    phi(r)/Phi(r) = E[z], the variance Q = 1 - r t - t**2 and the normalized
    variance vhat = Q/(r + t)**2.  r may be an mpmath number, so that
    ``mpmath.diff`` differentiates through it.  For r < 0, Q cancels about
    2 log10(r**2) digits and r + t about log10(r**2); the caller's working
    precision covers them."""
    r = mpmath.mpf(r)
    t = mpmath.sqrt(2 / mpmath.pi) / (mpmath.exp(r * r / 2)
                                      * mpmath.erfc(-r / mpmath.sqrt(2)))
    q = 1 - r * t - t * t
    return t, q, q / (r + t) ** 2


def _sample_gauss(spec: TruncatedGaussianSpec, count: int,
                  rng: np.random.Generator) -> np.ndarray:
    # mirror right-truncation onto the left-truncated sampler
    if spec.side is Side.RIGHT:
        flipped = TruncatedGaussianSpec(2 * spec.cutoff - spec.mu, spec.sigma,
                                        spec.cutoff, Side.LEFT)
        return 2 * spec.cutoff - _sample_gauss(flipped, count, rng)
    alpha = (spec.cutoff - spec.mu) / spec.sigma  # = -r
    accept = 0.5 * math.erfc(alpha / math.sqrt(2.0))
    out = np.empty(count)
    filled = 0
    if accept >= 0.01:
        while filled < count:
            need = count - filled
            draw = rng.normal(spec.mu, spec.sigma,
                              size=int(need / max(accept, 1e-3)) + 16)
            keep = draw[draw >= spec.cutoff]
            take = min(need, keep.size)
            out[filled:filled + take] = keep[:take]
            filled += take
        return out
    # deep tail: shifted-exponential proposal with the classic optimal rate
    lam = 0.5 * (alpha + math.sqrt(alpha * alpha + 4.0))
    while filled < count:
        need = count - filled
        z = alpha + rng.exponential(1.0 / lam, size=2 * need + 16)
        u = rng.random(z.size)
        keep = z[u <= np.exp(-0.5 * (z - lam) ** 2)]
        take = min(need, keep.size)
        out[filled:filled + take] = spec.mu + spec.sigma * keep[:take]
        filled += take
    return out


def _sample_chi(spec: ScaledChiSpec, count: int,
                rng: np.random.Generator) -> np.ndarray:
    if not spec.n > 0.0:
        raise ValueError("sampling requires a positive dimensionality")
    y1, y2 = spec.y1, spec.y2
    out = np.empty(count)
    filled = 0
    rejections = 0
    while filled < count:
        need = count - filled
        g = rng.gamma(spec.n / 2.0, 1.0, size=2 * need + 16)
        keep = g[(g >= y1) & (g <= y2)]
        if keep.size == 0:
            rejections += 1
            if rejections > 200:
                raise RuntimeError(
                    "acceptance too low: truncation window carries almost "
                    "no mass under the parent distribution")
        take = min(need, keep.size)
        out[filled:filled + take] = keep[:take]
        filled += take
    return spec.sigma * np.sqrt(2.0 * out)


def sample_truncated(spec, count: int, seed: int) -> SampleSummary:
    """Seeded Monte-Carlo summary (PCG64 stream, bit-stable across runs)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    if isinstance(spec, TruncatedGaussianSpec):
        x = _sample_gauss(spec, count, rng)
    elif isinstance(spec, ScaledChiSpec):
        x = _sample_chi(spec, count, rng)
    else:
        raise TypeError(f"cannot sample {type(spec).__name__}")
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1))
    c = x - mean
    m4 = float(np.mean(c ** 4))
    mean_se = math.sqrt(var / count)
    var_se = math.sqrt(max(m4 - var * var, 0.0) / count)
    return SampleSummary(count=count, mean=mean, variance=var,
                         mean_se=mean_se, var_se=var_se)
