"""Fit a truncated Gaussian or scaled chi model to a sample: sigma three
ways, their divergence, and the histogram RMSE of the model density."""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from . import _roots

__all__ = ["fit_sample"]


def _solve_scalar(f, lo: float, hi: float):
    """Root of f in the first sign-changing cell of a 200-point log-spaced
    scan of [lo, hi]; None if no sign change shows up."""
    grid = [lo * (hi / lo) ** (k / 199) for k in range(200)]
    try:
        return _roots.brentq(f, *_roots.scan(f, grid, what="sigma"),
                             what="sigma")
    except ValueError:
        return None


_ESTIMATES = ("mean_based", "form1", "form2")
# which estimate each model's density curve (and so the RMSE) uses, first
# present wins
_MODEL_SIGMA = {"gauss": ("form2", "form1", "mean_based"),
                "chi": ("mean_based", "form1")}


def _fit_gauss(M: float, v: float, a: float, warnings: list[str]):
    from . import calibrate, utgd
    from .specfun import xi
    from .utgd import TruncatedGaussianSpec

    est = dict.fromkeys(_ESTIMATES)
    try:  # names the bound that an unattainable sample misses
        res = calibrate.calibrate_auto(M, v, a)
    except ValueError as exc:
        warnings.append(str(exc))
        return est, None
    # three single-functional sigma estimates at the calibrated location
    mu0, sigma0 = res.mu0, res.sigma0
    r0 = (mu0 - a) / sigma0
    t = utgd.inverse_mills(r0)
    # at fixed mu0 the mean moves with sigma at the rate t*(1 + r*(r + t));
    # once the truncated mass is so small that the rounding of M alone moves
    # the root by more than 1e-8 relative, the mean pins no sigma
    if r0 > 0.0 and abs(M) * sys.float_info.epsilon > \
            1e-8 * sigma0 * t * (1.0 + r0 * (r0 + t)):
        warnings.append(
            f"mean-based estimate omitted: the truncated mass "
            f"{0.5 * math.erfc(r0 / math.sqrt(2.0)):.3g} (r = {r0:.3g}) is "
            f"too small for the sample mean to determine sigma")
    elif mu0 == a:
        est["mean_based"] = utgd.sigma_from_mean_r(M, 0.0, a)
    else:
        est["mean_based"] = _solve_scalar(
            lambda s: utgd.mean_from_params(TruncatedGaussianSpec(mu0, s, a)) - M,
            1e-6 * (M - a), 1e3 * (M - a))
    try:
        est["form1"] = calibrate.sigma_newton(v, mu0, a, M,
                                              calibrate.VarianceForm.I)
        est["form2"] = calibrate.sigma_newton(v, mu0, a, M,
                                              calibrate.VarianceForm.II)
    except ValueError as exc:
        warnings.append(str(exc))

    def density(sigma: float):
        # (t(r)/sigma) e^(d (r - d/2)), d = (x - a)/sigma >= 0: the Mills-ratio
        # form.  Above r = 0, where t underflows first, e^(r**2/2) moves into
        # the height, t e^(r**2/2) = sqrt(2/pi)/xi(r), and d is taken from r
        r = (mu0 - a) / sigma
        c = max(r, 0.0)
        h = (utgd.inverse_mills(r) if r <= 0.0
             else math.sqrt(2.0 / math.pi) / xi(r)) / sigma

        def at(x: float) -> float:
            d = (x - a) / sigma - c
            return h * math.exp(d * (r - c - 0.5 * d)) if x >= a else 0.0

        return at

    return est, density


def _fit_chi(M: float, v: float, n: float, lo: float | None,
             up: float | None, warnings: list[str]):
    from . import chi
    from .chi import ChiKind, ScaledChiSpec

    if lo is not None and up is not None:
        kind, a1, a2 = ChiKind.DOUBLE, lo, up
    elif up is not None:
        kind, a1, a2 = ChiKind.OUTER, 0.0, up
    else:
        kind, a1, a2 = ChiKind.INNER, lo if lo is not None else 0.0, math.inf

    def spec(sigma: float) -> ScaledChiSpec:
        return ScaledChiSpec(sigma, n, lower=a1, upper=a2, kind=kind)

    est = dict.fromkeys(_ESTIMATES)
    s_hi = max(M, a1, 0.0 if math.isinf(a2) else a2) * 1e3 + 1.0
    est["mean_based"] = _solve_scalar(
        lambda s: chi.chi_raw_moment(spec(s), 1) - M, M * 1e-6, s_hi)
    est["form1"] = _solve_scalar(
        lambda s: chi.chi_var_form1(spec(s)) - v, M * 1e-6, s_hi)
    implied_cutoff = None
    if kind is ChiKind.DOUBLE:
        warnings.append("Form II estimate is undefined for a two-sided window")
    else:
        try:
            _, s2, implied_cutoff = chi.chi_calibrate(M, v, n, kind)
            est["form2"] = s2
        except ValueError as exc:
            if kind is ChiKind.INNER and \
                    v < 1.05 * chi.chi_limits(n, kind, "r_to_0", M)[0]:
                # sampling noise can nudge the variance just past the
                # supremum (the untruncated limit); clamp instead of flagging
                est["form2"] = chi.chi_sigma_from_mean(M, 0.0, n, kind)
                implied_cutoff = 0.0
                warnings.append(
                    "sample variance sits at the attainable bound; Form II "
                    "estimate clamped to the untruncated limit")
            else:
                warnings.append(f"anomalous: {exc}")

    def density(sigma: float):
        at = spec(sigma)
        return lambda x: chi.chi_density(at, x)

    return est, density, implied_cutoff


def fit_sample(data: Sequence[float], model: str, dim: float | None = None,
               lower: float | None = None, upper: float | None = None,
               bins: int | None = None) -> dict:
    """The fit of ``model`` to ``data`` as the ``fit`` command prints it.

    ``data`` is a sequence of at least two values inside [lower, upper];
    it is left unchanged.  An ``array("d")``, as the ``fit`` command reads
    it, is viewed without a copy; a list is copied once.  numpy is imported
    here on first use; in the ``fit`` command the column reader has
    imported it already.  ``model`` is
    "gauss", truncated below at ``lower`` (default the sample minimum), or
    "chi" of dimension ``dim``, truncated as ``lower`` and ``upper`` give.
    ``bins`` is the histogram's bin count, Freedman-Diaconis when None.
    Below 30 values only the sample moments are reported; an estimate a
    model cannot give is None, with the reason in ``warnings``.
    """
    if len(data) < 2:
        raise ValueError("need at least two values for a variance")
    if model not in _MODEL_SIGMA or (model == "chi" and dim is None):
        raise ValueError("model must be 'gauss', or 'chi' with its dim")
    import numpy as np
    values = np.asarray(data, dtype=float)
    warnings: list[str] = []
    refused = values.size < 30
    if refused:
        warnings.append(f"insufficient data: {values.size} rows in the "
                        "window (need 30); reporting sample moments only")

    M, v = float(values.mean()), float(values.var(ddof=1))
    est, density, implied_cutoff = dict.fromkeys(_ESTIMATES), None, None
    if model == "gauss":
        a = lower if lower is not None else float(values.min())
        if not refused:
            est, density = _fit_gauss(M, v, a, warnings)
        window = {"lower": a, "upper": upper}
    else:
        if not refused:
            est, density, implied_cutoff = _fit_chi(M, v, dim, lower, upper,
                                                    warnings)
        window = {"lower": lower, "upper": upper}

    present = [s for s in est.values() if s is not None]
    divergence = (max(present) - min(present)) / min(present) \
        if len(present) >= 2 else None
    model_sigma = next((k for k in _MODEL_SIGMA[model]
                        if est[k] is not None), None)

    rmse = None
    if model_sigma is not None:
        sigma = est[model_sigma]
        hist, edges = np.histogram(values, bins=bins if bins else "fd",
                                   density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        pdf = density(sigma)
        curve = np.array([pdf(c) for c in centers])
        # both curves integrate to 1 over the window by construction
        rmse = float(np.sqrt(np.mean((hist - curve) ** 2)))

    return {
        "model": model,
        "dim": dim,
        "window": window,
        "count": int(values.size),
        "sample_mean": M,
        "sample_var": v,
        "sigma_estimates": est,
        "model_sigma": model_sigma,
        "divergence": divergence,
        "implied_cutoff": implied_cutoff,
        "rmse_vs_data": rmse,
        "warnings": warnings,
    }
