"""Fit a truncated Gaussian or scaled chi model to a sample: sigma three
ways, their divergence, and the histogram RMSE of the model density.

Each sigma is one Newton solve at the fixed cutoffs.  The Gaussian's are
taken at the calibrated location mu0: from the mean by Newton steps in
ln sigma seeded at the calibrated sigma0, from Form I and Form II by
``calibrate.sigma_newton``.  The chi's mean-based sigma is
``chi.double_sigma``'s, on any support; its Form I sigma takes Newton
steps in ln sigma from the mean-based one, and where the variance rises
to a peak in sigma and falls again (outer truncation, windows) it is the
root on the branch of that seed; its Form II sigma is
``chi.chi_calibrate``'s.  An estimate without a root is None, with the
solver's message in ``warnings``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

__all__ = ["fit_sample"]


_ESTIMATES = ("mean_based", "form1", "form2")
# which estimate each model's density curve (and so the RMSE) uses, first
# present wins
_MODEL_SIGMA = {"gauss": ("form2", "form1", "mean_based"),
                "chi": ("mean_based", "form1")}


def _solve(est: dict, key: str, warnings: list[str], solve, *args) -> None:
    # est[key] from solve(*args), or the solver's no-root message
    try:
        est[key] = solve(*args)
    except ValueError as exc:
        warnings.append(str(exc))


def _fit_gauss(M: float, v: float, a: float, warnings: list[str]):
    from . import calibrate, utgd
    from .specfun import xi

    est = dict.fromkeys(_ESTIMATES)
    try:  # names the bound that an unattainable sample misses
        res = calibrate.calibrate_auto(M, v, a)
    except ValueError as exc:
        warnings.append(str(exc))
        return est, None
    # three single-functional sigma estimates at the calibrated location
    mu0 = res.mu0
    _solve(est, "mean_based", warnings, calibrate._sigma_from_mean, M, mu0,
           a, res.sigma0)
    for key, form in zip(("form1", "form2"), calibrate.VarianceForm):
        _solve(est, key, warnings, calibrate.sigma_newton, v, mu0, a, M, form)

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


def _fit_chi(M: float, v: float, n: float, a1: float, a2: float,
             warnings: list[str]):
    # the support [a1, a2]: a1 = 0 outer, a2 = inf inner
    from . import chi
    from .chi import ChiKind, ScaledChiSpec

    kind = chi._support_kind(a1, a2)
    est = dict.fromkeys(_ESTIMATES)
    _solve(est, "mean_based", warnings, chi.double_sigma, M, n, a1, a2)
    if est["mean_based"] is None:
        warnings.append("Form I estimate omitted: its Newton steps start "
                        "from the mean-based sigma")
    else:  # the root on the mean-based sigma's side of V's peak
        _solve(est, "form1", warnings, chi._form1_sigma, v,
               ScaledChiSpec(est["mean_based"], n, a1, a2, kind))
    implied_cutoff = None
    if kind is ChiKind.DOUBLE:
        warnings.append("Form II estimate is undefined for a two-sided window")
    else:
        try:
            _, est["form2"], implied_cutoff = chi.chi_calibrate(M, v, n, kind)
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
        at = ScaledChiSpec(sigma, n, a1, a2, kind)
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
    if model == "gauss" and lower is None:
        lower = float(values.min())
    window = {"lower": lower, "upper": upper}
    if model == "gauss" and not refused:
        est, density = _fit_gauss(M, v, lower, warnings)
    elif not refused:
        est, density, implied_cutoff = _fit_chi(
            M, v, dim, lower or 0.0, math.inf if upper is None else upper,
            warnings)

    present = [s for s in est.values() if s is not None]
    divergence = (max(present) - min(present)) / min(present) \
        if len(present) >= 2 else None
    model_sigma = next((k for k in _MODEL_SIGMA[model]
                        if est[k] is not None), None)

    rmse = None
    if model_sigma is not None:
        hist, edges = np.histogram(values, bins=bins if bins else "fd",
                                   density=True)
        centers = 0.5 * (edges[1:] + edges[:-1])
        pdf = density(est[model_sigma])
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
