"""Moments of unilaterally truncated Gaussian and scaled chi distributions,
with calibration from target moments.

The public names below load on first access (PEP 562), so a command or a
program that needs one submodule pays the import of that submodule alone.
"""

import importlib

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys((
        "APPROX1_SET_I", "APPROX1_SET_II", "ApproxFn1Params",
        "CalibrationResult", "Method", "VarianceForm", "approx_switch_vhat",
        "calibrate_approx1", "calibrate_approx2", "calibrate_auto",
        "point_slope", "r_from_variance", "sigma_approx1", "sigma_approx2",
        "sigma_newton", "solve_U_approx1", "solve_U_approx2", "two_point"),
        "calibrate"),
    **dict.fromkeys((
        "NVMX_DEFAULT_PARAMS", "ChiKind", "LimitDirection", "NvmxFitParams",
        "ScaledChiSpec", "VmaxReport", "chi_calibrate", "chi_density",
        "chi_limits", "chi_raw_moment", "chi_sigma_from_mean",
        "chi_var_form1", "chi_var_form2", "double_sigma", "nvmx_approx",
        "nvmx_search", "vmax_fixed_n", "vmax_fixed_r_approx"), "chi"),
    **dict.fromkeys((
        "LognormalMoments", "back_moments", "calibrate_original",
        "log_var_forms", "log_xi", "lognormal_slopes"), "lognormal"),
    "fit_sample": "fitting",
    **dict.fromkeys((
        "exp_r2_half_xi", "gamma_lower", "gamma_upper", "lambert_w0", "xi"),
        "specfun"),
    **dict.fromkeys((
        "MomentSummary", "Side", "TruncatedGaussianSpec",
        "central_moments_56", "density", "dnormalized_variance_dr",
        "dsigma1_dmu", "dvar_dr", "inverse_mills", "mean_from_params",
        "moment_summary", "normalized_shape", "normalized_variance",
        "r_from_height", "sigma_from_mean_r", "skewness_kurtosis",
        "var_form1", "var_form2", "var_from_mu_sigma", "var_max_from_height"),
        "utgd"),
}

__all__ = sorted(_SOURCES)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        # an AttributeError lets ``from trunc_moments import calibrate``
        # fall through to importing the submodule
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_SOURCES})
