"""zoneval: hedonic property valuation with zoning counterfactuals.

Fits a log-value regression on assessor parcel records, produces the
full inference and diagnostics tables, decomposes how much of the
price variation zoning carries, and prices rezoning counterfactuals
(option value).  A synthetic-market generator with known coefficients
backs the recovery test suite.

zoneval needs numpy only, and importing the package does not load it:
the names in ``__all__`` are imported from their modules on the first
access of any of them (PEP 562), and that access binds all of them here
at once.
The constants the command-line parser needs are defined in this file,
so building the parser imports no analysis module.  So is the adjusted
R-square and F formula that ``inference`` applies to each fit and
``reference`` to the published R-square, so that no numpy command loads
``reference``.
"""

__version__ = "0.1.0"

ZONES = ("R1A", "R1B", "R2", "S2", "OTHER")
DEFAULT_ALPHA = 0.10
HIGH_CORRELATION_THRESHOLD = 0.8
DEFAULT_NOISE_SIGMA = 0.35  # log-value noise of a synthetic market


def adjusted_r_squared_and_f(r2: float, n: int, k: int) -> tuple[float, float]:
    """Adjusted R-square and F of an intercept model with k non-intercept
    regressors fitted on n rows."""
    adj = 1.0 - (1.0 - r2) * (n - 1) / (n - k - 1)
    f = (r2 / k) / ((1.0 - r2) / (n - k - 1))
    return adj, f


# home module -> the names the package exports from it
_EXPORTS = {
    "design": (
        "DesignError",
        "DesignMatrix",
        "ModelSpec",
        "Term",
        "Transform",
        "build_design_matrix",
        "default_model_spec",
        "read_model_spec",
        "write_model_spec",
        "zoning_only_spec",
    ),
    "diagnostics": (
        "CorrMatrix",
        "DescribeReport",
        "StatsTable",
        "VarianceShare",
        "VifEntry",
        "correlation_matrix",
        "describe",
        "descriptive_stats",
        "high_correlation_pairs",
        "vif",
        "zoning_variance_share",
    ),
    "inference": (
        "CoefficientRow",
        "InferenceTable",
        "compute_inference",
        "fit_table",
        "goodness_of_fit",
        "student_t_sf",
    ),
    "lstsq": (
        "LeastSquaresError",
        "LsFit",
        "RankDeficiencyError",
        "UnderdeterminedError",
        "solve_least_squares",
    ),
    "option_value": (
        "FittedModel",
        "OptionValueReport",
        "ZoneEffect",
        "predict_log_value",
        "predict_value",
        "rezone_counterfactual",
        "zone_effect_report",
    ),
    "parcels": (
        "CleanReport",
        "DuplicatePinError",
        "Parcel",
        "ParcelTable",
        "clean",
        "load_parcels",
        "parcel_defects",
        "write_parcels",
    ),
    "reference": ("REFERENCE_COEFFICIENTS", "consistency_check"),
    "synth": (
        "GenerationLog",
        "RecoveryReport",
        "TrueModel",
        "calibrated_noise_sigma",
        "default_true_model",
        "generate_parcels",
        "recovery_error",
        "write_generation_log",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    # Binding every export, not just ``name``, keeps the namespace the same
    # whichever export is touched first: code that patches the functions
    # it finds here (a tracer) then sees all of them.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    for module, names in _EXPORTS.items():
        home = import_module(f"{__name__}.{module}")
        globals().update((export, getattr(home, export)) for export in names)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
