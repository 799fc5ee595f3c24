"""The package's exports, which are imported on first use."""

import subprocess
import sys
from importlib import import_module

import pytest

import zoneval

from conftest import fresh_interpreter_env

# the public names, by home module
EXPORTS = {
    "design": (
        "DesignError", "DesignMatrix", "ModelSpec", "Term", "Transform", "build_design_matrix",
        "default_model_spec", "read_model_spec", "write_model_spec",
        "zoning_only_spec",
    ),
    "diagnostics": (
        "CorrMatrix", "DescribeReport", "StatsTable", "VarianceShare", "VifEntry", "correlation_matrix",
        "describe", "descriptive_stats", "high_correlation_pairs", "vif", "zoning_variance_share",
    ),
    "inference": (
        "CoefficientRow", "InferenceTable", "compute_inference", "fit_table", "goodness_of_fit",
        "student_t_sf",
    ),
    "lstsq": (
        "LeastSquaresError", "LsFit", "RankDeficiencyError", "UnderdeterminedError",
        "solve_least_squares",
    ),
    "option_value": (
        "FittedModel", "OptionValueReport", "ZoneEffect", "predict_log_value", "predict_value",
        "rezone_counterfactual", "zone_effect_report",
    ),
    "parcels": (
        "CleanReport", "DuplicatePinError", "Parcel", "ParcelTable", "clean", "load_parcels",
        "parcel_defects", "write_parcels",
    ),
    "reference": ("REFERENCE_COEFFICIENTS", "consistency_check"),
    "synth": (
        "GenerationLog", "RecoveryReport", "TrueModel", "calibrated_noise_sigma",
        "default_true_model", "generate_parcels", "recovery_error", "write_generation_log",
    ),
}


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_every_export_is_its_home_modules_object(module, name):
    assert getattr(zoneval, name) is getattr(import_module(f"zoneval.{module}"), name)
    assert name in dir(zoneval)


def test_all_lists_exactly_the_exports():
    assert sorted(zoneval.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    with pytest.raises(AttributeError, match="no attribute 'nosuch'"):
        zoneval.nosuch


# imports the package, touches one export, and prints what was bound and loaded
BINDING_PROBE = """
import sys, zoneval
before = [n for n in zoneval.__all__ if n in vars(zoneval)]
loaded = "numpy" in sys.modules
zoneval.student_t_sf
after = [n for n in zoneval.__all__ if n not in vars(zoneval)]
print(len(before), loaded, len(after))
"""


def test_first_use_of_one_export_binds_them_all():
    # a tracer patches the functions it finds in the package namespace,
    # so which export is touched first must not change what is bound
    result = subprocess.run(
        [sys.executable, "-c", BINDING_PROBE], capture_output=True, text=True, env=fresh_interpreter_env()
    )
    assert result.stdout == "0 False 0\n", result.stderr
