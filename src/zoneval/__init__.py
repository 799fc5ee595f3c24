"""zoneval: hedonic property valuation with zoning counterfactuals.

Fits a log-value regression on assessor parcel records, produces the
full inference and diagnostics tables, decomposes how much of the
price variation zoning carries, and prices rezoning counterfactuals
(option value).  A synthetic-market generator with known coefficients
backs the recovery test suite.
"""

from .design import (
    DesignError,
    DesignMatrix,
    ModelSpec,
    Term,
    Transform,
    build_design_matrix,
    default_model_spec,
    design_from_columns,
    read_model_spec,
    write_model_spec,
    zoning_only_spec,
)
from .diagnostics import (
    CorrMatrix,
    StatsTable,
    VarianceShare,
    VifEntry,
    correlation_matrix,
    descriptive_stats,
    high_correlation_pairs,
    vif,
    zoning_variance_share,
)
from .inference import (
    CoefficientRow,
    InferenceTable,
    compute_inference,
    fit_table,
    goodness_of_fit,
    student_t_sf,
)
from .lstsq import (
    LeastSquaresError,
    LsFit,
    RankDeficiencyError,
    UnderdeterminedError,
    solve_least_squares,
    solve_normal_equations_oracle,
)
from .option_value import (
    FittedModel,
    OptionValueReport,
    ZoneEffect,
    predict_log_value,
    predict_value,
    rezone_counterfactual,
    write_option_value_csv,
    zone_effect_report,
)
from .parcels import (
    CleanReport,
    DuplicatePinError,
    Parcel,
    ParcelTable,
    clean,
    load_parcels,
    parcel_defects,
    write_parcels,
)
from .reference import REFERENCE_COEFFICIENTS, consistency_check
from .synth import (
    GenerationLog,
    RecoveryReport,
    TrueModel,
    calibrated_noise_sigma,
    default_true_model,
    generate_parcels,
    recovery_error,
    write_generation_log,
)

__version__ = "0.1.0"
