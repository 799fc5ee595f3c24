"""Published reference estimates for the Normal, IL residential market.

The original study's coefficient table, fit statistics, zone densities,
and descriptive extremes are shipped as fixtures.  They seed the
synthetic-market defaults and back the ``reproduction-check`` command,
which verifies that the published t column is internally consistent
with the published estimates and standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .inference import adjusted_r_squared_and_f

T_MATCH_TOLERANCE = 0.01


@dataclass(frozen=True, slots=True)
class ReferenceCoefficient:
    label: str
    estimate: float
    std_error: float
    t_value: float
    significant: bool


REFERENCE_COEFFICIENTS: tuple[ReferenceCoefficient, ...] = (
    ReferenceCoefficient("R1A", 0.5592927, 0.042187, 13.26, True),
    ReferenceCoefficient("R1B", 0.4670651, 0.03866, 12.08, True),
    ReferenceCoefficient("R2", 0.3999119, 0.041335, 9.67, True),
    ReferenceCoefficient("S2", -10.68838, 0.211277, -50.59, True),
    ReferenceCoefficient("log(lotsqfeet)", 0.1535171, 0.044835, 3.42, True),
    ReferenceCoefficient("log(lotdimb)", -0.148944, 0.062722, -2.37, True),
    ReferenceCoefficient("log(lotdima)", 0.2205652, 0.043684, 5.05, True),
    ReferenceCoefficient("log(totbldgft)", 0.0385547, 0.035657, 1.08, False),
    ReferenceCoefficient("log(bathrooms)", -0.00315, 0.032486, -0.10, False),
    ReferenceCoefficient("age", -0.002379, 0.000794, -3.00, True),
    ReferenceCoefficient("age^2", 1.25516, 3.909098, 3.21, True),
    ReferenceCoefficient("condition", 0.1402772, 0.046006, 3.05, True),
    ReferenceCoefficient("taxrate", 0.2144761, 0.088847, 2.41, True),
)

REFERENCE_F_VALUE = 402.3826
REFERENCE_R_SQUARED = 0.8952
REFERENCE_ADJ_R_SQUARED = 0.8930
N_COLLECTED = 12507
N_USED = 12475

REFERENCE_ZONE_DENSITIES = {"R1A": 4192, "R1B": 5219, "R2": 628, "S2": 19}

# Per-variable (mean, highest, lowest) on the raw scale.
REFERENCE_DESCRIPTIVES = {
    "lotdima": (68.05, 2384.0, 20.0),
    "lotdimb": (120.48, 2032.5, 77.0),
    "lotsqfeet": (6063.0, 250000.0, 666.0),
    "totbldgft": (2196.45, 256609.0, 645.0),
    "bathrooms": (3.57, 336.0, 1.0),
    "taxrate": (7.67, 7.69, 6.29),
}


@dataclass(frozen=True, slots=True)
class ConsistencyRow:
    label: str
    estimate: float
    std_error: float
    published_t: float
    recomputed_t: float
    matches: bool


@dataclass(frozen=True)
class ConsistencyReport:
    """Does t = estimate / std_error reproduce the published t column?

    Also recomputes adjusted R-square and F from the published R-square
    and sample size; the published values do not satisfy the standard
    formulas, which the report surfaces instead of reconciling.
    """

    rows: tuple[ConsistencyRow, ...]
    n_matching: int
    anomalies: tuple[str, ...]
    adj_r_squared_from_formula: float
    f_value_from_formula: float

    @property
    def ok(self) -> bool:
        """The expected 12-match / age^2-anomaly pattern."""
        return self.n_matching == len(self.rows) - 1 and self.anomalies == ("age^2",)


def consistency_check(tolerance: float = T_MATCH_TOLERANCE) -> ConsistencyReport:
    rows = []
    anomalies = []
    for ref in REFERENCE_COEFFICIENTS:
        t = ref.estimate / ref.std_error
        matches = abs(t - ref.t_value) <= tolerance
        if not matches:
            anomalies.append(ref.label)
        rows.append(
            ConsistencyRow(ref.label, ref.estimate, ref.std_error, ref.t_value, t, matches)
        )
    adj, f = adjusted_r_squared_and_f(REFERENCE_R_SQUARED, N_USED, len(REFERENCE_COEFFICIENTS))
    return ConsistencyReport(
        rows=tuple(rows),
        n_matching=sum(r.matches for r in rows),
        anomalies=tuple(anomalies),
        adj_r_squared_from_formula=adj,
        f_value_from_formula=f,
    )
