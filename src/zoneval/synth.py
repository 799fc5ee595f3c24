"""Synthetic zoned-market generator with known ground truth.

Markets are drawn from a :class:`TrueModel` (coefficients, noise level,
zone mix, covariate ranges) with a fixed, named generator (numpy PCG64
behind ``numpy.random.default_rng``), so the same seed reproduces the
same table byte for byte.  A market is drawn into the columns of a
:class:`~zoneval.parcels.ParcelTable` and priced through
:func:`~zoneval.design.build_design_matrix`, the fitter's one design
compiler, so its true log values are that design times the true
coefficients.  The default covariate ranges are the published extremes
(:data:`~zoneval.reference.REFERENCE_DESCRIPTIVES`).  Lot width and
depth load on a shared latent size factor and lot area is their
jittered product, which reproduces the strong area/frontage
correlations seen in real assessor data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import DEFAULT_NOISE_SIGMA
from .design import INTERCEPT_LABEL, ModelSpec, build_design_matrix, default_model_spec
from .inference import InferenceTable
from .parcels import CANONICAL_SCHEMA, LOG_SOURCE_FIELDS, NUMERIC_FIELDS, ZONE_LEVELS, ZONES, ParcelTable
from .reference import REFERENCE_COEFFICIENTS, REFERENCE_DESCRIPTIVES, REFERENCE_ZONE_DENSITIES, N_USED
from .render import dump_json

RNG_NAME = "numpy-pcg64"

# The published age^2 estimate is two orders of magnitude off its own t
# column; the generator default uses the plausible rescaled value so
# simulated ages contribute sanely.
AGE_SQ_TRUE_COEFFICIENT = 1.25516e-5
DEFAULT_INTERCEPT = 7.9


def _published_range(column: str) -> tuple[float, float]:
    """The (lowest, highest) the study publishes for a CSV column."""
    _mean, highest, lowest = REFERENCE_DESCRIPTIVES[column]
    return lowest, highest


# each covariate's (lowest, highest): the published extremes, and
# plausible bounds for age and condition, whose extremes are not published
DEFAULT_COVARIATE_RANGES: dict[str, tuple[float, float]] = {
    name: {"age_years": (0.0, 120.0), "condition_pct": (0.0, 100.0)}.get(name)
    or _published_range(CANONICAL_SCHEMA[name])
    for name in NUMERIC_FIELDS[1:]  # every numeric field but the priced assessed_value
}

# Lognormal location/scale for the size covariates and the loadings on
# the shared latent size factor.
_LOG_WIDTH_MU, _LOG_WIDTH_SIGMA = 4.15, 0.5
_LOG_DEPTH_MU, _LOG_DEPTH_SIGMA = 4.79, 0.35
_LOG_BLDG_MU, _LOG_BLDG_SIGMA = 7.69, 0.55
_SIZE_LOADING = 0.6325  # gives width/depth log-correlation ~ 0.4
_AREA_JITTER = 0.10
_BATHROOM_MEAN_EXTRA = 2.57  # Poisson mean above the 1-bath floor


class SynthError(ValueError):
    pass


@dataclass(frozen=True)
class TrueModel:
    """Ground truth for a synthetic market, aligned to a model spec."""

    beta: dict[str, float]
    noise_sigma: float
    zone_probs: dict[str, float]
    covariate_ranges: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(DEFAULT_COVARIATE_RANGES)
    )
    seed: int = 0
    spec: ModelSpec = field(default_factory=default_model_spec)

    def __post_init__(self):
        # written so that NaN fails it too
        if not 0.0 <= self.noise_sigma < math.inf:
            raise SynthError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.seed < 0:
            raise SynthError(f"seed must be >= 0, got {self.seed}")
        total = sum(self.zone_probs.get(z, 0.0) for z in ZONES)
        if abs(total - 1.0) > 1e-12:
            raise SynthError(f"zone probabilities sum to {total!r}, not 1")
        if any(p < 0 for p in self.zone_probs.values()):
            raise SynthError("zone probabilities must be nonnegative")
        for name, (lo, hi) in self.covariate_ranges.items():
            if lo > hi:
                raise SynthError(f"empty range for {name}: ({lo}, {hi})")
            if name in LOG_SOURCE_FIELDS and lo <= 0:
                raise SynthError(f"log-source field {name} needs a positive lower bound")
        expected = self.labels
        if set(self.beta) != set(expected):
            raise SynthError(
                f"beta labels {sorted(self.beta)} do not match spec labels {sorted(expected)}"
            )

    @property
    def labels(self) -> tuple[str, ...]:
        return (INTERCEPT_LABEL, *self.spec.labels)

    def beta_vector(self) -> np.ndarray:
        return np.array([self.beta[label] for label in self.labels])


@dataclass(frozen=True)
class GenerationLog:
    """Reproducibility record: same (seed, n, truth) -> identical log."""

    seed: int
    n: int
    noise_sigma: float
    true_beta: dict[str, float]
    true_log_values: np.ndarray  # before noise


def default_true_model(
    seed: int = 0,
    noise_sigma: float = DEFAULT_NOISE_SIGMA,
    zone_probs: dict[str, float] | None = None,
) -> TrueModel:
    """Reference-shaped truth: published coefficients (age^2 rescaled),
    zone mix at the published densities."""
    beta = {"intercept": DEFAULT_INTERCEPT}
    for ref in REFERENCE_COEFFICIENTS:
        beta[ref.label] = AGE_SQ_TRUE_COEFFICIENT if ref.label == "age^2" else ref.estimate
    if zone_probs is None:
        zone_probs = {z: REFERENCE_ZONE_DENSITIES[z] / N_USED for z in REFERENCE_ZONE_DENSITIES}
        zone_probs["OTHER"] = 1.0 - sum(zone_probs.values())
    return TrueModel(beta=beta, noise_sigma=noise_sigma, zone_probs=zone_probs, seed=seed)


def _clip(values: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    return np.clip(values, bounds[0], bounds[1])


def generate_parcels(truth: TrueModel, n: int) -> tuple[ParcelTable, GenerationLog]:
    """Draw n parcels and price them at exp(X beta + noise).

    The draw order is fixed (zones, size factor, width, depth, area
    jitter, building, bathrooms, age, condition, tax rate, noise), so a
    given (truth, n) is fully reproducible.
    """
    if n < 1:
        raise SynthError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(truth.seed)
    ranges = truth.covariate_ranges

    probs = np.array([truth.zone_probs.get(z, 0.0) for z in ZONES])
    # the drawn indices into ZONES are the zone codes, as ZONE_LEVELS begins with ZONES
    codes = rng.choice(len(ZONES), size=n, p=probs / probs.sum())

    size_factor = rng.standard_normal(n)
    off_loading = math.sqrt(1.0 - _SIZE_LOADING**2)
    log_width = _LOG_WIDTH_MU + _LOG_WIDTH_SIGMA * (
        _SIZE_LOADING * size_factor + off_loading * rng.standard_normal(n)
    )
    log_depth = _LOG_DEPTH_MU + _LOG_DEPTH_SIGMA * (
        _SIZE_LOADING * size_factor + off_loading * rng.standard_normal(n)
    )
    width = _clip(np.exp(log_width), ranges["lot_width_ft"])
    depth = _clip(np.exp(log_depth), ranges["lot_depth_ft"])
    jitter = np.maximum(1.0 + _AREA_JITTER * rng.standard_normal(n), 0.05)
    area = _clip(width * depth * jitter, ranges["lot_sqft"])
    building = _clip(
        np.exp(_LOG_BLDG_MU + _LOG_BLDG_SIGMA * rng.standard_normal(n)),
        ranges["total_bldg_sqft"],
    )
    bathrooms = _clip(
        1.0 + rng.poisson(_BATHROOM_MEAN_EXTRA, size=n).astype(np.float64),
        ranges["bathrooms"],
    )
    age_lo, age_hi = ranges["age_years"]
    ages = rng.integers(int(age_lo), int(age_hi) + 1, size=n).astype(np.float64)
    condition = rng.uniform(*ranges["condition_pct"], size=n)
    tax_rate = rng.uniform(*ranges["tax_rate_pct"], size=n)

    # pin i = 1000q + r is head q + tail r; q's 4-digit field widens where i's 7-digit one does, at i = 10**7
    heads = [f"SYN{q:04d}" for q in range(-(-n // 1000))]
    tails = [f"{r:03d}" for r in range(1000)]
    pins = tuple([head + tail for head in heads for tail in tails][:n])
    # a row per NUMERIC_FIELDS entry; assessed_value (row 0) is priced below
    numbers = np.array([np.ones(n), width, depth, area, building, bathrooms, ages, condition, tax_rate])
    # price through the design compile the fitter uses, over a copy, as a
    # table's arrays are read-only
    design = build_design_matrix(ParcelTable._from_columns(pins, codes, ZONE_LEVELS, numbers.copy()), truth.spec)
    true_log = design.X @ truth.beta_vector()
    noise = truth.noise_sigma * rng.standard_normal(n)
    with np.errstate(over="ignore", under="ignore"):
        values = np.exp(true_log + noise)
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        i = int(np.argmax(bad))
        raise SynthError(
            f"noise_sigma {truth.noise_sigma:g} prices pin {pins[i]} at {float(values[i])!r}; "
            "prices must be finite and > 0"
        )

    numbers[0] = values
    table = ParcelTable._from_columns(pins, codes, ZONE_LEVELS, numbers)
    log = GenerationLog(
        seed=truth.seed,
        n=n,
        true_beta=dict(truth.beta),
        noise_sigma=truth.noise_sigma,
        true_log_values=true_log,
    )
    return table, log


def calibrated_noise_sigma(
    truth: TrueModel, target_r2: float, probe_n: int = 20000
) -> float:
    """Noise level that puts the population R-square at target_r2,
    estimated from a noiseless probe sample of the same truth."""
    if not 0.0 < target_r2 < 1.0:
        raise SynthError(f"target_r2 must be in (0, 1), got {target_r2}")
    if probe_n == 1:  # one below is generate_parcels' to refuse
        raise SynthError("probe_n must be >= 2 to calibrate noise to target_r2, got 1")
    probe = replace(truth, noise_sigma=0.0)
    _, log = generate_parcels(probe, probe_n)
    signal_var = float(np.var(log.true_log_values))
    if signal_var == 0.0:
        raise SynthError("degenerate truth: no signal variance")
    return math.sqrt(signal_var * (1.0 - target_r2) / target_r2)


@dataclass(frozen=True)
class RecoveryReport:
    """Standardized recovery errors (beta_hat - beta) / SE per label."""

    labels: tuple[str, ...]
    raw_errors: np.ndarray
    standardized: np.ndarray | None
    exact_fit: bool

    def fraction_within(self, bound: float = 3.0) -> float | None:
        if self.standardized is None:
            return None
        return float(np.mean(np.abs(self.standardized) <= bound))


def recovery_error(truth: TrueModel, fitted: InferenceTable) -> RecoveryReport:
    """Compare a fitted table against the generating truth."""
    if tuple(fitted.labels) != truth.labels:
        raise SynthError(
            f"label mismatch: fitted {fitted.labels} vs truth {truth.labels}"
        )
    beta = truth.beta_vector()
    estimates = np.array([row.estimate for row in fitted.rows])
    raw = estimates - beta
    if fitted.exact_fit:
        return RecoveryReport(truth.labels, raw, None, True)
    ses = np.array([row.std_error for row in fitted.rows])
    return RecoveryReport(truth.labels, raw, raw / ses, False)


def write_generation_log(log: GenerationLog, path: str | Path) -> None:
    """JSON sidecar next to the generated CSV: the generator's name, then
    the log's fields."""
    Path(path).write_text(dump_json(log, generator=RNG_NAME), encoding="utf-8")
