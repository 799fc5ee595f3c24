"""Synthetic zoned-market generator with known ground truth.

Markets are drawn from a :class:`TrueModel` (coefficients, noise level,
zone mix, covariate ranges) with a fixed, named generator (numpy PCG64
behind ``numpy.random.default_rng``), so the same seed reproduces the
same table byte for byte.  Lot width and depth load on a shared latent
size factor and lot area is their jittered product, which reproduces
the strong area/frontage correlations seen in real assessor data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .design import ModelSpec, default_model_spec, design_from_columns
from .inference import InferenceTable
from .parcels import LOG_SOURCE_FIELDS, NUMERIC_FIELDS, ZONES, ParcelTable
from .reference import REFERENCE_COEFFICIENTS, REFERENCE_ZONE_DENSITIES, N_USED

RNG_NAME = "numpy-pcg64"

# The published age^2 estimate is two orders of magnitude off its own t
# column; the generator default uses the plausible rescaled value so
# simulated ages contribute sanely.
AGE_SQ_TRUE_COEFFICIENT = 1.25516e-5
DEFAULT_INTERCEPT = 7.9

DEFAULT_COVARIATE_RANGES: dict[str, tuple[float, float]] = {
    "lot_width_ft": (20.0, 2384.0),
    "lot_depth_ft": (77.0, 2032.5),
    "lot_sqft": (666.0, 250000.0),
    "total_bldg_sqft": (645.0, 256609.0),
    "bathrooms": (1.0, 336.0),
    "age_years": (0.0, 120.0),
    "condition_pct": (0.0, 100.0),
    "tax_rate_pct": (6.29, 7.69),
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
        if self.noise_sigma < 0:
            raise SynthError("noise_sigma must be >= 0")
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
        head = ("intercept",) if self.spec.include_intercept else ()
        return head + self.spec.labels

    def beta_vector(self) -> np.ndarray:
        return np.array([self.beta[label] for label in self.labels])


@dataclass(frozen=True)
class GenerationLog:
    """Reproducibility record: same (seed, n, truth) -> identical log."""

    seed: int
    n: int
    true_beta: dict[str, float]
    noise_sigma: float
    true_log_values: np.ndarray  # before noise


def default_true_model(
    seed: int = 0,
    noise_sigma: float = 0.35,
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
    zone_idx = rng.choice(len(ZONES), size=n, p=probs / probs.sum())
    zones = [ZONES[i] for i in zone_idx]

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

    pins = tuple(f"SYN{i:07d}" for i in range(n))
    columns = {
        "pin": pins,
        "assessed_value": np.ones(n),  # priced below
        "zone": zones,
        "lot_width_ft": width,
        "lot_depth_ft": depth,
        "lot_sqft": area,
        "total_bldg_sqft": building,
        "bathrooms": bathrooms,
        "age_years": ages,
        "condition_pct": condition,
        "tax_rate_pct": tax_rate,
    }
    # price through the same design compile the fitter uses
    design = design_from_columns(columns.__getitem__, pins, truth.spec)
    true_log = design.X @ truth.beta_vector()
    noise = truth.noise_sigma * rng.standard_normal(n)
    values = np.exp(true_log + noise)

    columns["assessed_value"] = values
    numbers = np.array([columns[name] for name in NUMERIC_FIELDS])
    table = ParcelTable._from_columns(pins, tuple(zones), numbers)
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
    """JSON sidecar next to the generated CSV."""
    payload = {
        "generator": RNG_NAME,
        "seed": log.seed,
        "n": log.n,
        "noise_sigma": log.noise_sigma,
        "true_beta": log.true_beta,
        "true_log_values": [float(v) for v in log.true_log_values],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
