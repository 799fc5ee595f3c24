import numpy as np
import pytest

from zoneval.parcels import Parcel, ParcelTable

# zone mix for small synthetic fixtures: keeps every zone dummy
# identified at modest n (the real-market S2 share of 0.15% does not)
BALANCED_ZONES = {"R1A": 0.3, "R1B": 0.3, "R2": 0.15, "S2": 0.05, "OTHER": 0.2}


def make_parcel(pin="P1", zone="R1A", **overrides) -> Parcel:
    base = dict(
        assessed_value=150000.0,
        zone=zone,
        lot_width_ft=68.0,
        lot_depth_ft=120.0,
        lot_sqft=8160.0,
        total_bldg_sqft=2200.0,
        bathrooms=2.0,
        age_years=30.0,
        condition_pct=55.0,
        tax_rate_pct=7.5,
    )
    base.update(overrides)
    return Parcel(pin=pin, **base)


def make_table(n=20, seed=0) -> ParcelTable:
    """Small deterministic table with a mix of zones and varying covariates."""
    rng = np.random.default_rng(seed)
    zones = ("R1A", "R1B", "R2", "S2", "OTHER")
    rows = []
    for i in range(n):
        rows.append(
            make_parcel(
                pin=f"T{i:05d}",
                zone=zones[i % len(zones)],
                assessed_value=float(rng.uniform(50000, 500000)),
                lot_width_ft=float(rng.uniform(30, 200)),
                lot_depth_ft=float(rng.uniform(80, 300)),
                lot_sqft=float(rng.uniform(2000, 30000)),
                total_bldg_sqft=float(rng.uniform(800, 6000)),
                bathrooms=float(rng.integers(1, 5)),
                age_years=float(rng.integers(0, 100)),
                condition_pct=float(rng.uniform(0, 100)),
                tax_rate_pct=float(rng.uniform(6.3, 7.7)),
            )
        )
    return ParcelTable(tuple(rows))


@pytest.fixture
def small_table() -> ParcelTable:
    return make_table(25)
