"""The calibration harness, and the first calibration it gates: the t
tests the fit prints reject the true coefficient at their nominal size."""

import math
from dataclasses import replace

import numpy as np
import pytest

from zoneval import ZONES
from zoneval.inference import student_t_sf
from zoneval.synth import default_true_model, generate_parcels

from calibration import binomial_band, draw_fits
from conftest import BALANCED_ZONES

SIZE_ALPHA = 0.05
# the chance that a calibrated fit fails the test: its 14 bands share it
FAMILY_MISS = 0.05
SEEDS = range(400)


@pytest.mark.parametrize(
    "zone_probs, n",
    [
        pytest.param(BALANCED_ZONES, 2000, id="balanced_2000_rows"),
        # 36 degrees of freedom, where dividing the rss by n rather than
        # n - p shrinks every standard error by 15%
        pytest.param(dict.fromkeys(BALANCED_ZONES, 0.2), 50, id="even_zones_50_rows"),
    ],
)
def test_printed_t_tests_reject_the_true_beta_at_their_size(zone_probs, n):
    truth = default_true_model(zone_probs=dict(zone_probs))
    beta = truth.beta_vector()
    # per coefficient, the markets whose printed two-sided t test rejects the true beta
    hits, draws = np.zeros(len(beta), dtype=int), draw_fits(truth, n, SEEDS)
    for draw in draws:
        dof = draw.table.n - draw.table.k - 1
        for j, row in enumerate(draw.table.rows):
            hits[j] += student_t_sf((row.estimate - beta[j]) / row.std_error, dof) < SIZE_ALPHA
    assert draws.skipped == []  # every market counts: none may be rank-deficient
    level = 1.0 - FAMILY_MISS / len(hits)
    missed = {}
    for label, count in zip(truth.labels, hits.tolist()):
        band = binomial_band(count, len(SEEDS), SIZE_ALPHA, level)
        if not band.holds:
            missed[label] = (count / len(SEEDS), band.low, band.high)
    assert not missed, f"rejection rate (band) per coefficient, at a nominal {SIZE_ALPHA}: {missed}"


# --- the harness itself ------------------------------------------------------


@pytest.mark.parametrize("trials, p, level", [(400, 0.05, 0.95), (60, 0.3, 0.9), (25, 0.9, 0.99)])
def test_band_holds_a_known_rate_at_its_level(trials, p, level):
    holds = [binomial_band(k, trials, p, level).holds for k in range(trials + 1)]
    # exactly: the chance of a count whose band holds p is at least level
    coverage = sum(math.comb(trials, k) * p**k * (1 - p) ** (trials - k) for k in range(trials + 1) if holds[k])
    assert level <= coverage <= 1.0
    # and over seeded draws of the count, one per seed
    held = sum(holds[int(np.random.default_rng(seed).binomial(trials, p))] for seed in range(2000))
    assert binomial_band(held, 2000, level, 0.999).high >= level


def test_band_bounds_are_the_binomial_tails():
    band = binomial_band(20, 400, 0.05, 0.95)
    assert band.low < 0.05 < band.high and band.holds
    at_least = lambda rate: sum(math.comb(400, k) * rate**k * (1 - rate) ** (400 - k) for k in range(20, 401))
    assert at_least(band.low) == pytest.approx(0.025, rel=1e-9)
    assert 1.0 - at_least(band.high) + math.comb(400, 20) * band.high**20 * (1 - band.high) ** 380 == pytest.approx(
        0.025, rel=1e-9
    )
    assert binomial_band(0, 400, 0.0, 0.95).low == 0.0
    assert binomial_band(400, 400, 1.0, 0.95).high == 1.0
    assert not binomial_band(0, 400, 0.05, 0.95).holds
    with pytest.raises(ValueError):
        binomial_band(401, 400, 0.05, 0.95)


def test_a_rank_deficient_market_is_skipped_and_counted():
    # at 20 rows of the balanced mix a market often draws no S2 parcel, and
    # a zone no parcel drew leaves its dummy column all zeros
    truth, n, seeds = default_true_model(zone_probs=dict(BALANCED_ZONES)), 20, range(12)
    lacking = [seed for seed in seeds if len(set(generate_parcels(replace(truth, seed=seed), n)[0].zones)) < len(ZONES)]
    assert 0 < len(lacking) < len(seeds)
    draws = draw_fits(truth, n, seeds)
    fitted = [draw.seed for draw in draws]
    assert draws.skipped == lacking
    assert fitted == [seed for seed in seeds if seed not in lacking]
    assert [draw.seed for draw in draws] == fitted and draws.skipped == lacking  # a second pass counts afresh
