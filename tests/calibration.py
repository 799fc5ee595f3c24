"""Monte Carlo calibration over seeded synthetic markets.

A calibration test draws one market per seed from a known truth, fits
each, counts how often some statistic of the fit hits (an interval
covers the truth, a test rejects it), and asks whether the hit rate is
the nominal one.  ``draw_fits`` draws and fits the markets;
:func:`binomial_band` judges the rate with an exact binomial band.  A
test fixes its seed list, so every run draws the same markets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, NamedTuple

import numpy as np

from zoneval.design import DesignMatrix
from zoneval.inference import InferenceTable, fit_table
from zoneval.lstsq import LsFit, RankDeficiencyError
from zoneval.synth import TrueModel, generate_parcels


class Draw(NamedTuple):
    """One seeded market and its fit under the truth's spec."""

    seed: int
    design: DesignMatrix
    fit: LsFit
    table: InferenceTable


class draw_fits:
    """The fits of ``n``-row markets drawn from ``truth``, one per seed
    (the truth's own seed is replaced).  Iterating yields a :class:`Draw`
    per seed, in seed order, for each market whose design is full rank;
    ``skipped`` lists the seeds of the latest pass whose design was
    rank-deficient (a zone no parcel drew, say), as the pass reaches
    them.  The caller states how many skips it allows."""

    def __init__(self, truth: TrueModel, n: int, seeds: Iterable[int]):
        self.truth, self.n, self.seeds = truth, n, tuple(seeds)
        self.skipped: list[int] = []

    def __iter__(self):
        self.skipped = []
        for seed in self.seeds:
            market, _log = generate_parcels(replace(self.truth, seed=seed), self.n)
            try:
                yield Draw(seed, *fit_table(market, self.truth.spec))
            except RankDeficiencyError:
                self.skipped.append(seed)


@dataclass(frozen=True)
class Band:
    """The Clopper-Pearson interval [low, high] of a binomial rate, and
    whether it holds the rate ``p`` under test."""

    low: float
    high: float
    holds: bool


@lru_cache(maxsize=None)
def _log_terms(trials: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, log C(trials, i)) for i = 0..trials, the log of each
    ``math.comb``, so that no term of a tail overflows at any trials."""
    return np.arange(trials + 1), np.array([math.log(math.comb(trials, i)) for i in range(trials + 1)])


def _at_most(k: int, trials: int, rate: float) -> float:
    """P(X <= k) for X ~ Binomial(trials, rate), 0 < rate < 1."""
    i, log_comb = _log_terms(trials)
    i, log_comb = i[: k + 1], log_comb[: k + 1]
    return float(np.exp(log_comb + i * math.log(rate) + (trials - i) * math.log1p(-rate)).sum())


def _solve(tail, target: float) -> float:
    """The rate in (0, 1) at which the decreasing ``tail`` equals
    ``target``, by bisection to the last bit."""
    low, high = 0.0, 1.0
    while True:
        mid = 0.5 * (low + high)
        if mid in (low, high):
            return mid
        low, high = (mid, high) if tail(mid) > target else (low, mid)


def binomial_band(hits: int, trials: int, p: float, level: float) -> Band:
    """The exact (Clopper-Pearson) ``level`` confidence interval for the
    rate behind ``hits`` of ``trials``, and whether it holds ``p``.

    Each bound leaves (1 - level) / 2 in its tail: the low bound is the
    rate at which P(X >= hits) is that much (0 when hits is 0), the high
    bound the rate at which P(X <= hits) is (1 when hits is trials).  So
    for any true rate the band holds it with probability at least
    ``level``.  The binomial terms come from ``math.comb``."""
    if not 0 <= hits <= trials or not 0.0 < level < 1.0:
        raise ValueError(f"need 0 <= hits <= trials and 0 < level < 1, got {hits}, {trials}, {level}")
    tail = (1.0 - level) / 2.0
    low = 0.0 if hits == 0 else _solve(lambda rate: _at_most(hits - 1, trials, rate), 1.0 - tail)
    high = 1.0 if hits == trials else _solve(lambda rate: _at_most(hits, trials, rate), tail)
    return Band(low, high, low <= p <= high)
