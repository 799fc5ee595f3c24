from pathlib import Path

import pytest

from perfbench.inputs import BALANCED_ZONES, write_input
from perfbench.workloads import analyse


@pytest.fixture(scope="session")
def small_market(tmp_path_factory) -> Path:
    """A 600-row input file with its seed's defects (two rows at the paper's rate)."""
    path = tmp_path_factory.mktemp("market") / "input.csv"
    write_input(path, seed=4, n=600, zone_probs=BALANCED_ZONES)
    return path


@pytest.fixture(scope="session")
def analysed(small_market) -> dict:
    return analyse(small_market)
