"""Byte-level pins of the synthetic generator.

Every benchmark input, the acceptance suite and the ``synth`` command come
from ``generate_parcels`` and ``write_parcels``.  These digests pin the CSV
bytes, the pre-noise log values and the calibrated noise level of three
markets, so a rewrite of either function must reproduce them exactly.

After an intended change of output, print the new digests with

    PYTHONPATH=src python tests/test_synth_digest.py
"""

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from zoneval.parcels import write_parcels
from zoneval.synth import calibrated_noise_sigma, default_true_model, generate_parcels

from conftest import BALANCED_ZONES


def calibrated_truth():
    base = default_true_model(seed=7, zone_probs=dict(BALANCED_ZONES))
    sigma = calibrated_noise_sigma(base, 0.895, probe_n=5000)
    return default_true_model(seed=7, noise_sigma=sigma, zone_probs=dict(BALANCED_ZONES))


# name -> (truth factory, n)
CASES = {
    "single_row": (lambda: default_true_model(seed=0), 1),
    "published_mix": (lambda: default_true_model(seed=3, noise_sigma=0.35), 12507),
    "calibrated": (calibrated_truth, 2500),
}

# name -> (sha256 of the written CSV, sha256 of true_log_values as <f8 bytes)
DIGESTS = {
    "calibrated": (
        "062b139dd498623901383358c3dabd848f3c2bb543728f91c2401448cd9af6d0",
        "3e85273916bb01be70d5614d34c863f582f079c3b1371becfb751ff36244a7c9",
    ),
    "published_mix": (
        "4a2d067418580a5c90f8b15b1cbecce83ed1c587c6a9e65ae401a244fbe8d9f9",
        "5327251fe55aa92db62324f0d737401f22120533f6dd4939afc5d4b79dcd8732",
    ),
    "single_row": (
        "855a26eb5e872001079f7e0ca400ea5062177c44209d3eabbbbc790a4167926b",
        "ba480600aa560c8343211b45cf5907314ed1fcfbfbc634807262f80997b46ae4",
    ),
}

# calibrated_noise_sigma of the "calibrated" case, as float.hex
CALIBRATED_SIGMA_HEX = "0x1.9c5fccbfd1d8ap-1"


def digests(name: str, workdir: Path) -> tuple[str, str]:
    make_truth, n = CASES[name]
    table, log = generate_parcels(make_truth(), n)
    path = workdir / f"{name}.csv"
    write_parcels(table, path)
    csv_digest = hashlib.sha256(path.read_bytes()).hexdigest()
    log_digest = hashlib.sha256(np.asarray(log.true_log_values, dtype="<f8").tobytes()).hexdigest()
    return csv_digest, log_digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_generated_market_bytes_are_pinned(name, tmp_path):
    assert digests(name, tmp_path) == DIGESTS[name]


def test_calibrated_noise_sigma_is_pinned():
    assert calibrated_truth().noise_sigma.hex() == CALIBRATED_SIGMA_HEX


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f"    {case!r}: {digests(case, Path(tmp))!r},")
    print(f"CALIBRATED_SIGMA_HEX = {calibrated_truth().noise_sigma.hex()!r}")
    sys.exit(0)
