"""The keyed covert reporter's gap law against simulated sessions.

With the thinning trial drawn for every candidate, a slot is a candidate
with probability x = T * eta_true * readout * q, independently of every
other slot. After an announcement the uniform key bit makes the wanted
gap parity even or odd with probability 1/2 each, and the gap is then the
first candidate of that parity, so

    P(g) = 1/2 * x * (1 - x) ** (ceil(g / 2) - 1),   g = 1, 2, ...

with x taken from the config and no fitted parameter. The gaps of each
1,000,000-slot configs/covert_keyed.json session at seeds 0-4 and
transmittance 0.1, 0.5 and 0.8 are binned at g = 1..39 plus a tail bin and
must pass a chi-square test (39 dof) at p >= 1e-3.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from ddiqkd.config import parse_config
from ddiqkd.covert import thinning_acceptance
from ddiqkd.protocol import run_session

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
N_SLOTS = 1_000_000
MAX_GAP = 39
P_MIN = 1e-3


def gap_pmf(x):
    """P(g) for g = 1..MAX_GAP, then the tail P(g > MAX_GAP)."""
    g = np.arange(1, MAX_GAP + 1)
    pmf = 0.5 * x * (1.0 - x) ** ((g + 1) // 2 - 1)
    return np.append(pmf, 1.0 - pmf.sum())


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("transmittance", [0.1, 0.5, 0.8])
def test_keyed_gap_histogram_fits_the_exact_law(transmittance, seed):
    config = parse_config(json.loads((CONFIGS / "covert_keyed.json").read_text()))
    config = replace(
        config, n_slots=N_SLOTS, seed=seed,
        channel=replace(config.channel, transmittance=transmittance),
    )
    mode = config.mode
    assert mode.keyed and mode.target_report_rate is None
    p = transmittance * mode.eta_true * mode.trojan.readout_success_prob
    x = p * thinning_acceptance(p, config.expected_report_rate())
    t, _ = run_session(config)
    gaps = np.diff(t.reported_slots())
    observed = np.bincount(np.minimum(gaps, MAX_GAP + 1), minlength=MAX_GAP + 2)[1:]
    expected = len(gaps) * gap_pmf(x)
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert special.chdtrc(MAX_GAP, chi2) >= P_MIN
