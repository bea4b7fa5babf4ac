"""The CLI loads without scipy.stats and the config model without numpy or
the engine, and the monitors' p-values and critical value, taken from
scipy.special, equal scipy.stats' bit for bit."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ddiqkd.analysis import (
    MonitorStats,
    detectability_report,
    gap_parity_uniformity,
    outcome_histogram,
)

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module,unloaded", [
    ("ddiqkd.cli", ["scipy.stats"]),
    # the config model sits below the engine and needs no array library
    ("ddiqkd.config", ["numpy", "ddiqkd.protocol"]),
], ids=["cli", "config"])
def test_import_leaves_modules_unloaded(module, unloaded):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print([m for m in {unloaded!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.integers(1, 7), min_size=1, max_size=3000))
def test_gap_parity_p_value_equals_scipy_stats(gaps):
    chi2, p = gap_parity_uniformity(sum(g & 1 for g in gaps), len(gaps))
    assert p == float(stats.chi2.sf(chi2, df=1))


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(0, 5000), min_size=4, max_size=4).filter(any))
def test_outcome_chi2_and_p_value_equal_scipy_stats(counts):
    got_counts, chi2, p = outcome_histogram(counts)
    expected = stats.chisquare(got_counts)
    assert got_counts.tolist() == counts
    assert (chi2, p) == (float(expected[0]), float(expected[1]))


@settings(max_examples=300, deadline=None)
@given(
    n_slots=st.integers(1, 10**6),
    rate=st.floats(0.001, 0.999),
    shift=st.floats(-6.0, 6.0),
    alpha=st.floats(1e-6, 0.999),
)
def test_rate_verdict_uses_the_two_sided_normal_quantile(n_slots, rate, shift, alpha):
    sd = (n_slots * rate * (1 - rate)) ** 0.5
    announced = int(min(max(n_slots * rate + shift * sd, 0), n_slots))
    reported = np.full(n_slots, -1, dtype=np.int8)
    reported[:announced] = 0
    record = MonitorStats.of(reported, reported >= 0, np.zeros(n_slots, dtype=bool))
    report = detectability_report(record, rate, alpha)
    reject = abs(report.rate_z_score) > float(stats.norm.isf(alpha / 2.0))
    assert report.verdicts["rate"] == ("reject" if reject else "pass")
