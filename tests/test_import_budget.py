"""The package runs without scipy and the config model without numpy or the
engine. The monitors' p-values and critical value come from stdlib closed
forms (math.erfc, statistics.NormalDist): pinned here at fixed points, and
checked against scipy.stats, which the tests alone need, to within 1e-12
relative. The outcome chi-square statistic equals scipy.stats' bit for bit."""

import math
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
    _STANDARD_NORMAL,
    MonitorStats,
    _chi2_sf,
    detectability_report,
    gap_parity_uniformity,
    outcome_histogram,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# scipy returns 0.0 where the closed forms still give a subnormal tail
P_REL_TOL, P_ABS_TOL = 1e-12, 1e-300


def _python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("module,preloaded,unloaded", [
    # numpy.ma loads with np.unique, which no import-time table calls; numpy
    # 1.x loads it with numpy itself, so only what numpy leaves out counts
    ("ddiqkd.cli", "numpy", ["scipy", "scipy.special", "numpy.ma"]),
    # the config model sits below the engine and needs no array library
    ("ddiqkd.config", "sys", ["numpy", "ddiqkd.protocol"]),
], ids=["cli", "config"])
def test_import_leaves_modules_unloaded(module, preloaded, unloaded):
    code = (f"import sys, {preloaded}; before = set(sys.modules); import {module}; "
            f"print([m for m in {unloaded!r} if m in sys.modules and m not in before])")
    assert _python(code).strip() == "[]"


def test_run_and_analyze_exit_0_when_scipy_cannot_be_imported(tmp_path):
    # a None entry in sys.modules makes every `import scipy...` raise
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from ddiqkd import cli\n"
        "config, out = sys.argv[1:]\n"
        "sys.exit(cli.main(['run', '--config', config, '--out', out])\n"
        "         or cli.main(['analyze', '--transcript', out + '/transcript.csv',\n"
        "                      '--out', out + '/analysis.json']))\n"
    )
    out = tmp_path / "honest"
    _python(code, str(ROOT / "configs" / "honest.json"), str(out))
    assert (out / "analysis.json").exists()


def test_closed_forms_at_fixed_points():
    assert _chi2_sf(0.0, 1) == _chi2_sf(0.0, 3) == 1.0
    # the 5% points of the chi-square law at 1 and 3 degrees of freedom
    assert math.isclose(_chi2_sf(3.841458820694124, 1), 0.05, rel_tol=1e-12)
    assert math.isclose(_chi2_sf(7.814727903251178, 3), 0.05, rel_tol=1e-12)
    # the two-sided rate critical value -inv_cdf(alpha / 2)
    for alpha, z in ((0.05, 1.959963984540054), (0.01, 2.5758293035489004)):
        assert math.isclose(-_STANDARD_NORMAL.inv_cdf(alpha / 2), z, rel_tol=1e-15)


@settings(max_examples=500, deadline=None)
@given(x=st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 2000.0)), dof=st.sampled_from([1, 3]))
def test_closed_form_p_value_is_a_probability(x, dof):
    # DetectabilityReport refuses a p-value above 1
    assert 0.0 <= _chi2_sf(x, dof) <= 1.0


@settings(max_examples=300, deadline=None)
@given(gaps=st.lists(st.integers(1, 7), min_size=1, max_size=3000))
def test_gap_parity_p_value_matches_scipy_stats(gaps):
    chi2, p = gap_parity_uniformity(sum(g & 1 for g in gaps), len(gaps))
    ref = float(stats.chi2.sf(chi2, df=1))
    assert math.isclose(p, ref, rel_tol=P_REL_TOL, abs_tol=P_ABS_TOL)


@settings(max_examples=300, deadline=None)
@given(counts=st.lists(st.integers(0, 5000), min_size=4, max_size=4).filter(any))
def test_outcome_chi2_equals_and_p_value_matches_scipy_stats(counts):
    got_counts, chi2, p = outcome_histogram(counts)
    expected = stats.chisquare(got_counts)
    assert got_counts.tolist() == counts
    assert chi2 == float(expected[0])
    assert math.isclose(p, float(expected[1]), rel_tol=P_REL_TOL, abs_tol=P_ABS_TOL)


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
