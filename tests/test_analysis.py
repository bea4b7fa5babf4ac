from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd.analysis import (
    DetectabilityReport,
    MonitorStats,
    detectability_report,
    gap_parity_uniformity,
    outcome_histogram,
    rate_consistency,
)
from ddiqkd.errors import ValidationError


def make_stats(n_slots, slots, outcomes=None, doubles=()):
    """The count record of an n_slots span announcing outcomes (0 by
    default) at slots, with double clicks at doubles."""
    reported = np.full(n_slots, -1, dtype=np.int8)
    reported[np.asarray(slots, dtype=np.int64)] = 0 if outcomes is None else outcomes
    double_click = np.zeros(n_slots, dtype=bool)
    double_click[np.asarray(doubles, dtype=np.int64)] = True
    return MonitorStats.of(reported, reported >= 0, double_click)


def reference_stats(reported, double_click):
    """MonitorStats spelled out over Python lists of the two columns."""
    slots = [i for i, r in enumerate(reported) if 0 <= r <= 3]
    gaps = [b - a for a, b in zip(slots, slots[1:])]
    return MonitorStats(
        n_slots=len(reported),
        singles=len(slots),
        doubles=sum(map(bool, double_click)),
        first=slots[0] if slots else -1,
        last=slots[-1] if slots else -1,
        odd_gaps=sum(g % 2 for g in gaps),
        outcome_counts=tuple(sum(reported[i] == k for i in slots) for k in range(4)),
    )


def random_columns(n, seed, announce_p, double_p):
    """Outcomes -1..3 (int8) and double clicks only where nothing was announced."""
    rng = np.random.default_rng(seed)
    reported = np.where(rng.random(n) < announce_p, rng.integers(0, 4, size=n), -1).astype(np.int8)
    return reported, (reported < 0) & (rng.random(n) < double_p)


columns = st.builds(
    random_columns,
    n=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    announce_p=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    double_p=st.sampled_from([0.0, 0.1]),
)


@settings(max_examples=300, deadline=None)
@given(cols=columns)
def test_record_equals_reference_for_kernel_and_reader_bytes(cols):
    reported, double_click = cols
    expected = reference_stats(reported.tolist(), double_click.tolist())
    assert MonitorStats.of(reported, reported >= 0, double_click) == expected
    # the reader's bytes: an outcome digit minus '0', '-' wrapping to 253,
    # with the reader's mask
    read = np.where(reported < 0, ord("-") - ord("0") + 256, reported).astype(np.uint8)
    assert MonitorStats.of(read, read < 4, double_click) == expected


@pytest.mark.parametrize("announce_p", [0.3, 1.0])
@pytest.mark.parametrize("seed", range(3))
def test_record_of_thousands_of_announcements_equals_reference(seed, announce_p):
    # past the count at which the outcomes are counted by bit planes
    reported, double_click = random_columns(9_000, seed, announce_p, 0.1)
    expected = reference_stats(reported.tolist(), double_click.tolist())
    assert expected.singles >= 2_048
    assert MonitorStats.of(reported, reported >= 0, double_click) == expected
    read = np.where(reported < 0, ord("-") - ord("0") + 256, reported).astype(np.uint8)
    assert MonitorStats.of(read, read < 4, double_click) == expected


@settings(max_examples=500, deadline=None)
@given(cols=columns, data=st.data())
def test_merge_of_split_spans_equals_record_of_whole(cols, data):
    reported, double_click = cols
    cut = data.draw(st.integers(0, len(reported)), label="cut")
    announced = reported >= 0
    left = MonitorStats.of(reported[:cut], announced[:cut], double_click[:cut])
    right = MonitorStats.of(reported[cut:], announced[cut:], double_click[cut:])
    assert left.merge(right) == MonitorStats.of(reported, announced, double_click)


def test_stats_validation():
    assert make_stats(100, [1, 5], doubles=[7]).announced_events == 3


def gap_parity_of(slots):
    stats = make_stats(1000, slots)
    return gap_parity_uniformity(stats.odd_gaps, stats.singles - 1)


def test_gap_parity_all_even_gaps_reject():
    chi2, p = gap_parity_of(np.arange(0, 200, 2))
    assert chi2 == pytest.approx(99.0)  # (99 - 0)^2 / 99
    assert p < 1e-6


def test_gap_parity_balanced_gaps_pass():
    slots = np.cumsum([0] + [1, 2] * 50)
    chi2, p = gap_parity_of(slots)
    assert chi2 == 0.0
    assert p == 1.0


def test_gap_parity_needs_two_reports():
    assert gap_parity_of(np.array([], dtype=np.int64)) is None
    assert gap_parity_of(np.array([5])) is None


def test_rate_consistency_z_score():
    z = rate_consistency(220, 10000, 0.02)
    assert z == pytest.approx(20.0 / np.sqrt(10000 * 0.02 * 0.98))
    assert rate_consistency(180, 10000, 0.02) == pytest.approx(-z)


def test_rate_consistency_degenerate_rates():
    assert rate_consistency(0, 1000, 0.0) == 0.0
    assert rate_consistency(3, 1000, 0.0) == np.inf
    assert rate_consistency(1000, 1000, 1.0) == 0.0
    assert rate_consistency(997, 1000, 1.0) == -np.inf


def test_outcome_histogram_uniform_and_degenerate():
    counts, chi2, p = outcome_histogram([25, 25, 25, 25])
    assert list(counts) == [25, 25, 25, 25]
    assert chi2 == 0.0
    assert p == 1.0

    counts, chi2, p = outcome_histogram([50, 0, 0, 50])
    assert list(counts) == [50, 0, 0, 50]
    assert chi2 == pytest.approx(100.0)
    assert p < 1e-6

    assert outcome_histogram([0, 0, 0, 0]) is None


def test_double_click_rate():
    doubled = detectability_report(make_stats(100, [1, 5], doubles=[7, 9]), expected_rate=0.02)
    assert doubled.double_click_rate == pytest.approx(0.02)
    assert detectability_report(make_stats(100, [1, 5]), expected_rate=0.02).double_click_rate == 0.0


def test_detectability_report_verdict_wiring():
    biased = make_stats(10000, np.arange(0, 400, 2), outcomes=np.tile(np.arange(4), 50))
    report = detectability_report(biased, expected_rate=0.02)
    assert report.verdicts["gap_parity"] == "reject"
    assert report.verdicts["outcome_uniformity"] == "pass"
    assert report.verdicts["rate"] == "pass"
    assert report.verdicts["double_click"] == "pass"
    assert "reject" in report.verdicts.values()

    slots = np.cumsum([0] + [1, 2] * 99)  # 199 reports, balanced gap parity
    clean = make_stats(10000, slots, outcomes=np.tile(np.arange(4), 50)[:199])
    report = detectability_report(clean, expected_rate=0.02)
    assert "reject" not in report.verdicts.values()

    doubled = make_stats(10000, slots, outcomes=np.zeros(199), doubles=[9000])
    report = detectability_report(doubled, expected_rate=0.02)
    assert report.verdicts["double_click"] == "reject"
    assert report.verdicts["outcome_uniformity"] == "reject"  # all outcomes equal


def test_detectability_report_empty_record():
    report = detectability_report(make_stats(5000, []), expected_rate=0.02)
    assert report.verdicts["gap_parity"] == "absent"
    assert report.verdicts["outcome_uniformity"] == "absent"
    assert report.verdicts["rate"] == "reject"  # 0 reports vs expected 100
    assert report.gap_parity_chi2 is None
    assert report.outcome_p_value is None
    d = asdict(report)
    assert d["verdicts"]["gap_parity"] == "absent"
    assert d["alpha"] == 0.01


def test_alpha_validation():
    with pytest.raises(ValidationError):
        detectability_report(make_stats(100, [1, 3]), 0.02, alpha=0.0)


@pytest.mark.parametrize("name", ["gap_parity_p_value", "outcome_p_value"])
def test_detectability_report_refuses_a_p_value_above_one(name):
    # the constructor is public, so it checks what it is handed
    fields = dict(
        alpha=0.01, gap_parity_chi2=None, gap_parity_p_value=None, rate_z_score=0.0,
        outcome_chi2=None, outcome_p_value=None, double_click_rate=0.0,
    )
    with pytest.raises(ValidationError, match=f"{name} must be in \\[0,1\\], got 1.5"):
        DetectabilityReport(**{**fields, name: 1.5})


def test_monitor_false_positive_rates_near_alpha():
    """Calibration on the regime the monitors police: honest-looking streams
    at announcement rate 0.02. Each monitor may reject at most 2 alpha."""
    rng = np.random.default_rng(424242)
    n_slots, sessions, alpha = 5000, 1000, 0.01
    rejects = {"gap_parity": 0, "rate": 0, "outcome_uniformity": 0}
    for _ in range(sessions):
        detected = rng.random(n_slots) < 0.02
        slots = np.flatnonzero(detected)
        outcomes = rng.integers(0, 4, size=len(slots), dtype=np.int8)
        view = make_stats(n_slots, slots, outcomes=outcomes)
        report = detectability_report(view, expected_rate=0.02, alpha=alpha)
        for name in rejects:
            rejects[name] += report.verdicts[name] == "reject"
    for name, count in rejects.items():
        assert count <= 2 * alpha * sessions, (name, count)
