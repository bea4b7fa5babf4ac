import pytest

from ddiqkd.blinding import click_table, evaluate_pulse, optimize_pulse
from ddiqkd.config import BlindingMode, DetectorSpec, SessionConfig, parse_config
from ddiqkd.errors import NoViablePlanError
from ddiqkd.protocol import blinding_session_stats, run_session
from ddiqkd.states import BellOutcome

TAILORED = (0.9, 1.3, 1.3, 0.9)


def tailored_detectors(thresholds=TAILORED, wavelength=1550.0):
    return tuple(
        DetectorSpec({wavelength: 0.2}, 0.0, {wavelength: th}) for th in thresholds
    )


def test_click_table_symmetric_thresholds_double_on_matched_basis():
    outcome, double = click_table(
        (DetectorSpec(blind_threshold={1550.0: 1.0}),) * 4, 1550.0, 2.2
    )
    # H x a splits 1.1/1.1 across the Phi pair: both fire
    assert outcome[0, 0] == -1 and double[0, 0]
    # basis mismatch splits 0.55 four ways: silence
    assert outcome[0, 2] == -1 and not double[0, 2]


def test_click_table_tailored_thresholds_single_click():
    outcome, double = click_table(tailored_detectors(), 1550.0, 2.0)
    # V x a puts 1.0 on each Psi detector; only the 0.9 threshold fires
    assert outcome[1, 0] == BellOutcome.PSI_MINUS and not double[1, 0]


def test_evaluate_pulse_symmetric_all_doubles():
    single, double, cross = evaluate_pulse(
        (DetectorSpec(blind_threshold={1550.0: 1.0}),) * 4, 1550.0, 2.2
    )
    assert (single, double, cross) == (0.0, 1.0, 0.0)


def test_evaluate_pulse_symmetric_underpowered_silent():
    single, double, cross = evaluate_pulse(
        (DetectorSpec(blind_threshold={1550.0: 1.0}),) * 4, 1550.0, 1.7
    )
    assert (single, double, cross) == (0.0, 0.0, 0.0)


def test_evaluate_pulse_tailored_all_singles():
    single, double, cross = evaluate_pulse(tailored_detectors(), 1550.0, 2.0)
    assert (single, double, cross) == (1.0, 0.0, 0.0)


def test_evaluate_pulse_overpowered_tailored_goes_cross_loud():
    # at quarter-power above the low threshold even mismatched rounds click
    single, double, cross = evaluate_pulse(tailored_detectors(), 1550.0, 4.0)
    assert cross == 1.0


def test_optimizer_finds_tailored_plan():
    plan = optimize_pulse(tailored_detectors(), [1550.0], [1.0, 1.5, 2.0, 2.5, 3.0])
    assert plan.wavelength == 1550.0
    assert plan.peak_power == 2.0
    assert plan.single_click_prob == 1.0
    assert plan.double_click_prob == 0.0
    assert plan.cross_click_prob == 0.0


def test_optimizer_symmetric_cannot_avoid_doubles():
    plan = optimize_pulse(
        (DetectorSpec(blind_threshold={1550.0: 1.0}),) * 4, [1550.0], [1.0, 2.1, 2.2, 3.0]
    )
    assert plan.single_click_prob == 0.0
    assert plan.double_click_prob == 1.0
    assert plan.peak_power == 2.1  # ties broken toward the lowest power


def test_optimizer_prefers_wavelength_with_split_thresholds():
    # thresholds coincide at 1550 but split at 1310: the split point wins
    detectors = tuple(
        DetectorSpec({1550.0: 0.2}, 0.0, {1550.0: 1.0, 1310.0: th}) for th in TAILORED
    )
    plan = optimize_pulse(detectors, [1550.0, 1310.0], [2.0, 2.2])
    assert plan.wavelength == 1310.0
    assert plan.single_click_prob == 1.0


def test_optimizer_no_viable_plan():
    with pytest.raises(NoViablePlanError):
        optimize_pulse(
            (DetectorSpec(blind_threshold={1550.0: 1.0}),) * 4, [1550.0], [1.0, 1.5, 1.7]
        )


def test_session_stats_tailored_full_leak_no_errors():
    config = SessionConfig(
        n_slots=4000, seed=20, detectors=tailored_detectors(),
        mode=BlindingMode(pulse_power=2.0, wavelength_nm=1550.0),
    )
    transcript, _ = run_session(config)
    stats = blinding_session_stats(transcript)
    assert stats.qber == 0.0
    assert stats.eve_key_fraction == 1.0
    assert stats.double_click_rate == 0.0
    assert stats.detection_rate > 0.3  # about half the arrived slots click


def test_session_stats_symmetric_doubles_only():
    config = SessionConfig(
        n_slots=4000, seed=21, mode=BlindingMode(pulse_power=2.2, wavelength_nm=1550.0),
    )
    transcript, _ = run_session(config)
    stats = blinding_session_stats(transcript)
    assert stats.qber is None  # nothing sifted
    assert len(transcript.reported_slots()) == 0
    assert stats.double_click_rate == pytest.approx(0.5, abs=0.03)


def test_default_blinding_session_double_clicks_half_its_slots():
    # pulse 2.0 against thresholds 1.0: the half landing on each detector of
    # a basis-matched pair meets its threshold exactly, in either basis
    config = parse_config({"n_slots": 20_000, "mode": {"kind": "blinding"}})
    transcript, report = run_session(config)
    assert len(transcript.reported_slots()) == 0
    assert report.double_click_rate == pytest.approx(0.5, abs=0.02)
