import pytest

from ddiqkd.devices import (
    BrightPulse,
    DetectionResult,
    DetectorSpec,
    NO_CLICK,
    bsm_respond_bright,
    classify,
    make_detectors,
    sample_outcome,
)
from ddiqkd.errors import ValidationError
from ddiqkd.states import Basis, BellOutcome, prepare_polarization, prepare_spatial


def tailored_detectors(thresholds=(0.9, 1.3, 1.3, 0.9)):
    return tuple(
        DetectorSpec(BellOutcome(i), {1550.0: 0.2}, 0.0, {1550.0: th})
        for i, th in enumerate(thresholds)
    )


def test_detector_spec_validation():
    with pytest.raises(ValidationError):
        DetectorSpec(BellOutcome.PHI_PLUS, {1550.0: 1.5}, 0.0, {1550.0: 1.0})
    with pytest.raises(ValidationError):
        DetectorSpec(BellOutcome.PHI_PLUS, {1550.0: 0.2}, -0.1, {1550.0: 1.0})
    with pytest.raises(ValidationError):
        DetectorSpec(BellOutcome.PHI_PLUS, {}, 0.0, {1550.0: 1.0})


def test_wavelength_lookup_nearest_with_low_tie():
    d = DetectorSpec(
        BellOutcome.PHI_PLUS,
        {800.0: 0.05, 1550.0: 0.2},
        0.0,
        {800.0: 0.4, 1550.0: 1.0},
    )
    assert d.efficiency_at(1550.0) == 0.2
    assert d.efficiency_at(900.0) == 0.05
    assert d.threshold_at(10_000.0) == 1.0
    assert d.efficiency_at(1175.0) == 0.05  # equidistant: lower wavelength wins


def test_make_detectors_scalars():
    dets = make_detectors(efficiency=0.3, blind_threshold=1.2)
    assert len(dets) == 4
    assert [d.outcome for d in dets] == list(BellOutcome)
    assert all(d.efficiency_at(1550.0) == 0.3 for d in dets)
    assert all(d.threshold_at(1310.0) == 1.2 for d in dets)


def test_classify():
    assert classify((False,) * 4) == NO_CLICK
    single = classify((False, False, True, False))
    assert single.is_single and single.outcome == BellOutcome.PSI_PLUS
    double = classify((True, True, False, False))
    assert double.is_double and double.outcome is None
    assert double.clicked == frozenset((BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS))
    with pytest.raises(ValidationError):
        classify((True, False))


def test_sample_outcome_cumulative():
    probs = (0.5, 0.5, 0.0, 0.0)
    assert sample_outcome(probs, 0.0) == 0
    assert sample_outcome(probs, 0.499) == 0
    assert sample_outcome(probs, 0.5) == 1
    assert sample_outcome(probs, 0.999999) == 1
    assert sample_outcome((0.25,) * 4, 0.8) == 3


def test_bright_response_symmetric_thresholds_double_on_matched_basis():
    detectors = make_detectors(blind_threshold=1.0)
    pulse = BrightPulse(2.2, 1550.0, prepare_polarization(Basis.Z, 0))
    # H x a splits 1.1/1.1 across the Phi pair: both fire
    pattern = bsm_respond_bright(pulse, prepare_spatial(Basis.Z, 0), detectors)
    assert pattern == (True, True, False, False)
    # basis mismatch splits 0.55 four ways: silence
    pattern = bsm_respond_bright(pulse, prepare_spatial(Basis.X, 0), detectors)
    assert pattern == (False,) * 4


def test_bright_response_tailored_thresholds_single_click():
    detectors = tailored_detectors()
    pulse = BrightPulse(2.0, 1550.0, prepare_polarization(Basis.Z, 1))
    # V x a puts 1.0 on each Psi detector; only the 0.9 threshold fires
    pattern = bsm_respond_bright(pulse, prepare_spatial(Basis.Z, 0), detectors)
    assert classify(pattern).outcome == BellOutcome.PSI_MINUS


def test_bright_pulse_validation():
    with pytest.raises(ValidationError):
        BrightPulse(0.0, 1550.0, prepare_polarization(Basis.Z, 0))


def test_detection_result_properties():
    assert NO_CLICK.is_no_click and not NO_CLICK.is_single and NO_CLICK.outcome is None
    r = DetectionResult(frozenset((BellOutcome.PHI_MINUS,)))
    assert r.is_single and r.outcome == BellOutcome.PHI_MINUS
