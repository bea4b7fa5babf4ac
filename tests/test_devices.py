import pytest

from ddiqkd.devices import DetectorSpec, make_detectors
from ddiqkd.errors import ValidationError
from ddiqkd.states import BellOutcome


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

