import pytest

from ddiqkd.config import DetectorSpec
from ddiqkd.errors import ValidationError


def test_detector_spec_validation():
    with pytest.raises(ValidationError):
        DetectorSpec({1550.0: 1.5}, 0.0, {1550.0: 1.0})
    with pytest.raises(ValidationError):
        DetectorSpec({1550.0: 0.2}, -0.1, {1550.0: 1.0})
    with pytest.raises(ValidationError):
        DetectorSpec({}, 0.0, {1550.0: 1.0})


def test_wavelength_lookup_nearest_with_low_tie():
    d = DetectorSpec({800.0: 0.05, 1550.0: 0.2}, 0.0, {800.0: 0.4, 1550.0: 1.0})
    assert d.efficiency_at(1550.0) == 0.2
    assert d.efficiency_at(900.0) == 0.05
    assert d.threshold_at(10_000.0) == 1.0
    assert d.efficiency_at(1175.0) == 0.05  # equidistant: lower wavelength wins
