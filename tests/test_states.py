import math

import numpy as np
import pytest

from ddiqkd.errors import ValidationError
from ddiqkd.states import (
    Basis,
    BellOutcome,
    JointPhotonState,
    PolarizationQubit,
    SpatialQubit,
    bell_probabilities,
    bell_state,
    infer_bit,
    prepare_polarization,
    prepare_spatial,
    tensor,
    xor_from_outcome,
)

S = 1.0 / math.sqrt(2.0)

ALL_SETTINGS = [(b, v) for b in Basis for v in (0, 1)]


# reference projection written out independently: explicit Bell vectors in the
# (H*a, H*b, V*a, V*b) amplitude order, probabilities via numpy inner products
_BELL_VECTORS = {
    BellOutcome.PHI_PLUS: np.array([S, 0, 0, S], dtype=complex),
    BellOutcome.PHI_MINUS: np.array([S, 0, 0, -S], dtype=complex),
    BellOutcome.PSI_PLUS: np.array([0, S, S, 0], dtype=complex),
    BellOutcome.PSI_MINUS: np.array([0, S, -S, 0], dtype=complex),
}


def reference_probabilities(state: JointPhotonState) -> list[float]:
    amps = np.array(state.amplitudes, dtype=complex)
    return [abs(np.vdot(_BELL_VECTORS[k], amps)) ** 2 for k in BellOutcome]


def test_preparation_tables():
    assert prepare_polarization(Basis.Z, 0).amp_h == 1.0
    assert prepare_polarization(Basis.Z, 1).amp_v == 1.0
    d = prepare_polarization(Basis.X, 0)
    a = prepare_polarization(Basis.X, 1)
    assert d.amp_h == pytest.approx(S) and d.amp_v == pytest.approx(S)
    assert a.amp_h == pytest.approx(S) and a.amp_v == pytest.approx(-S)
    s0 = prepare_spatial(Basis.Z, 0)
    assert (s0.amp_a, s0.amp_b) == (1.0, 0.0)


def test_tensor_amplitude_order():
    # ordering contract: (H*a, H*b, V*a, V*b)
    joint = tensor(PolarizationQubit(1.0, 0.0), SpatialQubit(0.0, 1.0))
    assert joint.amplitudes == (0.0, 1.0, 0.0, 0.0)
    joint = tensor(PolarizationQubit(0.0, 1.0), SpatialQubit(1.0, 0.0))
    assert joint.amplitudes == (0.0, 0.0, 1.0, 0.0)


def test_norm_validation():
    with pytest.raises(ValidationError):
        PolarizationQubit(1.0, 1.0)
    with pytest.raises(ValidationError):
        SpatialQubit(0.5, 0.5)
    with pytest.raises(ValidationError):
        JointPhotonState((1.0, 1.0, 0.0, 0.0))
    PolarizationQubit(S, S)  # unit norm passes


def test_bell_probabilities_match_reference_on_all_preparations():
    for ab, av in ALL_SETTINGS:
        for bb, bv in ALL_SETTINGS:
            state = tensor(prepare_polarization(ab, av), prepare_spatial(bb, bv))
            got = bell_probabilities(state)
            ref = reference_probabilities(state)
            assert got == pytest.approx(ref, abs=1e-12)
            assert sum(got) == pytest.approx(1.0, abs=1e-12)


def test_same_basis_structure_half_half_and_exact_zeros():
    for basis in Basis:
        for av in (0, 1):
            for bv in (0, 1):
                state = tensor(prepare_polarization(basis, av), prepare_spatial(basis, bv))
                probs = bell_probabilities(state)
                nonzero = sorted(p for p in probs if p != 0.0)
                zeros = [p for p in probs if p == 0.0]
                assert len(zeros) == 2  # forbidden outcomes vanish exactly
                assert nonzero == pytest.approx([0.5, 0.5])


def test_cross_basis_uniform_quarter():
    for basis in Basis:
        other = Basis.X if basis == Basis.Z else Basis.Z
        for av in (0, 1):
            for bv in (0, 1):
                state = tensor(prepare_polarization(basis, av), prepare_spatial(other, bv))
                assert bell_probabilities(state) == pytest.approx([0.25] * 4)


def test_bell_states_are_measurement_eigenstates():
    for k in BellOutcome:
        probs = bell_probabilities(bell_state(k))
        assert probs[k] == pytest.approx(1.0)
        for j in BellOutcome:
            if j != k:
                assert probs[j] == 0.0


def test_xor_rule_consistent_with_probabilities():
    # an outcome is possible iff the XOR it implies matches the prepared bits
    for basis in Basis:
        for av in (0, 1):
            for bv in (0, 1):
                state = tensor(prepare_polarization(basis, av), prepare_spatial(basis, bv))
                probs = bell_probabilities(state)
                for k in BellOutcome:
                    implied = xor_from_outcome(k, basis)
                    if probs[k] > 0.0:
                        assert implied == (av ^ bv)
                    else:
                        assert implied != (av ^ bv)


def test_infer_bit_inverts_xor():
    for basis in Basis:
        for k in BellOutcome:
            for bit in (0, 1):
                other = infer_bit(k, basis, bit)
                assert other ^ bit == xor_from_outcome(k, basis)


def test_invalid_bit_rejected():
    with pytest.raises(ValidationError):
        prepare_polarization(Basis.Z, 2)
    with pytest.raises(ValidationError):
        infer_bit(BellOutcome.PHI_PLUS, Basis.Z, -1)
