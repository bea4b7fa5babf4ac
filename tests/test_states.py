import hashlib
import math

import numpy as np
import pytest

from ddiqkd.states import (
    BELL_TABLE,
    XOR_TABLE,
    Basis,
    BellOutcome,
    bell_probabilities,
    prepare,
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


def reference_probabilities(state: tuple) -> list[float]:
    amps = np.array(state, dtype=complex)
    return [abs(np.vdot(_BELL_VECTORS[k], amps)) ** 2 for k in BellOutcome]


def test_preparation_tables():
    assert prepare(Basis.Z, 0) == (1.0, 0.0)
    assert prepare(Basis.Z, 1) == (0.0, 1.0)
    assert prepare(Basis.X, 0) == pytest.approx((S, S))
    assert prepare(Basis.X, 1) == pytest.approx((S, -S))


def test_tensor_amplitude_order():
    # ordering contract: (H*a, H*b, V*a, V*b)
    assert tensor((1.0, 0.0), (0.0, 1.0)) == (0.0, 1.0, 0.0, 0.0)
    assert tensor((0.0, 1.0), (1.0, 0.0)) == (0.0, 0.0, 1.0, 0.0)
    assert tensor((2.0, 3.0), (5.0, 7.0)) == (10.0, 14.0, 15.0, 21.0)


def test_bell_probabilities_match_reference_on_all_preparations():
    for ab, av in ALL_SETTINGS:
        for bb, bv in ALL_SETTINGS:
            state = tensor(prepare(ab, av), prepare(bb, bv))
            got = bell_probabilities(state)
            ref = reference_probabilities(state)
            assert got == pytest.approx(ref, abs=1e-12)
            assert sum(got) == pytest.approx(1.0, abs=1e-12)


def test_same_basis_structure_half_half_and_exact_zeros():
    for basis in Basis:
        for av in (0, 1):
            for bv in (0, 1):
                state = tensor(prepare(basis, av), prepare(basis, bv))
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
                state = tensor(prepare(basis, av), prepare(other, bv))
                assert bell_probabilities(state) == pytest.approx([0.25] * 4)


def test_bell_states_are_measurement_eigenstates():
    for k in BellOutcome:
        probs = bell_probabilities(_BELL_VECTORS[k])
        assert probs[k] == pytest.approx(1.0)
        for j in BellOutcome:
            if j != k:
                assert probs[j] == 0.0


def test_xor_rule_consistent_with_probabilities():
    # an outcome is possible iff the XOR it implies matches the prepared bits
    for basis in Basis:
        for av in (0, 1):
            for bv in (0, 1):
                state = tensor(prepare(basis, av), prepare(basis, bv))
                probs = bell_probabilities(state)
                for k in BellOutcome:
                    implied = xor_from_outcome(k, basis)
                    if probs[k] > 0.0:
                        assert implied == (av ^ bv)
                    else:
                        assert implied != (av ^ bv)


def test_table_bytes_pinned():
    # the session kernels read only these two tables; their exact bytes fix
    # every draw and every output file, so any change to the state algebra
    # that moves an entry off its quarter shows up here first
    assert BELL_TABLE.dtype == np.float64 and BELL_TABLE.shape == (4, 4, 4)
    assert hashlib.sha256(BELL_TABLE.tobytes()).hexdigest() == (
        "ffedc94ba57c5ff037181395806a5352e82756ef1f48c54bb08022a5f6d32fb7"
    )
    assert XOR_TABLE.dtype == np.int8 and XOR_TABLE.shape == (2, 4)
    assert hashlib.sha256(XOR_TABLE.tobytes()).hexdigest() == (
        "555c0d0cb8bdab0bd66b2c2c1e4a65ac4796468ca58b029c4e5471fa31b5fcbb"
    )
