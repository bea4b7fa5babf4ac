"""Single-photon state algebra over polarization and spatial qubits.

The photon carries two qubits: a polarization qubit prepared by the sender
(BB84 states H, V, D, A) and a spatial-mode qubit (modes a, b) written by the
receiver's encoder. The untrusted measurement unit projects the joint state
onto the four Bell states and announces one outcome per detector.

States are plain tuples of complex amplitudes: a qubit is its (amp0, amp1)
pair, prepared by one function for both degrees of freedom, and the joint
photon its 4-tuple. The pipeline never handles a state; it reads BELL_TABLE
and XOR_TABLE, which this module builds once at import. BELL_TABLE holds
each Bell probability as its exact quarter (0, 1/4, 1/2 or 1), not as the
rounded float bell_probabilities gives, so a threshold ties exactly.
XOR_TABLE is read off BELL_TABLE's same-basis pairs.

Conventions (fixed here, used everywhere else):
  * bit 0 maps to H (polarization) and to mode a (spatial); the X-basis
    states are (|0> + |1>)/sqrt2 for bit 0 and (|0> - |1>)/sqrt2 for bit 1;
  * joint amplitudes are ordered (H.a, H.b, V.a, V.b);
  * Bell states are Phi+- = (H.a +- V.b)/sqrt2 and Psi+- = (H.b +- V.a)/sqrt2.
"""

from __future__ import annotations

import math
from enum import IntEnum

import numpy as np

_SQRT1_2 = 1.0 / math.sqrt(2.0)

Qubit = tuple[complex, complex]
Joint = tuple[complex, complex, complex, complex]


class Basis(IntEnum):
    Z = 0
    X = 1


class BellOutcome(IntEnum):
    """The four Bell-projection outcomes, one single-photon detector each."""

    PHI_PLUS = 0
    PHI_MINUS = 1
    PSI_PLUS = 2
    PSI_MINUS = 3


# bit -> (amp0, amp1) in the given basis
_BB84_AMPLITUDES: dict[tuple[Basis, int], Qubit] = {
    (Basis.Z, 0): (1.0 + 0j, 0j),
    (Basis.Z, 1): (0j, 1.0 + 0j),
    (Basis.X, 0): (_SQRT1_2 + 0j, _SQRT1_2 + 0j),
    (Basis.X, 1): (_SQRT1_2 + 0j, -_SQRT1_2 + 0j),
}


def prepare(basis: Basis, bit: int) -> Qubit:
    """A BB84 qubit (amp0, amp1), as polarization (amp_h, amp_v): (Z,0)=H,
    (Z,1)=V, (X,0)=D, (X,1)=A; or as spatial mode (amp_a, amp_b)."""
    return _BB84_AMPLITUDES[(Basis(basis), bit)]


def tensor(pol: Qubit, spa: Qubit) -> Joint:
    """Tensor product of the two qubits in (H.a, H.b, V.a, V.b) order."""
    h, v = pol
    a, b = spa
    return (h * a, h * b, v * a, v * b)


def bell_probabilities(amplitudes: Joint) -> tuple[float, ...]:
    """Born-rule probabilities of the four Bell outcomes, indexed by BellOutcome.

    Computed as |<Bell_k|state>|^2 with the module's mode pairing; states whose
    overlap cancels algebraically come out as exact floating-point zeros.
    """
    ha, hb, va, vb = amplitudes
    overlaps = (
        (ha + vb) * _SQRT1_2,
        (ha - vb) * _SQRT1_2,
        (hb + va) * _SQRT1_2,
        (hb - va) * _SQRT1_2,
    )
    return tuple(z.real * z.real + z.imag * z.imag for z in overlaps)


# every BB84 (basis, bit) setting, at its preparation index 2*basis + bit
PREPARATIONS = tuple((basis, bit) for basis in Basis for bit in (0, 1))

# Bell probabilities of every preparation pair, [polarization, spatial, outcome]
BELL_TABLE = np.rint(4.0 * np.array([
    [bell_probabilities(tensor(prepare(*pol), prepare(*spa))) for spa in PREPARATIONS]
    for pol in PREPARATIONS
])) / 4.0

# the XOR of the parties' bits that a same-basis outcome implies, [basis,
# outcome]: the XOR of the bits of the same-basis pairs that can give it. In
# one basis an outcome comes from equal bits only or from unequal bits only.
XOR_TABLE = np.array([
    [max(a ^ c for a in (0, 1) for c in (0, 1) if BELL_TABLE[2 * b + a, 2 * b + c, o]) for o in BellOutcome]
    for b in Basis
], dtype=np.int8)
