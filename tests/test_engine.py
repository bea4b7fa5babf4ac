"""The session engine's lookup tables against the per-state physics they
replace, and the shared click kernel's dark-count statistics."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from ddiqkd.blinding import (
    blinding_session_stats,
    click_table,
    eve_recovered_bits,
    evaluate_pulse,
    optimize_pulse,
)
from ddiqkd.channel import ChannelSpec
from ddiqkd.config import parse_config
from ddiqkd.devices import (
    BrightPulse,
    DetectorSpec,
    bsm_respond_bright,
    classify,
    make_detectors,
    sample_outcome,
)
from ddiqkd.protocol import (
    _BELL_CDF,
    BlindingMode,
    HonestMode,
    InterceptResendMode,
    SessionConfig,
    _bell_outcomes,
    run_session,
)
from ddiqkd.states import (
    BELL_TABLE,
    PREPARATIONS,
    Basis,
    BellOutcome,
    bell_probabilities,
    prepare_polarization,
    prepare_spatial,
    tensor,
    xor_from_outcome,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_preparation_index_is_two_basis_plus_bit():
    assert PREPARATIONS == ((Basis.Z, 0), (Basis.Z, 1), (Basis.X, 0), (Basis.X, 1))
    for i, (basis, bit) in enumerate(PREPARATIONS):
        assert i == 2 * basis + bit


def test_bell_table_rows_equal_bell_probabilities_exactly():
    for i, pol in enumerate(PREPARATIONS):
        for j, spa in enumerate(PREPARATIONS):
            state = tensor(prepare_polarization(*pol), prepare_spatial(*spa))
            probs = bell_probabilities(state)
            assert tuple(BELL_TABLE[i, j]) == probs
            assert tuple(_BELL_CDF[4 * i + j]) == tuple(np.cumsum(probs))


def test_bell_outcomes_match_sample_outcome_at_every_breakpoint():
    rng = np.random.default_rng(5)
    for i in range(4):
        for j in range(4):
            cdf = _BELL_CDF[4 * i + j]
            u = np.concatenate([
                [0.0, np.nextafter(1.0, 0.0)],
                cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
                rng.random(200),
            ])
            u = u[u < 1.0]
            src = np.full(len(u), i, dtype=np.int8)
            rcv = np.full(len(u), j, dtype=np.int8)
            got = _bell_outcomes(src, rcv, u)
            assert got.tolist() == [sample_outcome(BELL_TABLE[i, j], x) for x in u]


def blinding_working_point(name):
    config = parse_config(json.loads((CONFIGS / name).read_text()))
    mode = config.mode
    if mode.optimize:
        plan = optimize_pulse(config.detectors, mode.wavelength_grid, mode.power_grid)
        return config.detectors, plan.wavelength, plan.peak_power
    return config.detectors, mode.wavelength, mode.pulse_power


@pytest.mark.parametrize("name", ["blinding_symmetric.json", "blinding_tailored.json"])
def test_blinding_click_table_matches_bright_response(name):
    detectors, wavelength, power = blinding_working_point(name)
    outcome, double = click_table(detectors, wavelength, power)
    census = {"same_single": 0, "same_double": 0, "cross_any": 0}
    for i, eve in enumerate(PREPARATIONS):
        pulse = BrightPulse(power, wavelength, prepare_polarization(*eve))
        for j, bob in enumerate(PREPARATIONS):
            result = classify(bsm_respond_bright(pulse, prepare_spatial(*bob), detectors))
            assert outcome[i, j] == (result.outcome if result.is_single else -1)
            assert double[i, j] == result.is_double
            if eve[0] == bob[0]:
                census["same_single"] += result.is_single
                census["same_double"] += result.is_double
            else:
                census["cross_any"] += not result.is_no_click
    assert evaluate_pulse(detectors, wavelength, power) == (
        census["same_single"] / 8.0, census["same_double"] / 8.0, census["cross_any"] / 8.0
    )


def test_blinding_leak_matches_per_slot_reference():
    # one threshold just under a quarter of the pulse: basis-mismatched
    # rounds click singly on that detector, so her inference is imperfect
    detectors = tuple(
        DetectorSpec(BellOutcome(i), {1550.0: 0.2}, 0.0, {1550.0: th})
        for i, th in enumerate((0.9, 1.3, 1.3, 1.0))
    )
    config = SessionConfig(
        n_slots=8000, seed=42, detectors=detectors,
        mode=BlindingMode(pulse_power=3.8, wavelength=1550.0),
    )
    t, report = run_session(config)
    slots = t.reported_slots()
    reference = [
        int(t.eve_bit[s])
        ^ xor_from_outcome(BellOutcome(int(t.reported[s])), Basis(int(t.eve_basis[s])))
        for s in slots
    ]
    assert eve_recovered_bits(t).tolist() == reference
    recovered = dict(zip(slots.tolist(), reference))
    sifted = [s for s in slots.tolist() if t.alice_basis[s] == t.bob_basis[s]]
    hits = sum(recovered[s] == t.bob_bit[s] for s in sifted)
    assert 0 < hits < len(sifted)
    assert report.eve_leak_fraction == hits / len(sifted)
    assert blinding_session_stats(t).eve_key_fraction == hits / len(sifted)


def test_interceptor_reads_the_sender_bit_in_the_sender_basis():
    config = SessionConfig(
        n_slots=20_000, seed=40, channel=ChannelSpec(transmittance=0.5),
        mode=InterceptResendMode(),
    )
    t, _ = run_session(config)
    arr = t.arrived
    assert (t.eve_basis[arr] >= 0).all() and (t.eve_basis[~arr] == -1).all()
    match = arr & (t.eve_basis == t.alice_basis)
    cross = arr & (t.eve_basis != t.alice_basis)
    assert np.array_equal(t.eve_bit[match], t.alice_bit[match])
    m = np.count_nonzero(cross)
    agree = np.count_nonzero(t.eve_bit[cross] == t.alice_bit[cross])
    assert abs(agree / m - 0.5) < 5 * math.sqrt(0.25 / m)


DARK_SLOTS = 1_000_000


@pytest.mark.parametrize("mode, transmittance, efficiency", [
    (HonestMode(), 0.1, 0.2),
    (InterceptResendMode(), 1.0, 0.5),
])
@pytest.mark.parametrize("dark", [1e-3, 0.05])
def test_dark_count_click_rates_match_closed_form(mode, transmittance, efficiency, dark):
    config = SessionConfig(
        n_slots=DARK_SLOTS, seed=41, channel=ChannelSpec(transmittance=transmittance),
        detectors=make_detectors(efficiency=efficiency, dark_count_prob=dark),
        eta_expected=efficiency, mode=mode,
    )
    t, report = run_session(config)
    pc = transmittance * efficiency
    quiet = (1 - dark) ** 3  # the three detectors the photon did not hit stay dark
    single = pc * quiet + (1 - pc) * 4 * dark * quiet
    double = pc * (1 - quiet) + (1 - pc) * (1 - (1 - dark) ** 4 - 4 * dark * quiet)
    n = config.n_slots
    for observed, expected in (
        (len(t.reported_slots()) / n, single),
        (report.double_click_rate, double),
    ):
        assert abs(observed - expected) < 5 * math.sqrt(expected * (1 - expected) / n)
    assert np.array_equal(t.detected, (t.reported >= 0) | t.double_click)
