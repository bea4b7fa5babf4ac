"""The session engine's lookup tables against the per-state physics they
replace, and the shared click kernel's dark-count statistics."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd.blinding import (
    blinding_session_stats,
    click_table,
    evaluate_pulse,
    optimize_pulse,
)
from ddiqkd.config import (
    BlindingMode,
    ChannelSpec,
    DetectorSpec,
    HonestMode,
    InterceptResendMode,
    SessionConfig,
    parse_config,
)
from ddiqkd.protocol import _BELL_BY_QUARTER, run_session
from ddiqkd.states import (
    BELL_TABLE,
    PREPARATIONS,
    Basis,
    BellOutcome,
    bell_probabilities,
    prepare,
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
            state = tensor(prepare(*pol), prepare(*spa))
            probs = bell_probabilities(state)
            assert tuple(BELL_TABLE[i, j]) == probs


@pytest.mark.parametrize("pair", range(16))
def test_quarter_table_gives_each_pair_its_bell_probabilities(pair):
    # a byte's top two bits pick each quarter of the pair's row equally
    # often, so outcome k comes out with its share of the four quarters
    row = _BELL_BY_QUARTER[4 * pair:4 * pair + 4]
    assert row.dtype == np.int8 and len(_BELL_BY_QUARTER) == 64
    shares = np.bincount(row, minlength=4) / 4
    assert np.allclose(shares, BELL_TABLE[pair >> 2, pair & 3], rtol=0.0, atol=1e-12)
    # outcomes in order, so the quarters of one outcome are contiguous
    assert row.tolist() == sorted(row.tolist())


def test_import_refuses_a_bell_table_off_whole_quarters():
    code = (
        "import ddiqkd.states as states\n"
        "states.BELL_TABLE = states.BELL_TABLE.copy()\n"
        "states.BELL_TABLE[0, 0, :2] += (1e-9, -1e-9)\n"
        "import ddiqkd.protocol\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode != 0 and "ImportError: every Bell probability" in done.stderr


def blinding_working_point(name):
    config = parse_config(json.loads((CONFIGS / name).read_text()))
    mode = config.mode
    if mode.optimize:
        plan = optimize_pulse(config.detectors, mode.wavelength_grid, mode.power_grid)
        return config.detectors, plan.wavelength, plan.peak_power
    return config.detectors, mode.wavelength_nm, mode.pulse_power


def reference_click_table(detectors, wavelength, power):
    """The per-pair blinded response click_table replaced: for each
    (interceptor eigenstate, receiver setting) pair, detector k clicks iff
    power times the pair's Bell probability of outcome k meets its
    threshold at the wavelength; one click announces it, two or more are a
    double click."""
    outcome = np.full((4, 4), -1, dtype=np.int8)
    double = np.zeros((4, 4), dtype=bool)
    for i, eve in enumerate(PREPARATIONS):
        for j, bob in enumerate(PREPARATIONS):
            probs = bell_probabilities(tensor(prepare(*eve), prepare(*bob)))
            clicked = [
                k for k, (p, d) in enumerate(zip(probs, detectors))
                if power * p >= d.threshold_at(wavelength)
            ]
            if len(clicked) == 1:
                outcome[i, j] = clicked[0]
            double[i, j] = len(clicked) >= 2
    return outcome, double


@pytest.mark.parametrize("name", ["blinding_symmetric.json", "blinding_tailored.json"])
def test_blinding_click_table_matches_bright_response(name):
    detectors, wavelength, power = blinding_working_point(name)
    outcome, double = click_table(detectors, wavelength, power)
    ref_outcome, ref_double = reference_click_table(detectors, wavelength, power)
    assert np.array_equal(outcome, ref_outcome) and np.array_equal(double, ref_double)
    census = {"same_single": 0, "same_double": 0, "cross_any": 0}
    for i, eve in enumerate(PREPARATIONS):
        for j, bob in enumerate(PREPARATIONS):
            single = ref_outcome[i, j] >= 0
            if eve[0] == bob[0]:
                census["same_single"] += single
                census["same_double"] += ref_double[i, j]
            else:
                census["cross_any"] += single or ref_double[i, j]
    assert evaluate_pulse(detectors, wavelength, power) == (
        census["same_single"] / 8.0, census["same_double"] / 8.0, census["cross_any"] / 8.0
    )


# evaluate_pulse over POWERS at 1550 nm and the optimize_pulse plan over
# them, for each blinding config's detectors, as the per-pair engine gave
POWERS = [1.0, 1.5, 2.0, 2.2, 2.5, 3.0, 4.0]
PULSE_CENSUS = {
    "blinding_symmetric.json": (
        [(0.0, 0.0, 0.0)] * 3 + [(0.0, 1.0, 0.0)] * 4, (1550.0, 2.2, 0.0, 1.0, 0.0),
    ),
    "blinding_tailored.json": (
        [(0.0, 0.0, 0.0)] * 2 + [(1.0, 0.0, 0.0)] * 3 + [(0.0, 1.0, 0.0), (0.0, 1.0, 1.0)],
        (1550.0, 2.0, 1.0, 0.0, 0.0),
    ),
}


@pytest.mark.parametrize("name", sorted(PULSE_CENSUS))
def test_evaluate_and_optimize_pulse_unchanged(name):
    detectors, _, _ = blinding_working_point(name)
    census, plan = PULSE_CENSUS[name]
    assert [evaluate_pulse(detectors, 1550.0, p) for p in POWERS] == census
    best = optimize_pulse(detectors, [1550.0], POWERS)
    assert (best.wavelength, best.peak_power, best.single_click_prob,
            best.double_click_prob, best.cross_click_prob) == plan


THRESHOLD_WAVELENGTHS = (800.0, 1310.0, 1550.0, 1600.0)
quarter = st.integers(0, 3)
magnitudes = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)


@st.composite
def blinding_cases(draw):
    """Four detectors with random threshold tables, a wavelength and a
    power; some detectors' thresholds are set to one of the pulse's shares
    exactly, power * BELL_TABLE[i, j, k] for detector k, so its comparison
    ties on pair (i, j)."""
    keys = draw(st.lists(st.sampled_from(THRESHOLD_WAVELENGTHS), min_size=1, max_size=3, unique=True))
    power = draw(magnitudes)
    tables = []
    for k in range(4):
        table = {wl: draw(magnitudes) for wl in keys}
        if draw(st.booleans()):
            share = power * BELL_TABLE[draw(quarter), draw(quarter), k]
            if share > 0.0:
                table = dict.fromkeys(keys, float(share))
        tables.append(table)
    detectors = tuple(
        DetectorSpec({1550.0: 0.2}, 0.0, table) for table in tables
    )
    return detectors, draw(st.floats(min_value=700.0, max_value=1700.0)), power


@settings(max_examples=300, deadline=None)
@given(blinding_cases())
def test_click_table_equals_per_pair_reference(case):
    detectors, wavelength, power = case
    outcome, double = click_table(detectors, wavelength, power)
    ref_outcome, ref_double = reference_click_table(detectors, wavelength, power)
    assert outcome.dtype == np.int8
    assert np.array_equal(outcome, ref_outcome) and np.array_equal(double, ref_double)


def test_blinding_leak_matches_per_slot_reference():
    # one threshold just under a quarter of the pulse: basis-mismatched
    # rounds click singly on that detector, so her inference is imperfect
    detectors = tuple(
        DetectorSpec({1550.0: 0.2}, 0.0, {1550.0: th}) for th in (0.9, 1.3, 1.3, 1.0)
    )
    config = SessionConfig(
        n_slots=8000, seed=42, detectors=detectors,
        mode=BlindingMode(pulse_power=3.8, wavelength_nm=1550.0),
    )
    t, report = run_session(config)
    slots = t.reported_slots()
    reference = [
        int(t.eve_bit[s])
        ^ xor_from_outcome(BellOutcome(int(t.reported[s])), Basis(int(t.eve_basis[s])))
        for s in slots
    ]
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
        detectors=(DetectorSpec({1550.0: efficiency}, dark),) * 4,
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
