import dataclasses
import math

import numpy as np
import pytest

from ddiqkd.config import (
    BlindingMode,
    ChannelSpec,
    CovertAttackMode,
    DetectorSpec,
    InterceptResendMode,
    SessionConfig,
    TrojanProbe,
)
from ddiqkd.covert import eve_decode, key_bits
from ddiqkd.errors import ConfigError, InfeasibleRateError, ValidationError
from ddiqkd.protocol import (
    binary_entropy,
    build_report,
    key_rate,
    run_session,
)

# frozen oracle: -0.11 log2 0.11 - 0.89 log2 0.89
H2_011 = 0.499915958164528


def sifted_slots(t):
    """Announced single clicks where the parties' bases agree."""
    return np.flatnonzero((t.reported >= 0) & (t.alice_basis == t.bob_basis))


def transcript_arrays(t):
    return {f.name: getattr(t, f.name) for f in dataclasses.fields(t) if f.name != "n_slots"}


def test_config_validation():
    with pytest.raises(ValidationError):
        SessionConfig(n_slots=0)
    with pytest.raises(ValidationError):
        SessionConfig(seed=-1)
    with pytest.raises(ValidationError):
        SessionConfig(seed=2**64)
    with pytest.raises(ValidationError):
        SessionConfig(detectors=(DetectorSpec(),) * 3)
    with pytest.raises(ValidationError):
        SessionConfig(basis_choice_prob=1.1)
    with pytest.raises(ValidationError):
        SessionConfig(bob_bit_bias=-0.2)
    with pytest.raises(ValidationError):
        SessionConfig(alpha=0.0)
    SessionConfig(bob_bit_bias=1.0)  # degenerate bias is a valid stress setting


def test_mode_validation():
    with pytest.raises(ValidationError):
        CovertAttackMode(eta_true=0.0)
    with pytest.raises(ValidationError):
        CovertAttackMode(eta_true=1.2)
    with pytest.raises(ValidationError):
        CovertAttackMode(target_report_rate=0.0)
    with pytest.raises(ValidationError):
        BlindingMode(optimize=True)  # grids required
    with pytest.raises(ConfigError, match="unknown session mode"):
        run_session(SessionConfig(mode="quantum_cloning"))


def test_expected_report_rate():
    config = SessionConfig(channel=ChannelSpec(transmittance=0.1), eta_expected=0.2)
    assert config.expected_report_rate() == pytest.approx(0.02)


def test_binary_entropy_reference_points():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.11) == H2_011
    assert binary_entropy(0.3) == binary_entropy(0.7)


def test_key_rate_reference_points():
    assert key_rate(0.0, 0.5) == 0.5
    assert key_rate(0.25, 0.5) == 0.0  # H2(0.25) = 0.811... puts 1 - 2 H2 below 0
    assert key_rate(0.5, 1.0) == 0.0
    assert key_rate(0.9, 1.0) == 0.0  # clamped at 0.5
    assert key_rate(0.11, 0.5) == pytest.approx(0.5 * (1.0 - 2.0 * H2_011), rel=1e-12)


def test_honest_perfect_devices():
    config = SessionConfig(
        n_slots=10000, seed=7,
        detectors=(DetectorSpec({1550.0: 1.0}),) * 4, eta_expected=1.0,
    )
    transcript, report = run_session(config)
    assert report.qber == 0.0
    assert report.reported == config.n_slots  # unit efficiency, unit transmittance
    assert report.double_click_rate == 0.0
    sigma = math.sqrt(config.n_slots * 0.25)
    assert abs(report.sifted - report.reported / 2) < 3 * sigma
    assert report.key_rate == pytest.approx(report.sifted / config.n_slots)


def test_sift_all_bases_aligned():
    config = SessionConfig(
        n_slots=2000, seed=8, basis_choice_prob=0.0,
        detectors=(DetectorSpec({1550.0: 1.0}),) * 4, eta_expected=1.0,
    )
    transcript, report = run_session(config)
    assert report.sifted == report.reported == config.n_slots
    assert len(transcript.reported_slots()) == config.n_slots


def test_count_monotonicity_lossy():
    config = SessionConfig(
        n_slots=5000, seed=9, channel=ChannelSpec(transmittance=0.6),
        detectors=(DetectorSpec({1550.0: 0.5}),) * 4, eta_expected=0.5,
    )
    transcript, report = run_session(config)
    assert report.sent >= report.arrived >= report.reported >= report.sifted
    assert report.arrived < report.sent  # losses actually occurred
    assert report.reported < report.arrived
    assert report.qber == 0.0


def test_compute_qber_empty_is_none():
    config = SessionConfig(n_slots=50, seed=10, channel=ChannelSpec(transmittance=0.0))
    transcript, report = run_session(config)
    assert report.reported == 0
    assert report.qber is None
    assert report.key_rate == 0.0
    assert report.sifted == 0


def test_injected_bit_flips_show_up_as_qber():
    config = SessionConfig(
        n_slots=20000, seed=11,
        detectors=(DetectorSpec({1550.0: 1.0}),) * 4, eta_expected=1.0,
    )
    transcript, _ = run_session(config)
    sifted = sifted_slots(transcript)
    flip_rng = np.random.default_rng(12)
    flips = flip_rng.random(len(sifted)) < 0.11
    transcript.bob_bit[sifted[flips]] ^= 1
    qber = build_report(config, transcript).qber
    assert qber == np.count_nonzero(flips) / len(sifted)
    sigma = math.sqrt(0.11 * 0.89 / len(sifted))
    assert abs(qber - 0.11) < 3 * sigma


def test_dark_counts_produce_counted_doubles():
    config = SessionConfig(
        n_slots=5000, seed=13,
        detectors=(DetectorSpec({1550.0: 1.0}, 0.05),) * 4, eta_expected=1.0,
    )
    transcript, report = run_session(config)
    doubles = int(np.count_nonzero(transcript.double_click))
    singles = len(transcript.reported_slots())
    assert doubles > 0
    assert report.reported == singles + doubles  # announced events include doubles
    assert report.double_click_rate == doubles / config.n_slots
    sifted = sifted_slots(transcript)
    assert report.sifted == len(sifted)
    assert not transcript.double_click[sifted].any()  # discarded before sifting


def test_covert_session_invariants():
    config = SessionConfig(
        n_slots=10000, seed=14, channel=ChannelSpec(transmittance=0.1),
        eta_expected=0.2, mode=CovertAttackMode(eta_true=0.9, key_seed=5),
    )
    transcript, report = run_session(config)
    slots = transcript.reported_slots()
    m = len(slots)
    assert transcript.detected[slots].all()
    assert transcript.arrived[slots].all()
    assert report.qber == 0.0
    assert report.double_click_rate == 0.0
    decoded = eve_decode(slots, key_bits(5, m))
    assert np.array_equal(decoded, transcript.bob_bit[slots[:-1]])
    assert report.eve_leak_fraction == (m - 1) / m
    target = config.expected_report_rate()
    sigma = math.sqrt(target * (1 - target) / config.n_slots)
    assert abs(report.reported_rate - target) < 3 * sigma


def test_covert_session_without_announcement_leaks_nothing():
    # at seed 0 the one photon is lost in the channel
    config = SessionConfig(n_slots=1, channel=ChannelSpec(transmittance=0.1), mode=CovertAttackMode())
    _, report = run_session(config)
    assert report.arrived == report.reported == 0
    assert report.eve_leak_fraction == 0.0


def test_covert_partial_trojan_readout_still_decodes_cleanly():
    mode = CovertAttackMode(
        eta_true=0.9, key_seed=6,
        trojan=TrojanProbe(readout_success_prob=0.6),
    )
    config = SessionConfig(
        n_slots=20000, seed=15, channel=ChannelSpec(transmittance=0.1),
        eta_expected=0.2, mode=mode,
    )
    transcript, report = run_session(config)
    slots = transcript.reported_slots()
    decoded = eve_decode(slots, key_bits(6, len(slots)))
    assert np.array_equal(decoded, transcript.bob_bit[slots[:-1]])
    assert report.qber == 0.0


def test_covert_infeasible_target_raises_before_running():
    config = SessionConfig(
        n_slots=10**9,  # would take minutes if the gate did not fire first
        seed=16, channel=ChannelSpec(transmittance=0.1),
        eta_expected=0.5, mode=CovertAttackMode(eta_true=0.9),
    )
    with pytest.raises(InfeasibleRateError):
        run_session(config)


def test_run_session_deterministic():
    config = SessionConfig(
        n_slots=3000, seed=17, channel=ChannelSpec(transmittance=0.1),
        eta_expected=0.2, mode=CovertAttackMode(eta_true=0.9, key_seed=3),
    )
    t1, r1 = run_session(config)
    t2, r2 = run_session(config)
    assert r1 == r2
    for name, arr in transcript_arrays(t1).items():
        assert np.array_equal(arr, transcript_arrays(t2)[name]), name


def test_intercept_resend_qber_quarter():
    config = SessionConfig(
        n_slots=40000, seed=19,
        detectors=(DetectorSpec({1550.0: 1.0}),) * 4, eta_expected=1.0,
        mode=InterceptResendMode(),
    )
    transcript, report = run_session(config)
    sigma = math.sqrt(0.25 * 0.75 / report.sifted)
    assert abs(report.qber - 0.25) < 3 * sigma
    assert report.eve_leak_fraction == pytest.approx(0.75, abs=3 * sigma)
    assert report.key_rate == 0.0


def test_report_rates_are_python_floats():
    # report.json and the sweep CSV print these; numpy scalars would leak
    # into any other consumer of SessionReport
    _, report = run_session(SessionConfig(n_slots=2000, seed=3, mode=InterceptResendMode()))
    assert report.sifted > 0
    for name in ("qber", "key_rate", "reported_rate", "double_click_rate", "eve_leak_fraction"):
        assert type(getattr(report, name)) is float, name
