"""End-to-end acceptance suite.

One test per criterion; each prints a single pass/fail line (visible under
pytest -s). Statistical checks use 3 sigma unless the criterion is exact.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from ddiqkd.cli import main
from ddiqkd.config import (
    BlindingMode,
    ChannelSpec,
    CovertAttackMode,
    DetectorSpec,
    HonestMode,
    InterceptResendMode,
    SessionConfig,
)
from ddiqkd.covert import (
    achievable_report_rate,
    eve_decode,
    key_bits,
    thinning_acceptance,
)
from ddiqkd.errors import InfeasibleRateError
from ddiqkd.protocol import run_session
from ddiqkd.states import (
    XOR_TABLE,
    Basis,
    BellOutcome,
    bell_probabilities,
    prepare,
    tensor,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"acceptance {num} [{label}]: FAIL")
        raise
    print(f"acceptance {num} [{label}]: PASS")


def binomial_3sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def tailored_detectors():
    return tuple(
        DetectorSpec({1550.0: 0.2}, 0.0, {1550.0: th}) for th in (0.9, 1.3, 1.3, 0.9)
    )


def test_acceptance_1_bell_statistics():
    with criterion(1, "bell statistics"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260101)
        n = 100_000
        for alice_basis in Basis:
            for alice_bit in (0, 1):
                for bob_basis in Basis:
                    for bob_bit in (0, 1):
                        state = tensor(prepare(alice_basis, alice_bit), prepare(bob_basis, bob_bit))
                        probs = np.asarray(bell_probabilities(state))
                        cum = np.cumsum(probs)
                        idx = np.minimum(np.searchsorted(cum, rng.random(n)), 3)
                        counts = np.bincount(idx, minlength=4)
                        if alice_basis == bob_basis:
                            zero = probs == 0.0  # analytic zeros are exact
                            assert zero.sum() == 2
                            assert counts[zero].sum() == 0
                            for c in counts[~zero]:
                                assert abs(c / n - 0.5) < binomial_3sigma(0.5, n)
                        else:
                            for c in counts:
                                assert abs(c / n - 0.25) < binomial_3sigma(0.25, n)
        assert time.perf_counter() - start < 5.0


def test_acceptance_2_bit_logic_oracle():
    with criterion(2, "bit logic oracle"):
        cases = 0
        for basis in Basis:
            for alice_bit in (0, 1):
                for bob_bit in (0, 1):
                    state = tensor(prepare(basis, alice_bit), prepare(basis, bob_bit))
                    probs = bell_probabilities(state)
                    for outcome in BellOutcome:
                        if probs[outcome] > 0.0:
                            # the table compute_qber reads
                            assert bob_bit ^ XOR_TABLE[basis, outcome] == alice_bit
                            cases += 1
        assert cases == 16


def test_acceptance_3_honest_baseline():
    with criterion(3, "honest baseline"):
        n = 100_000
        config = SessionConfig(
            n_slots=n, seed=300, channel=ChannelSpec(transmittance=0.1),
            detectors=(DetectorSpec({1550.0: 0.2}),) * 4, eta_expected=0.2,
            mode=HonestMode(),
        )
        _, report = run_session(config)
        assert report.qber == 0.0
        assert abs(report.reported_rate - 0.02) < binomial_3sigma(0.02, n)
        assert abs(report.sifted / report.reported - 0.5) < binomial_3sigma(0.5, report.reported)


def test_acceptance_4_covert_attack_correctness():
    with criterion(4, "covert attack correctness"):
        n = 100_000
        for seed, key_seed in ((101, 1), (202, 2), (303, 3)):
            config = SessionConfig(
                n_slots=n, seed=seed, channel=ChannelSpec(transmittance=0.1),
                eta_expected=0.2,
                mode=CovertAttackMode(eta_true=0.9, key_seed=key_seed, keyed=True),
            )
            transcript, report = run_session(config)
            slots = transcript.reported_slots()
            m = len(slots)
            assert report.qber == 0.0
            decoded = eve_decode(slots, key_bits(key_seed, m))
            assert np.array_equal(decoded, transcript.bob_bit[slots[:-1]])
            assert report.eve_leak_fraction == (m - 1) / m
            assert abs(report.reported_rate - 0.02) < binomial_3sigma(0.02, n)


def test_acceptance_5_covert_stealth_calibration():
    with criterion(5, "covert stealth calibration"):
        passes = {"gap_parity": 0, "rate": 0, "outcome_uniformity": 0}
        sessions = 200
        for s in range(sessions):
            config = SessionConfig(
                n_slots=10_000, seed=1000 + s, channel=ChannelSpec(transmittance=0.1),
                eta_expected=0.2,
                mode=CovertAttackMode(eta_true=0.9, key_seed=37 * s + 5, keyed=True),
            )
            _, report = run_session(config)
            for name in passes:
                passes[name] += report.detectability.verdicts[name] != "reject"
        for name, count in passes.items():
            assert count >= 0.95 * sessions, (name, count)

        # unkeyed with all-equal receiver bits: gaps go single-parity
        rejects = 0
        for s in range(100):
            config = SessionConfig(
                n_slots=5_000, seed=4000 + s, channel=ChannelSpec(transmittance=0.1),
                eta_expected=0.2, bob_bit_bias=1.0,
                mode=CovertAttackMode(eta_true=0.9, keyed=False),
            )
            _, report = run_session(config)
            rejects += report.detectability.verdicts["gap_parity"] == "reject"
        assert rejects >= 99


def mc_report_rate(p, n_slots, seed, q=1.0):
    """Monte Carlo of the parity-constrained reporter, written from the
    encoding rule alone: announce a detection iff its gap to the previous
    announcement has the required parity (re-drawn uniformly after every
    announcement) and it survives thinning with acceptance q."""
    rng = np.random.default_rng(seed)
    slots = np.flatnonzero(rng.random(n_slots) < p)
    last = -1
    need_even = False
    reports = 0
    for s in slots:
        if last < 0:
            announce = True
        else:
            gap_even = (s - last) % 2 == 0
            announce = gap_even == need_even and (q >= 1.0 or rng.random() < q)
        if announce:
            reports += 1
            last = int(s)
            need_even = rng.random() < 0.5
    return reports / n_slots


def test_acceptance_6_rate_law():
    with criterion(6, "rate law"):
        n = 10**6
        for p in (0.05, 0.1, 0.3, 0.9):
            law = achievable_report_rate(p)
            mc = mc_report_rate(p, n, seed=int(p * 1000))
            assert abs(mc - law) / law < 0.01, (p, law, mc)
        for p, target in ((0.09, 0.02), (0.3, 0.05), (0.9, 0.3)):
            q = thinning_acceptance(p, target)
            mc = mc_report_rate(p, n, seed=7777 + int(p * 100), q=q)
            assert abs(mc - target) / target < 0.01, (p, target, mc)
        # feasibility boundary at T=0.1, eta_true=0.9 sits at
        # eta_expected = achievable(0.09)/0.1 = 0.4604; probe both sides of
        # the gate a covert session applies
        mc09 = mc_report_rate(0.09, n, seed=90)
        for eta_expected in (0.2, 0.45, 0.47, 0.9):
            try:
                thinning_acceptance(0.09, 0.1 * eta_expected)
                feasible = True
            except InfeasibleRateError:
                feasible = False
            assert feasible == (mc09 >= 0.1 * eta_expected), eta_expected


def test_acceptance_7_blinding_symmetric_detectors():
    with criterion(7, "blinding symmetric detectors"):
        config = SessionConfig(
            n_slots=20_000, seed=700, channel=ChannelSpec(transmittance=0.9),
            mode=BlindingMode(pulse_power=2.2, wavelength_nm=1550.0),
        )
        transcript, report = run_session(config)
        doubles = int(np.count_nonzero(transcript.double_click))
        assert len(transcript.reported_slots()) == 0
        assert report.sifted == 0
        assert abs(doubles / report.arrived - 0.5) < binomial_3sigma(0.5, report.arrived)


def test_acceptance_8_blinding_tailored_thresholds():
    with criterion(8, "blinding tailored thresholds"):
        config = SessionConfig(
            n_slots=20_000, seed=800, detectors=tailored_detectors(),
            mode=BlindingMode(
                optimize=True, wavelength_grid=(1550.0,),
                power_grid=(1.5, 2.0, 2.5, 3.0),
            ),
        )
        _, report = run_session(config)
        assert report.plan is not None
        assert report.plan.single_click_prob == 1.0
        assert report.plan.double_click_prob == 0.0
        assert report.plan.cross_click_prob == 0.0
        assert report.qber == 0.0
        assert report.eve_leak_fraction == 1.0
        assert report.detectability.outcome_p_value < 1e-6


def test_acceptance_9_intercept_resend_baseline():
    with criterion(9, "intercept resend baseline"):
        config = SessionConfig(
            n_slots=100_000, seed=900,
            detectors=(DetectorSpec({1550.0: 0.5}),) * 4, eta_expected=0.5,
            mode=InterceptResendMode(),
        )
        _, report = run_session(config)
        assert report.sifted >= 10_000
        assert abs(report.qber - 0.25) < binomial_3sigma(0.25, report.sifted)


SCENARIOS = {
    "honest": {
        "n_slots": 2000, "seed": 31,
        "channel": {"transmittance": 0.1}, "eta_expected": 0.2,
    },
    "covert": {
        "n_slots": 4000, "seed": 32,
        "channel": {"transmittance": 0.1}, "eta_expected": 0.2,
        "mode": {"kind": "covert", "eta_true": 0.9, "key_seed": 7},
    },
    "blinding": {
        "n_slots": 2000, "seed": 33,
        "detectors": [
            {"efficiency": 0.2, "blind_threshold": th} for th in (0.9, 1.3, 1.3, 0.9)
        ],
        "mode": {"kind": "blinding", "pulse_power": 2.0},
    },
    "intercept_resend": {
        "n_slots": 2000, "seed": 34,
        "mode": {"kind": "intercept_resend"},
    },
}


def test_acceptance_10_determinism(tmp_path):
    with criterion(10, "determinism"):
        for name, doc in SCENARIOS.items():
            config_path = tmp_path / f"{name}.json"
            config_path.write_text(json.dumps(doc))
            outputs = []
            for attempt in ("a", "b"):
                out_dir = tmp_path / f"{name}_{attempt}"
                assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
                outputs.append(
                    (
                        (out_dir / "transcript.csv").read_bytes(),
                        (out_dir / "report.json").read_bytes(),
                    )
                )
            assert outputs[0] == outputs[1], name
