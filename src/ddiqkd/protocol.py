"""The session engine: run_session simulates one SessionConfig and
build_report summarizes it; the model itself lives in config.

A session is slot-synchronous: per slot the sender draws a BB84 basis/bit and
emits one polarization-encoded photon, the lossy channel forwards it, the
receiver draws his own basis/bit and encodes them on the photon's spatial
mode, and the measurement unit announces (or withholds) a Bell outcome. The
transcript records ground truth per slot; anyone outside the link sees only
its announced outcomes and double clicks. Sifting keeps announced single
clicks where the bases matched, double clicks are discarded from key
material but counted.

Every mode runs on two small tables instead of per-slot state algebra: the
Bell probabilities of the 16 (source, receiver) preparation pairs, and for
blinding the unit's deterministic response to the 16 (pulse, receiver)
pairs. A preparation's index is 2*basis + bit.

Determinism contract: a session is fully determined by (config, seed). Party
settings and arrivals are drawn in bulk in a fixed order, then each mode's
draws follow, also in bulk and in a fixed order (see run_session). Every
Bernoulli trial is rng.random(n) < p; the sender bits are read off raw words
with the values of numpy's int8 draw, which is several times faster. The
covert key is drawn once per key seed (_key_bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import DetectabilityReport, MonitorStats, detectability_report
# blinding_session_stats is not called here; the traced benchmark run
# rebinds it on this module
from .blinding import BlindingPlan, blinding_session_stats, click_table, optimize_pulse  # noqa: F401
from .config import BlindingMode, CovertAttackMode, HonestMode, InterceptResendMode, SessionConfig
from .covert import announce, eve_decode, key_bits, thinning_acceptance
from .errors import ConfigError, InfeasibleRateError, ValidationError
from .states import BELL_TABLE, XOR_TABLE


@dataclass
class Transcript:
    """Columnar per-slot record of a session, ground truth included.

    reported holds the announced Bell outcome index or -1; eve_basis/eve_bit
    hold the in-channel adversary's measurement record or -1 where absent.
    detected is the ground-truth flag that the unit registered the photon,
    whether or not it announced.
    """

    n_slots: int
    alice_basis: np.ndarray
    alice_bit: np.ndarray
    bob_basis: np.ndarray
    bob_bit: np.ndarray
    arrived: np.ndarray
    detected: np.ndarray
    reported: np.ndarray
    double_click: np.ndarray
    eve_basis: np.ndarray
    eve_bit: np.ndarray

    def reported_slots(self) -> np.ndarray:
        return np.nonzero(self.reported >= 0)[0]


@dataclass(frozen=True)
class SessionReport:
    """Aggregate session outcome plus the monitor summary."""

    mode: str
    sent: int
    arrived: int
    reported: int
    sifted: int
    qber: float | None
    key_rate: float
    reported_rate: float
    double_click_rate: float
    eve_leak_fraction: float
    expected_report_rate: float
    detectability: DetectabilityReport
    plan: BlindingPlan | None = None


# running sums of BELL_TABLE over outcomes, one row per preparation pair
_BELL_CDF = np.cumsum(BELL_TABLE, axis=2).reshape(16, 4)

# Outcome sampling by rank. A uniform u in [0, 1) picks the first outcome
# whose running sum exceeds it, so the outcome is how many of the pair's
# first three running sums (_SUMS) are <= u. Every uniform of one rank (how
# many of the distinct sums strictly inside (0, 1), _CDF_STEPS, are <= it)
# is >= the same sums as the smallest value of that rank (0 or the step),
# so the outcome of (pair, rank) is one entry of _OUTCOME_BY_RANK, flat at
# index pair * _RANKS + rank (below 128, so int8 holds it).
_SUMS = _BELL_CDF[:, :3]
_CDF_STEPS = np.unique(_SUMS[(_SUMS > 0.0) & (_SUMS < 1.0)])
_RANKS = len(_CDF_STEPS) + 1
_OUTCOME_BY_RANK = np.count_nonzero(
    np.concatenate(([0.0], _CDF_STEPS))[None, :, None] >= _SUMS[:, None, :], axis=2
).astype(np.int8).ravel()
_XOR_FLAT = XOR_TABLE.ravel()


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def key_rate(qber: float, sifted_fraction: float) -> float:
    """Asymptotic one-way rate per slot: sifted_fraction * max(0, 1 - 2 H2(q)).

    QBER estimates above 0.5 already yield rate 0, so q is clamped there.
    """
    if not 0.0 <= qber <= 1.0:
        raise ValidationError(f"qber must be in [0,1], got {qber}")
    if not 0.0 <= sifted_fraction <= 1.0:
        raise ValidationError(f"sifted_fraction must be in [0,1], got {sifted_fraction}")
    q = min(qber, 0.5)
    return sifted_fraction * max(0.0, 1.0 - 2.0 * binary_entropy(q))


def sift(transcript: Transcript) -> np.ndarray:
    """Slots of announced single clicks where the parties' bases agree."""
    t = transcript
    return np.flatnonzero((t.reported >= 0) & (t.alice_basis == t.bob_basis))


def compute_qber(transcript: Transcript, sifted_slots: np.ndarray) -> float | None:
    """Fraction of sifted events where the outcome-implied sender bit differs
    from the actual one; None when nothing was sifted."""
    if len(sifted_slots) == 0:
        return None
    t = transcript
    xor = _XOR_FLAT[4 * t.bob_basis[sifted_slots] + t.reported[sifted_slots]]
    errors = xor ^ t.bob_bit[sifted_slots] ^ t.alice_bit[sifted_slots]
    return float(np.count_nonzero(errors) / len(sifted_slots))


def _draw_settings(config: SessionConfig, rng) -> Transcript:
    """Bulk-draw party settings and arrivals in a fixed order."""
    n = config.n_slots

    def flags(p: float) -> np.ndarray:
        return np.less(rng.random(n), p, out=np.empty(n, dtype=np.int8))

    return Transcript(
        n_slots=n,
        alice_basis=flags(config.basis_choice_prob),
        # rng.integers(0, 2, n, int8): the top bit of each of the first n bytes
        # of ceil(n / 8) words. numpy would buffer the last word's unread 32-bit
        # half, which no later draw reads: they all take whole 64-bit words
        alice_bit=(rng.bit_generator.random_raw(-(-n // 8)).astype("<u8", copy=False)
                   .view(np.uint8)[:n] >> 7).view(np.int8),
        bob_basis=flags(config.basis_choice_prob),
        bob_bit=flags(config.bob_bit_bias),
        arrived=rng.random(n) < config.channel.transmittance,
        detected=np.zeros(n, dtype=bool),
        reported=np.full(n, -1, dtype=np.int8),
        double_click=np.zeros(n, dtype=bool),
        eve_basis=np.full(n, -1, dtype=np.int8),
        eve_bit=np.full(n, -1, dtype=np.int8),
    )


def _prep(basis: np.ndarray, bit: np.ndarray) -> np.ndarray:
    return 2 * basis + bit


def _pairs(t: Transcript, slots: slice | np.ndarray = slice(None)) -> np.ndarray:
    """Per selected slot (every slot by default), the index 4 * source +
    receiver of the parties' preparation pair; its bits are, high to low,
    sender basis and bit, receiver basis and bit."""
    source = _prep(t.alice_basis[slots], t.alice_bit[slots])
    return 4 * source + _prep(t.bob_basis[slots], t.bob_bit[slots])


def _bell_outcomes(pair: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The per-slot cumulative-sum draw over the Bell table that the tests
    hold as reference, one uniform per slot, for the preparation pair
    4 * source + receiver (int8); see _OUTCOME_BY_RANK."""
    rank = _RANKS * pair
    for step in _CDF_STEPS:
        rank += u >= step
    return _OUTCOME_BY_RANK[rank]


def _detect(config: SessionConfig, t: Transcript, pair: np.ndarray, rng) -> None:
    """Honest detection of the arrived photons, of preparation pair
    4 * source + receiver (one entry per arrived slot): a Bell outcome, then
    that detector's efficiency trial; a photon that fails it is absorbed
    silently. Then each detector with a dark-count probability fires
    independently over all slots.

    The draws are those of the per-slot rule, in the same order and sizes;
    a session with no dark-count detector draws no dark vector and writes
    the photon outcomes straight into the transcript."""
    k = _bell_outcomes(pair, rng.random(len(pair)))
    # the outcome where its detector's efficiency trial passes, else -1;
    # a trial per detector over the outcomes, which numpy runs faster than
    # a gather of the efficiencies by int8 outcome
    u = rng.random(len(k))
    passed = np.zeros(len(k), dtype=bool)
    for i, d in enumerate(config.detectors):
        passed |= (k == i) & (u < d.efficiency_at(config.signal_wavelength_nm))
    k = passed * (k + 1) - 1
    photon = np.full(t.n_slots, -1, dtype=np.int8)
    photon[t.arrived] = k
    dark = [(i, d.dark_count_prob) for i, d in enumerate(config.detectors) if d.dark_count_prob > 0.0]
    if not dark:
        t.reported = photon
        t.detected = photon >= 0
        return
    clicks = (photon >= 0).view(np.int8)
    # the sum of the clicked detectors' indices, which is the clicked
    # detector where exactly one clicks
    which = np.maximum(photon, 0)
    fired = np.empty(t.n_slots, dtype=np.int8)
    for i, p in dark:
        np.less(rng.random(t.n_slots), p, out=fired)
        fired &= photon != i
        clicks += fired
        fired *= i
        which += fired
    t.detected = clicks > 0
    t.double_click = clicks > 1
    t.reported = (which + 1) * (clicks == 1) - 1


def _intercept(t: Transcript, rng) -> np.ndarray:
    """The interceptor measures every arrived photon in a uniformly drawn
    basis: she gets the sender's bit when the bases match (an eigenstate),
    a fair coin otherwise. Records her basis and bit; returns the pair index
    4 * her resent preparation + the receiver's preparation per arrived slot."""
    arr = t.arrived
    m = int(np.count_nonzero(arr))
    basis = rng.random(m) >= 0.5
    coin = rng.random(m) >= 0.5
    pair = _pairs(t)[arr]
    # her bit: the sender's where her basis is the sender's (bit 3 of the
    # pair), else the coin
    bit = coin ^ ((basis == pair >> 3) & ((pair >> 2) ^ coin))
    t.eve_basis[arr] = basis
    t.eve_bit[arr] = bit
    pair &= 3
    pair += 4 * _prep(basis.view(np.int8), bit)
    return pair


_key_draw = (0, np.zeros(0, dtype=np.int8))  # the last key seed's longest draw


def _key_bits(mode: CovertAttackMode, n: int) -> np.ndarray:
    """The first n bits of the shared key as int8, a read-only prefix of one
    draw per key seed, grown by doubling; all zero when keying is off."""
    global _key_draw
    seed, draw = _key_draw
    if mode.keyed and (seed != mode.key_seed or len(draw) < n):
        draw = key_bits(mode.key_seed, max(n, 2 * len(draw) * (seed == mode.key_seed))).astype(np.int8)
        draw.flags.writeable = False
        _key_draw = (mode.key_seed, draw)
    return draw[:n] if mode.keyed else np.zeros(n, dtype=np.int8)


def _covert_acceptance(config: SessionConfig, mode: CovertAttackMode) -> float:
    """Feasibility gate: the reporter's thinning acceptance q, or a raise
    before any sampling happens."""
    transmittance = config.channel.transmittance
    target = mode.target_report_rate
    target = config.expected_report_rate() if target is None else target
    p_candidate = transmittance * mode.eta_true * mode.trojan.readout_success_prob
    if p_candidate <= 0.0:
        raise InfeasibleRateError(
            "covert reporting needs a nonzero per-slot detection probability "
            f"(transmittance {transmittance}, eta_true {mode.eta_true}, "
            f"readout success {mode.trojan.readout_success_prob})"
        )
    if target <= 0.0:
        raise InfeasibleRateError(f"the receiver expects no announcements (target rate {target})")
    return thinning_acceptance(p_candidate, target)


def _run_covert(mode: CovertAttackMode, q: float, t: Transcript, rng) -> None:
    """Covert detection and reporting, keyed by one key bit per candidate."""
    arrived = np.flatnonzero(t.arrived)
    candidates = arrived[rng.random(len(arrived)) < mode.eta_true]
    t.detected[candidates] = True
    p_readout = mode.trojan.readout_success_prob
    if p_readout < 1.0:
        # a detection whose encoder readout failed is never announced
        candidates = candidates[rng.random(len(candidates)) < p_readout]
    keys = _key_bits(mode, len(candidates))
    announced = announce(candidates, t.bob_bit[candidates], keys, q, rng)
    # outcomes pass through from honest measurement, never altered
    t.reported[announced] = _bell_outcomes(_pairs(t, announced), rng.random(len(announced)))


def _run_blinding(
    config: SessionConfig, mode: BlindingMode, t: Transcript, rng
) -> BlindingPlan | None:
    if mode.optimize:
        plan = optimize_pulse(config.detectors, mode.wavelength_grid, mode.power_grid)
        wavelength, power = plan.wavelength, plan.peak_power
    else:
        plan = None
        wavelength, power = mode.wavelength_nm, mode.pulse_power
    outcome, double = click_table(config.detectors, wavelength, power)
    arr = t.arrived
    pair = _intercept(t, rng).astype(np.intp)
    t.reported[arr] = outcome.ravel().take(pair)
    t.double_click[arr] = double.ravel().take(pair)
    t.detected[arr] = ((outcome >= 0) | double).ravel().take(pair)
    return plan


def _leak_fraction(config: SessionConfig, t: Transcript, sifted: np.ndarray) -> float:
    """Fraction of the relevant secret the in-channel or in-unit adversary
    actually recovered, from ground truth: per announced single, the
    receiver bits decoded from their gaps under the covert key, a prefix of
    the reporter's draw; per sifted slot, the bits the interceptor holds
    (intercept-resend, blinding)."""
    mode = config.mode
    if isinstance(mode, CovertAttackMode):
        singles = t.reported_slots()
        if len(singles) == 0:
            return 0.0
        decoded = eve_decode(singles, _key_bits(mode, len(singles) - 1))
        return np.count_nonzero(decoded == t.bob_bit[singles[:-1]]) / len(singles)
    blinding = isinstance(mode, BlindingMode)
    if len(sifted) == 0 or not (blinding or isinstance(mode, InterceptResendMode)):
        return 0.0
    eve_bit = t.eve_bit[sifted]
    if blinding:
        # the announced outcome turns her bit into the receiver's
        eve_bit = eve_bit ^ XOR_TABLE[t.eve_basis[sifted], t.reported[sifted]]
        return float(np.mean(eve_bit == t.bob_bit[sifted]))
    return float(np.mean(eve_bit == t.alice_bit[sifted]))


def build_report(
    config: SessionConfig, transcript: Transcript, plan: BlindingPlan | None = None,
) -> SessionReport:
    """The session report in one pass: the monitors' count record, the
    sifted slots and the expected rate are each taken once, and the counts,
    QBER, leak fraction and monitors (double-click rate included) all read
    from them."""
    stats = MonitorStats.of(transcript.reported, transcript.double_click)
    expected = config.expected_report_rate()
    det = detectability_report(stats, expected, config.alpha)
    sifted = sift(transcript)
    qber = compute_qber(transcript, sifted)
    n = config.n_slots
    reported = stats.announced_events
    rate = 0.0 if qber is None else key_rate(qber, len(sifted) / n)
    return SessionReport(
        mode=config.mode.kind,
        sent=n,
        arrived=int(np.count_nonzero(transcript.arrived)),
        reported=reported,
        sifted=int(len(sifted)),
        qber=qber,
        key_rate=rate,
        reported_rate=reported / n,
        double_click_rate=det.double_click_rate,
        eve_leak_fraction=_leak_fraction(config, transcript, sifted),
        expected_report_rate=expected,
        detectability=det,
        plan=plan,
    )


def run_session(config: SessionConfig) -> tuple[Transcript, SessionReport]:
    """Simulate one session; deterministic in (config, seed).

    Raises InfeasibleRateError before simulating anything when a covert
    configuration cannot reach its target announcement rate. Dark counts are
    modeled on the honest and intercept-resend paths only; the covert and
    blinding units are adversary-controlled hardware whose spurious counts
    the adversary suppresses.

    After settings and arrivals, with m arrived slots: honest draws m Bell
    outcomes, m efficiency trials, then n dark counts per dark detector;
    intercept-resend and blinding first draw m interceptor bases and m
    coins, and blinding nothing more; covert draws m efficiency trials, the
    readout and thinning trials, then one Bell outcome per announcement.
    """
    mode = config.mode
    q = _covert_acceptance(config, mode) if isinstance(mode, CovertAttackMode) else None
    rng = np.random.Generator(np.random.PCG64(config.seed))
    t = _draw_settings(config, rng)
    plan: BlindingPlan | None = None
    if isinstance(mode, HonestMode):
        _detect(config, t, _pairs(t)[t.arrived], rng)
    elif isinstance(mode, CovertAttackMode):
        assert q is not None
        _run_covert(mode, q, t, rng)
    elif isinstance(mode, BlindingMode):
        plan = _run_blinding(config, mode, t, rng)
    elif isinstance(mode, InterceptResendMode):
        _detect(config, t, _intercept(t, rng), rng)
    else:
        raise ConfigError(f"unknown session mode: {mode!r}")
    return t, build_report(config, t, plan)
