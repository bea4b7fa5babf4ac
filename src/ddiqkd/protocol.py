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

The report's sifted, error and interceptor-hit totals are each one count
over dense int8 passes on the full-length columns, no sifted slot gathered
(sift_counts); a slot where the interceptor holds no bit is a miss.

Every mode runs one unit: its real detectors click, then a policy picks
the clicks it announces. The clicks come from two small tables: the Bell
probabilities of the 16 (source, receiver) preparation pairs, and for
blinding the unit's deterministic response to the 16 (pulse, receiver)
pairs. A preparation's index is 2*basis + bit. The covert policy thins its
clicks with one trial per click, and its reporter picks among those left
without drawing.

Determinism contract: a session is fully determined by (config, seed). Party
settings and arrivals are drawn in bulk in a fixed order, then each mode's
draws follow, also in bulk and in a fixed order (see run_session). Every
Bernoulli trial reads one random byte (_trials) and succeeds with
probability ceil(p * 2**61) / 2**61, which is p for every p >= 2**-9. A
Bell outcome reads one byte too: its top two bits pick one of four equally
likely quarters, and every Bell probability is a whole number of quarters,
so the outcome follows BELL_TABLE exactly. The covert key is drawn once per
key seed (_key_bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import DetectabilityReport, MonitorStats, detectability_report
from .blinding import BlindingPlan, click_table, optimize_pulse
from .config import BlindingMode, CovertAttackMode, HonestMode, InterceptResendMode, SessionConfig
from .covert import announce, eve_decode, key_bits, thinning_acceptance
from .errors import ConfigError, InfeasibleRateError
from .states import BELL_TABLE


@dataclass
class Transcript:
    """Columnar per-slot record of a session, ground truth included.

    reported holds the announced Bell outcome index or -1; eve_basis/eve_bit
    hold the in-channel adversary's measurement record or -1 where absent.
    detected is the ground-truth flag that the unit's real detectors
    clicked, whether or not it announced.
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


# The Bell outcome of preparation pair p whose byte's top two bits read q,
# at index 4 * p + q: each pair's outcomes take as many of the four quarters
# as their probabilities hold, in outcome order.
_BELL_BY_QUARTER = np.repeat(np.tile(np.arange(4, dtype=np.int8), 16), (4 * BELL_TABLE).astype(int).ravel())


def binary_entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def key_rate(qber: float, sifted_fraction: float) -> float:
    """Asymptotic one-way rate per slot: sifted_fraction * max(0, 1 - 2 H2(q)).

    QBER estimates above 0.5 already yield rate 0, so q is clamped there.
    """
    q = min(qber, 0.5)
    return sifted_fraction * max(0.0, 1.0 - 2.0 * binary_entropy(q))


def _implied_xor(basis: np.ndarray, outcome: np.ndarray, out: np.ndarray) -> np.ndarray:
    """XOR_TABLE[basis, outcome] per slot into out (int8), as bit 1 of
    outcome << basis, in place. Where the outcome is -1 (nothing announced)
    or the basis is -1 (no interceptor bit) the entry is 0 or 1 all the
    same, so the caller's mask or bit decides."""
    np.multiply(outcome, basis, out=out)
    out += outcome
    out >>= 1
    out &= 1
    return out


def sift_counts(t: Transcript, announced: np.ndarray, eve_target: str | None = None) -> tuple[int, int, int]:
    """(sifted, errors, hits) over the sifted slots, announced single clicks
    (announced is reported >= 0) where the parties' bases agree. Each is
    one count_nonzero over full-length int8 passes, no sifted slot
    gathered. An error is a sifted slot whose outcome-implied XOR in the
    receiver's basis differs from the XOR of the parties' bits. A hit is a
    sifted slot where the interceptor holds the bit she targets: with
    eve_target "sender" (intercept-resend) her bit is the sender's; with
    "receiver" (blinding) her bit XOR the outcome-implied XOR in her basis
    is the receiver's; with None hits is 0. A slot where she holds no bit
    (-1) is a miss. announced is overwritten: the passes reuse its bytes."""
    sifted = np.equal(t.alice_basis, t.bob_basis)
    sifted &= announced
    n_sifted = int(np.count_nonzero(sifted))
    if n_sifted == 0:
        return 0, 0, 0
    work = announced.view(np.int8)
    _implied_xor(t.bob_basis, t.reported, work)
    work ^= t.alice_bit
    work ^= t.bob_bit
    work &= sifted.view(np.int8)
    errors = int(np.count_nonzero(work))
    if eve_target is None:
        return n_sifted, errors, 0
    # a miss is a nonzero XOR of her guess and the target bit; where she
    # holds no bit, her -1 sets the high bits, so the XOR is nonzero there
    # even where its low bit is 0
    if eve_target == "sender":
        np.bitwise_xor(t.eve_bit, t.alice_bit, out=work)
    else:
        _implied_xor(t.eve_basis, t.reported, work)
        work ^= t.eve_bit
        work ^= t.bob_bit
    misses = int(np.count_nonzero(np.logical_and(work, sifted, out=sifted)))
    return n_sifted, errors, n_sifted - misses


@dataclass(frozen=True)
class BlindingStats:
    """Attack-facing summary of a blinding-mode transcript."""

    detection_rate: float
    qber: float | None
    double_click_rate: float
    eve_key_fraction: float


def blinding_session_stats(transcript: Transcript) -> BlindingStats:
    """Aggregate detection rate, QBER, double-click rate, and the fraction of
    sifted receiver bits the interceptor recovered: her bit XOR the XOR
    that the announced Bell state implies in her basis, which under a valid
    plan is the only way a blinded round clicks (sift_counts)."""
    n = transcript.n_slots
    announced = transcript.reported >= 0
    singles = int(np.count_nonzero(announced))
    doubles = int(np.count_nonzero(transcript.double_click))
    sifted, errors, hits = sift_counts(transcript, announced, "receiver")
    qber = errors / sifted if sifted else None
    return BlindingStats((singles + doubles) / n, qber, doubles / n, hits / sifted if sifted else 0.0)


def _bytes(rng, n: int) -> np.ndarray:
    """n random bytes: byte i of ceil(n / 8) raw words, little-endian."""
    return rng.bit_generator.random_raw(-(-n // 8)).astype("<u8", copy=False).view(np.uint8)[:n]


def _trials(rng, p, n: int, outcome: np.ndarray | None = None) -> np.ndarray:
    """n Bernoulli trials (bool) at probability p, or at p[outcome[i]] for a
    table p. Trial i reads byte i (_bytes) and succeeds below h = floor(256 p);
    where f = 256 p - h > 0, a byte equal to h takes one uniform, drawn after
    the bytes in slot order, and succeeds below f. So a trial succeeds with
    probability ceil(p * 2**61) / 2**61."""
    byte = _bytes(rng, n)
    frac, head = np.modf(256.0 * np.asarray(p, dtype=float))
    if outcome is None:
        # a Python int compares with the bytes as uint8; 256 would not fit
        heads = int(head)
        if heads == 256:
            return np.ones(n, dtype=bool)
    else:
        heads = head.astype(np.int16).take(outcome)
    hit = byte < heads
    if frac.any():
        ties = np.flatnonzero(byte == heads)
        if outcome is not None:
            frac = frac.take(outcome[ties])
            ties, frac = ties[frac > 0.0], frac[frac > 0.0]
        hit[ties] = rng.random(len(ties)) < frac
    return hit


def _draw_settings(config: SessionConfig, rng) -> Transcript:
    """Bulk-draw party settings and arrivals in a fixed order."""
    n = config.n_slots

    def flags(p: float) -> np.ndarray:
        return _trials(rng, p, n).view(np.int8)

    return Transcript(
        n_slots=n,
        alice_basis=flags(config.basis_choice_prob),
        alice_bit=flags(0.5),
        bob_basis=flags(config.basis_choice_prob),
        bob_bit=flags(config.bob_bit_bias),
        arrived=_trials(rng, config.channel.transmittance, n),
        detected=np.zeros(n, dtype=bool),
        reported=np.full(n, -1, dtype=np.int8),
        double_click=np.zeros(n, dtype=bool),
        eve_basis=np.full(n, -1, dtype=np.int8),
        eve_bit=np.full(n, -1, dtype=np.int8),
    )


def _prep(basis: np.ndarray, bit: np.ndarray) -> np.ndarray:
    return 2 * basis + bit


def _pairs(t: Transcript) -> np.ndarray:
    """Per slot, the index 4 * source + receiver of the parties' preparation
    pair; its bits are, high to low, sender basis and bit, receiver basis
    and bit."""
    return 4 * _prep(t.alice_basis, t.alice_bit) + _prep(t.bob_basis, t.bob_bit)


def _detect(t: Transcript, arr, pair: np.ndarray, detectors: list[tuple[float, float]], rng) -> None:
    """The clicks of detectors of the given (efficiency, dark-count
    probability) on the arrived photons (selected by arr) of preparation
    pair 4 * source + receiver (one entry per arrived slot): a Bell
    outcome, its byte's top two bits read in _BELL_BY_QUARTER, then that
    detector's efficiency trial (one trial for equal detectors, which reads
    the same bytes and ties); a photon that fails it is absorbed silently.
    Then each detector with a dark-count probability fires independently
    over all slots; a unit with none draws no dark vector."""
    k = _BELL_BY_QUARTER.take(4 * pair.view(np.uint8) + (_bytes(rng, len(pair)) >> 6))
    etas = [eta for eta, _ in detectors]
    passed = _trials(rng, etas[0], len(k)) if len(set(etas)) == 1 else _trials(rng, etas, len(k), outcome=k)
    # the outcome where its detector's efficiency trial passes, else -1
    t.reported[arr] = passed * (k + 1) - 1
    photon = t.reported
    dark = [(i, p) for i, (_, p) in enumerate(detectors) if p > 0.0]
    if not dark:
        t.detected = photon >= 0
        return
    clicks = (photon >= 0).view(np.int8)
    # the sum of the clicked detectors' indices, which is the clicked
    # detector where exactly one clicks
    which = np.maximum(photon, 0)
    for i, p in dark:
        fired = _trials(rng, p, t.n_slots).view(np.int8)
        fired &= photon != i
        clicks += fired
        fired *= i
        which += fired
    t.detected = clicks > 0
    t.double_click = clicks > 1
    t.reported = (which + 1) * (clicks == 1) - 1


def _intercept(t: Transcript, arr, rng) -> np.ndarray:
    """The interceptor measures every arrived photon (selected by arr) in a
    uniformly drawn basis: she gets the sender's bit when the bases match
    (an eigenstate), a fair coin otherwise. Records her basis and bit;
    returns the pair index 4 * her resent preparation + the receiver's
    preparation per arrived slot."""
    pair = _pairs(t)[arr]
    basis = _trials(rng, 0.5, len(pair))
    coin = _trials(rng, 0.5, len(pair))
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


def _covert_policy(mode: CovertAttackMode, q: float, t: Transcript, rng) -> None:
    """The covert unit's candidates are its single clicks whose encoder
    readout succeeded and that pass its thinning trial at acceptance q; it
    announces those its reporter picks, keyed by one key bit per candidate.
    An announced slot keeps the outcome its detectors gave."""
    candidates = np.flatnonzero(t.reported >= 0)
    for p in (mode.trojan.readout_success_prob, q):
        if p < 1.0:
            candidates = candidates[_trials(rng, p, len(candidates))]
    keys = _key_bits(mode, len(candidates))
    announced = announce(candidates, t.bob_bit[candidates], keys)
    reported = np.full(t.n_slots, -1, dtype=np.int8)
    reported[announced] = t.reported[announced]
    t.reported = reported


def _run_blinding(
    config: SessionConfig, mode: BlindingMode, t: Transcript, arr, pair: np.ndarray
) -> BlindingPlan | None:
    if mode.optimize:
        plan = optimize_pulse(config.detectors, mode.wavelength_grid, mode.power_grid)
        wavelength, power = plan.wavelength, plan.peak_power
    else:
        plan = None
        wavelength, power = mode.wavelength_nm, mode.pulse_power
    outcome, double = click_table(config.detectors, wavelength, power)
    pair = pair.astype(np.intp)
    t.reported[arr] = outcome.ravel().take(pair)
    t.double_click[arr] = double.ravel().take(pair)
    t.detected[arr] = ((outcome >= 0) | double).ravel().take(pair)
    return plan


# the bit each in-channel interceptor's record targets (sift_counts)
_EVE_TARGET = {InterceptResendMode: "sender", BlindingMode: "receiver"}


def _covert_leak(mode: CovertAttackMode, t: Transcript) -> float:
    """Per announced single, the receiver bits decoded from their gaps
    under the covert key, a prefix of the reporter's draw, that are right."""
    singles = t.reported_slots()
    if len(singles) == 0:
        return 0.0
    decoded = eve_decode(singles, _key_bits(mode, len(singles) - 1))
    return np.count_nonzero(decoded == t.bob_bit[singles[:-1]]) / len(singles)


def build_report(
    config: SessionConfig, transcript: Transcript, plan: BlindingPlan | None = None,
) -> SessionReport:
    """The session report: the monitors' record from the announced mask,
    then one dense pass (sift_counts) over the basis, bit, outcome and
    interceptor columns. The leak fraction is the share of sifted slots the
    interceptor hits, or of announced singles the covert decoder gets."""
    t = transcript
    announced = t.reported >= 0
    stats = MonitorStats.of(t.reported, announced, t.double_click)
    expected = config.expected_report_rate()
    det = detectability_report(stats, expected, config.alpha)
    mode = config.mode
    sifted, errors, hits = sift_counts(t, announced, _EVE_TARGET.get(type(mode)))
    if isinstance(mode, CovertAttackMode):
        leak = _covert_leak(mode, t)
    else:
        leak = hits / sifted if sifted else 0.0
    qber = errors / sifted if sifted else None
    n = config.n_slots
    reported = stats.announced_events
    return SessionReport(
        mode=mode.kind,
        sent=n,
        arrived=int(np.count_nonzero(t.arrived)),
        reported=reported,
        sifted=sifted,
        qber=qber,
        key_rate=0.0 if qber is None else key_rate(qber, sifted / n),
        reported_rate=reported / n,
        double_click_rate=det.double_click_rate,
        eve_leak_fraction=leak,
        expected_report_rate=expected,
        detectability=det,
        plan=plan,
    )


def _select(arrived: np.ndarray):
    """The arrived slots as the kernels index them: a slice where all
    arrived, so a gather is a view and a scatter a copy; else their
    positions."""
    return slice(None) if arrived.all() else np.flatnonzero(arrived)


def run_session(config: SessionConfig) -> tuple[Transcript, SessionReport]:
    """Simulate one session; deterministic in (config, seed).

    Raises InfeasibleRateError before simulating anything when a covert
    configuration cannot reach its target announcement rate. The unit's
    real detectors are the declared ones, dark counts included, but a
    covert unit's are four at eta_true whose dark counts the adversary
    suppresses; a blinded unit's clicks are its click table's.

    After settings and arrivals, with m arrived slots: intercept-resend and
    blinding draw m interceptor bases and m coins; then every mode but
    blinding draws m Bell outcomes, m efficiency trials and n dark counts
    per dark detector; then covert draws a readout trial per single click
    and, when q < 1, a thinning trial per click that passed its readout.
    """
    mode = config.mode
    if not isinstance(mode, (HonestMode, CovertAttackMode, BlindingMode, InterceptResendMode)):
        raise ConfigError(f"unknown session mode: {mode!r}")
    q = _covert_acceptance(config, mode) if isinstance(mode, CovertAttackMode) else None
    rng = np.random.Generator(np.random.PCG64(config.seed))
    t = _draw_settings(config, rng)
    arr = _select(t.arrived)
    interceptor = isinstance(mode, (BlindingMode, InterceptResendMode))
    pair = _intercept(t, arr, rng) if interceptor else _pairs(t)[arr]
    plan: BlindingPlan | None = None
    if isinstance(mode, BlindingMode):
        plan = _run_blinding(config, mode, t, arr, pair)
    else:
        real = [(d.efficiency_at(config.signal_wavelength_nm), d.dark_count_prob) for d in config.detectors]
        _detect(t, arr, pair, real if q is None else [(mode.eta_true, 0.0)] * 4, rng)
    if q is not None:
        _covert_policy(mode, q, t, rng)
    return t, build_report(config, t, plan)
