"""The session's draws against the generator words they read.

Every Bernoulli trial reads one random byte (protocol._trials): trial i
reads byte i of the raw words and succeeds below floor(256 p), and a byte
equal to that head takes a tie uniform, after the bytes in slot order,
that must fall below the remainder. The trials and the settings draw must
equal a byte-by-byte reference and leave the generator where it leaves
it; summed over all 256 bytes, a trial must succeed with probability
ceil(p * 2**61) / 2**61, and an honest session must read one byte per
trial and per Bell outcome. A Bell outcome reads one byte too, whose top
two bits pick a quarter of its preparation pair's row of the Bell table;
the click kernel must equal a photon-by-photon reference of that rule. A
table of equal probabilities must draw as its one scalar trial, and a
session where every photon arrived must write the same transcript whether
the kernels index the arrivals by slice or by positions. Tie uniforms
are numpy's (w >> 11) * 2**-53, one 64-bit word each, so a compare at p
succeeds below the bound ceil(p * 2**53) << 11. The covert key is drawn
once per key seed, and every prefix of that draw must be a fresh draw.
"""

import json
import math
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd import protocol
from ddiqkd.config import CovertAttackMode, parse_config
from ddiqkd.covert import key_bits
from ddiqkd.states import BELL_TABLE


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EDGE_PROBS = [0.0, 2.0**-60, 0.5, 1.0 - 2.0**-53, 1.0]
TABLE = [0.2, 0.6, 0.4, 0.3]  # per-outcome efficiencies of a mixed unit


def session_rng(seed, prefix):
    """A generator that may hold half of a 64-bit word after `prefix` int8
    draws."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rng.integers(0, 2, size=prefix, dtype=np.int8)
    return rng


@settings(max_examples=300, deadline=None)
@given(
    p=st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0)),
    n=st.integers(0, 3000),
    seed=st.integers(0, 2**32),
    prefix=st.integers(0, 3),
)
def test_random_compare_reads_one_raw_word_per_trial(p, n, seed, prefix):
    # each trial reads one whole raw word
    trial, raw = session_rng(seed, prefix), session_rng(seed, prefix)
    got = trial.random(n) < p
    words = raw.bit_generator.random_raw(n)
    assert np.array_equal(got, (words >> np.uint64(11)) * 2.0**-53 < p)
    assert trial.bit_generator.state == raw.bit_generator.state
    # into an int8 buffer, and the complement as a compare >= p
    flags = np.less(trial.random(n), p, out=np.empty(n, dtype=np.int8))
    words = raw.bit_generator.random_raw(n)
    assert flags.dtype == np.int8
    assert np.array_equal(flags, (words >> np.uint64(11)) * 2.0**-53 < p)
    words = raw.bit_generator.random_raw(n)
    assert np.array_equal(trial.random(n) >= p, (words >> np.uint64(11)) * 2.0**-53 >= p)
    assert trial.bit_generator.state == raw.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0)))
def test_random_compare_flips_at_the_bound(p):
    # the words around the bound, where a trial flips: a trial at p
    # succeeds on exactly the words below ceil(p * 2**53) << 11, so its
    # probability is p rounded up to a multiple of 2**-53
    bound = math.ceil(p * 2.0**53) << 11
    words = np.array(
        [w for w in range(bound - 4096, bound + 4096) if 0 <= w < 2**64], dtype=np.uint64
    )
    expected = np.array([int(w) < bound for w in words.tolist()])
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53 < p, expected)


def reference_trials(rng, p, n, outcome=None):
    """The one-byte rule, trial by trial: trial i reads byte i of the raw
    words and succeeds below floor(256 p); a byte equal to it, where the
    remainder f = 256 p - floor(256 p) is above 0, takes the next uniform in
    slot order and succeeds below f. Exact arithmetic throughout."""
    data = rng.bit_generator.random_raw(-(-n // 8)).astype("<u8").tobytes()[:n]
    probs = [p] * n if outcome is None else [p[o] for o in outcome]
    rules = {q: divmod(256 * Fraction(q), 1) for q in set(probs)}
    hit = [b < rules[q][0] for b, q in zip(data, probs)]
    ties = [i for i, (b, q) in enumerate(zip(data, probs)) if b == rules[q][0] and rules[q][1] > 0]
    for i in ties:
        hit[i] = Fraction(rng.random()) < rules[probs[i]][1]
    return np.array(hit, dtype=bool)


def settings_reference(rng, n, basis, bit_bias, transmittance):
    return [reference_trials(rng, p, n) for p in (basis, 0.5, basis, bit_bias, transmittance)]


def settings_columns(t):
    return (t.alice_basis, t.alice_bit, t.bob_basis, t.bob_bit, t.arrived)


@pytest.mark.parametrize("p", EDGE_PROBS)
def test_settings_draw_equals_byte_reference_at_edge_probabilities(p):
    # every trial of the settings draw at one edge probability
    n = 10_000
    config = SimpleNamespace(
        n_slots=n, basis_choice_prob=p, bob_bit_bias=p,
        channel=SimpleNamespace(transmittance=p),
    )
    rng, ref = session_rng(3, 1), session_rng(3, 1)
    t = protocol._draw_settings(config, rng)
    expected = settings_reference(ref, n, p, p, p)
    for got, want in zip(settings_columns(t), expected):
        assert np.array_equal(got, want)
    for got in (t.alice_basis, t.bob_basis, t.bob_bit, t.arrived):
        if p in (0.0, 1.0):
            assert got.all() == (p == 1.0) and got.any() == (p == 1.0)
    assert rng.bit_generator.state == ref.bit_generator.state


def settings_config(n):
    # _draw_settings reads only these fields; a namespace also allows n = 0
    return SimpleNamespace(
        n_slots=n, basis_choice_prob=0.3, bob_bit_bias=0.6,
        channel=SimpleNamespace(transmittance=0.2),
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("n", list(range(71)) + [9_999, 10_000, 100_003])
def test_settings_draw_equals_byte_reference(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = protocol._draw_settings(settings_config(n), rng)
    ref = np.random.Generator(np.random.PCG64(seed))
    expected = settings_reference(ref, n, 0.3, 0.6, 0.2)
    for got, want in zip(settings_columns(t), expected):
        assert np.array_equal(got, want)
    for flags in (t.alice_basis, t.alice_bit, t.bob_basis, t.bob_bit):
        assert flags.dtype == np.int8
    assert t.arrived.dtype == bool
    assert rng.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(rng.random(5), ref.random(5))


@settings(max_examples=200, deadline=None)
@given(
    p=st.one_of(st.sampled_from(EDGE_PROBS + [1e-3, 2.0**-9]), st.floats(0.0, 1.0)),
    n=st.integers(0, 3000),
    seed=st.integers(0, 2**32),
)
def test_trials_equal_byte_reference(p, n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    ref = np.random.Generator(np.random.PCG64(seed))
    assert np.array_equal(protocol._trials(rng, p, n), reference_trials(ref, p, n))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("table", [TABLE, [0.0, 1.0, 0.5, 2.0**-60], [1.0] * 4])
@pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 10_001])
def test_table_trials_equal_byte_reference(table, n):
    rng = np.random.Generator(np.random.PCG64(n))
    outcome = rng.integers(0, 4, size=n).astype(np.int8)
    ref = np.random.Generator(np.random.PCG64(0))
    rng = np.random.Generator(np.random.PCG64(0))
    got = protocol._trials(rng, table, n, outcome=outcome)
    assert np.array_equal(got, reference_trials(ref, table, n, outcome.tolist()))
    assert rng.bit_generator.state == ref.bit_generator.state


class EveryByte:
    """A generator stand-in whose 32 raw words hold every byte value once,
    in order, and whose uniforms are all u."""

    def __init__(self, u):
        self.u, self.uniforms = u, 0
        self.bit_generator = SimpleNamespace(random_raw=self.random_raw)

    def random_raw(self, words):
        assert words == 32
        return np.arange(256, dtype=np.uint8).view("<u8").astype(np.uint64)

    def random(self, k):
        self.uniforms += k
        return np.full(k, self.u)


def success_probability(p, outcome=None):
    """The exact probability that a trial at p (at p[outcome], one outcome
    for all 256 bytes) succeeds, and the uniforms it draws: the bytes that
    succeed whatever the uniform, plus the tie times the share of uniforms
    (multiples of 2**-53) that pass it. That share is read off the trials:
    a tie passes just below the bound ceil(f * 2**53) * 2**-53 and fails at
    it."""
    q = p if outcome is None else p[outcome[0]]
    h = math.floor(256 * Fraction(q))
    bound = math.ceil((256 * Fraction(q) - h) * 2**53)

    def trial(u):
        rng = EveryByte(u)
        return protocol._trials(rng, p, 256, outcome), rng.uniforms

    sure, uniforms = trial(np.nextafter(1.0, 0.0))
    below, _ = trial((bound - 1) * 2.0**-53)
    at, _ = trial(bound * 2.0**-53)
    assert np.array_equal(at, sure)
    ties = np.flatnonzero(below & ~sure).tolist()
    assert ties == ([h] if bound else []) and len(ties) == uniforms
    return Fraction(int(np.count_nonzero(sure)), 256) + Fraction(len(ties) * bound, 2**61), uniforms


def exact_law(p):
    return Fraction(math.ceil(Fraction(p) * 2**61), 2**61)


@settings(max_examples=300, deadline=None)
@given(p=st.one_of(st.sampled_from(EDGE_PROBS + [1e-3, 2.0**-9, 2.0**-9 - 2.0**-62]),
                   st.floats(0.0, 1.0)))
def test_trial_succeeds_with_probability_ceil_p_2_61(p):
    prob, uniforms = success_probability(p)
    assert prob == exact_law(p)
    # p itself from 2**-9 up, and within 2**-61 above it below that
    assert prob == p if p >= 2.0**-9 else 0 <= prob - Fraction(p) < Fraction(1, 2**61)
    # a tie draws a uniform only where 256 p is not whole
    assert uniforms == (0 if 256 * p == math.floor(256 * p) else 1)


@pytest.mark.parametrize("p", [1e-3, 2.0**-60])
def test_below_one_in_256_only_ties_succeed(p):
    assert np.flatnonzero(protocol._trials(EveryByte(0.0), p, 256)).tolist() == [0]
    assert not protocol._trials(EveryByte(np.nextafter(1.0, 0.0)), p, 256).any()
    prob, uniforms = success_probability(p)
    assert prob == exact_law(p) and uniforms == 1


@pytest.mark.parametrize("p", [0.0, 1.0])
def test_certain_trials_draw_no_uniform(p):
    rng = EveryByte(0.0)
    got = protocol._trials(rng, p, 256)
    assert rng.uniforms == 0
    assert got.all() == (p == 1.0) and got.any() == (p == 1.0)
    assert success_probability(p) == (p, 0)


@pytest.mark.parametrize("o", range(4))
def test_table_trial_follows_the_law_per_outcome(o):
    outcome = np.full(256, o, dtype=np.int8)
    assert success_probability(TABLE, outcome) == (Fraction(TABLE[o]), 1)
    # a certain outcome beside uncertain ones draws no uniform
    table = TABLE[:o] + [1.0] + TABLE[o + 1:]
    assert success_probability(table, outcome) == (1, 0)


@settings(max_examples=300, deadline=None)
@given(
    # head 0 and 256 with no remainder (p = 0, 1), head 0 with one (1e-3),
    # and heads in between with and without one
    p=st.one_of(st.sampled_from([0.0, 1.0, 1e-3, 2.0**-60, 0.5, 0.25 + 2.0**-20]), st.floats(0.0, 1.0)),
    n=st.integers(0, 3000),
    seed=st.integers(0, 2**32),
)
def test_equal_table_trials_equal_the_scalar_trial(p, n, seed):
    outcome = np.random.Generator(np.random.PCG64(seed + 1)).integers(0, 4, size=n).astype(np.int8)
    table, scalar = (np.random.Generator(np.random.PCG64(seed)) for _ in range(2))
    assert np.array_equal(protocol._trials(table, [p] * 4, n, outcome=outcome), protocol._trials(scalar, p, n))
    assert table.bit_generator.state == scalar.bit_generator.state


def reference_outcomes(rng, pairs):
    """A Bell outcome per photon: byte i of the raw words, read
    little-endian, picks quarter byte >> 6, and the outcomes of pair
    4 * source + receiver take, in order, as many quarters as their Bell
    probabilities hold."""
    data = rng.bit_generator.random_raw(-(-len(pairs) // 8)).astype("<u8").tobytes()
    outcomes = []
    for b, pair in zip(data, pairs):
        quarters = [round(4 * p) for p in BELL_TABLE[pair >> 2, pair & 3]]
        outcomes.append(next(k for k in range(4) if b >> 6 < sum(quarters[:k + 1])))
    return outcomes


@pytest.mark.parametrize("efficiencies", [[1.0] * 4, [0.5] * 4, TABLE])
@pytest.mark.parametrize("n", [1, 9, 10_001])
def test_detect_equals_photon_by_photon_reference(efficiencies, n):
    # a photon clicks on its Bell outcome where its detector's efficiency
    # trial passes; the trials follow the outcomes in the generator
    rng = np.random.Generator(np.random.PCG64(n))
    t = protocol._draw_settings(settings_config(n), rng)
    arr = protocol._select(t.arrived)
    pair = protocol._pairs(t)[arr]
    state = rng.bit_generator.state
    protocol._detect(t, arr, pair, [(eta, 0.0) for eta in efficiencies], rng)
    ref = np.random.Generator(np.random.PCG64(0))
    ref.bit_generator.state = state
    outcome = reference_outcomes(ref, pair.tolist())
    passed = reference_trials(ref, efficiencies, len(outcome), outcome)
    expected = np.full(n, -1, dtype=np.int8)
    expected[arr] = np.where(passed, outcome, -1)
    assert np.array_equal(t.reported, expected) and t.reported.dtype == np.int8
    assert np.array_equal(t.detected, expected >= 0)
    assert rng.bit_generator.state == ref.bit_generator.state


def session_doc(name):
    return json.loads((CONFIGS / f"{name}.json").read_text())


@pytest.mark.parametrize("doc", [
    session_doc("intercept_resend"),
    session_doc("blinding_symmetric"),
    session_doc("blinding_tailored"),
    # dark counts and unequal detectors, on the click kernel's other paths
    dict(session_doc("intercept_resend"), detectors=[
        {"efficiency": eta, "dark_count_prob": 0.01} for eta in TABLE
    ]),
], ids=["intercept_resend", "blinding_symmetric", "blinding_tailored", "intercept_resend_mixed_dark"])
def test_every_photon_arrived_transcript_is_the_same_through_the_slice(doc, monkeypatch):
    config = parse_config(dict(doc, n_slots=20_000))
    assert config.channel.transmittance == 1.0
    assert protocol._select(np.ones(3, dtype=bool)) == slice(None)
    sliced, _ = protocol.run_session(config)
    monkeypatch.setattr(protocol, "_select", np.flatnonzero)
    selected, _ = protocol.run_session(config)
    for field in fields(protocol.Transcript):
        got, want = getattr(sliced, field.name), getattr(selected, field.name)
        assert np.array_equal(got, want), field.name
        assert getattr(got, "dtype", None) == getattr(want, "dtype", None), field.name


@pytest.mark.parametrize("transmittance", [0.5, 0.98, 1.0])
def test_select_takes_the_slice_only_when_every_slot_arrived(transmittance):
    doc = dict(session_doc("intercept_resend"), n_slots=20_000, channel={"transmittance": transmittance})
    t, _ = protocol.run_session(parse_config(doc))
    assert isinstance(protocol._select(t.arrived), slice) == t.arrived.all()
    # no click and no interceptor record where no photon arrived
    assert (t.reported[~t.arrived] == -1).all() and (t.eve_basis[~t.arrived] == -1).all()
    assert (t.eve_basis[t.arrived] >= 0).all()


def test_honest_session_reads_one_byte_per_trial(monkeypatch):
    # every probability at 0.5 and no dark counts: no trial ties, so the
    # session reads 5 * ceil(n / 8) words of settings, then ceil(m / 8)
    # words of Bell outcomes and ceil(m / 8) of efficiency trials for its
    # m arrivals
    made = []
    generator = np.random.Generator
    monkeypatch.setattr(np.random, "Generator", lambda bits: made.append(generator(bits)) or made[-1])
    n = 10_003
    config = parse_config({
        "n_slots": n, "seed": 11, "channel": {"transmittance": 0.5},
        "detectors": {"efficiency": 0.5}, "eta_expected": 0.5, "mode": {"kind": "honest"},
    })
    _, report = protocol.run_session(config)
    m = report.arrived
    assert 0 < m < n
    twin = np.random.PCG64(config.seed)
    twin.advance(5 * -(-n // 8) + 2 * -(-m // 8))
    assert made[0].bit_generator.state == twin.state


def test_key_bits_one_draw_per_key_seed():
    a, b = CovertAttackMode(key_seed=7), CovertAttackMode(key_seed=2**63 + 5)
    for mode, n in [(a, 10), (a, 11), (a, 3_000), (a, 5), (b, 3), (a, 4_001),
                    (b, 2_000), (b, 1), (a, 0), (a, 17)]:
        got = protocol._key_bits(mode, n)
        assert got.dtype == np.int8
        assert np.array_equal(got, key_bits(mode.key_seed, n))
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[:1] = 1
        seed, draw = protocol._key_draw
        assert seed == mode.key_seed and len(draw) >= n
    # one seed held: a new seed draws what is asked, the same seed grows by
    # doubling (10 bits, then 20 for 11)
    protocol._key_bits(b, 3)
    protocol._key_bits(a, 6)
    assert len(protocol._key_draw[1]) == 6
    protocol._key_draw = (0, np.zeros(0, dtype=np.int64))
    protocol._key_bits(a, 10)
    protocol._key_bits(a, 11)
    assert len(protocol._key_draw[1]) == 20
    unkeyed = replace(a, keyed=False)
    zeros = protocol._key_bits(unkeyed, 50)
    assert zeros.dtype == np.int8 and len(zeros) == 50 and not zeros.any()
    assert protocol._key_draw[0] == a.key_seed
