"""The session's draws against the generator words they read.

Every Bernoulli trial is rng.random(n) < p, one 64-bit word per trial with
numpy's uniform (w >> 11) * 2**-53; the tail skip in covert.announce and the
sender bits, read off raw words, count on that, so a trial must equal the
compare of its raw word, succeed below the bound ceil(p * 2**53) << 11, and
leave the generator where random_raw(n) leaves it. The settings draw reads
the sender bits off raw bytes between those trials; the bits must be the
values rng.integers(0, 2, n, int8) gives, and the generator must be left
where numpy's own draws leave it for every later 64-bit draw. The covert key
is drawn once per key seed, and every prefix of that draw must be a fresh
draw.
"""

from dataclasses import replace
from types import SimpleNamespace

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd import protocol
from ddiqkd.config import CovertAttackMode
from ddiqkd.covert import key_bits


EDGE_PROBS = [0.0, 2.0**-60, 0.5, 1.0 - 2.0**-53, 1.0]


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
def test_trials_equal_float_compare(p, n, seed, prefix):
    # each trial reads one raw word: announce skips trials as raw words
    trial, raw = session_rng(seed, prefix), session_rng(seed, prefix)
    got = trial.random(n) < p
    words = raw.bit_generator.random_raw(n)
    assert np.array_equal(got, (words >> np.uint64(11)) * 2.0**-53 < p)
    assert trial.bit_generator.state == raw.bit_generator.state
    # into an int8 buffer as the settings draw writes it, and the
    # complement as a compare >= p as _intercept writes it
    flags = np.less(trial.random(n), p, out=np.empty(n, dtype=np.int8))
    words = raw.bit_generator.random_raw(n)
    assert flags.dtype == np.int8
    assert np.array_equal(flags, (words >> np.uint64(11)) * 2.0**-53 < p)
    words = raw.bit_generator.random_raw(n)
    assert np.array_equal(trial.random(n) >= p, (words >> np.uint64(11)) * 2.0**-53 >= p)
    assert trial.bit_generator.state == raw.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(p=st.one_of(st.sampled_from(EDGE_PROBS), st.floats(0.0, 1.0)))
def test_below_at_the_bound(p):
    # the words around the bound, where a trial flips: a trial at p
    # succeeds on exactly the words below ceil(p * 2**53) << 11, so its
    # probability is p rounded up to a multiple of 2**-53
    bound = math.ceil(p * 2.0**53) << 11
    words = np.array(
        [w for w in range(bound - 4096, bound + 4096) if 0 <= w < 2**64], dtype=np.uint64
    )
    expected = np.array([int(w) < bound for w in words.tolist()])
    assert np.array_equal((words >> np.uint64(11)) * 2.0**-53 < p, expected)


@pytest.mark.parametrize("p", EDGE_PROBS)
def test_trials_edge_probabilities(p):
    # every trial of the settings draw at one edge probability
    n = 10_000
    config = SimpleNamespace(
        n_slots=n, basis_choice_prob=p, bob_bit_bias=p,
        channel=SimpleNamespace(transmittance=p),
    )
    t = protocol._draw_settings(config, session_rng(3, 1))
    ref = session_rng(3, 1)
    expected = [ref.random(n) < p]
    ref.integers(0, 2, size=n, dtype=np.int8)
    expected += [ref.random(n) < p for _ in range(3)]
    for got, want in zip((t.alice_basis, t.bob_basis, t.bob_bit, t.arrived), expected):
        assert np.array_equal(got, want)
        if p in (0.0, 1.0):
            assert got.all() == (p == 1.0) and got.any() == (p == 1.0)


def settings_config(n):
    # _draw_settings reads only these fields; a namespace also allows n = 0
    return SimpleNamespace(
        n_slots=n, basis_choice_prob=0.3, bob_bit_bias=0.6,
        channel=SimpleNamespace(transmittance=0.2),
    )


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("n", list(range(71)) + [9_999, 10_000, 100_003])
def test_settings_draw_equals_numpy_draws(n, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    t = protocol._draw_settings(settings_config(n), rng)
    ref = np.random.Generator(np.random.PCG64(seed))
    assert np.array_equal(t.alice_basis, ref.random(n) < 0.3)
    alice_bit = ref.integers(0, 2, size=n, dtype=np.int8)
    assert t.alice_bit.dtype == np.int8
    assert np.array_equal(t.alice_bit, alice_bit)
    assert np.array_equal(t.bob_basis, ref.random(n) < 0.3)
    assert np.array_equal(t.bob_bit, ref.random(n) < 0.6)
    assert np.array_equal(t.arrived, ref.random(n) < 0.2)
    # numpy may hold the last word's unread 32-bit half; the 64-bit draws
    # after it are the same
    assert rng.bit_generator.state["state"] == ref.bit_generator.state["state"]
    assert np.array_equal(rng.random(5), ref.random(5))


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
