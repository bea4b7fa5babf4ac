"""build_report against a per-slot reference of the report's definitions,
on drawn transcripts of every mode, and its working memory on the
benchmark's dense sessions."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd.analysis import MonitorStats, detectability_report
from ddiqkd.config import (
    BlindingMode,
    CovertAttackMode,
    HonestMode,
    InterceptResendMode,
    SessionConfig,
    parse_config,
)
from ddiqkd.covert import eve_decode, key_bits
from ddiqkd.protocol import SessionReport, Transcript, build_report, key_rate, run_session
from ddiqkd.states import XOR_TABLE

ROOT = Path(__file__).resolve().parent.parent
MODES = (HonestMode(), InterceptResendMode(), BlindingMode(pulse_power=2.0, wavelength_nm=1550.0),
         CovertAttackMode(key_seed=7))
COLUMNS = ("alice_basis", "alice_bit", "bob_basis", "bob_bit", "reported", "eve_basis", "eve_bit")

bit = st.integers(0, 1)
# the interceptor's (basis, bit), or (-1, -1) where she holds none
eve = st.one_of(st.just((-1, -1)), st.tuples(bit, bit))
OUTCOMES = {"none": st.just(-1), "all": st.integers(0, 3), "some": st.integers(-1, 3)}


@st.composite
def transcripts(draw):
    """A transcript of 1 to 70 slots: no slot, every slot or some slots
    announced; double clicks only where nothing was announced; the
    interceptor's record absent at any slot, announced or not. A sifted
    slot where she holds no bit, as after a dark click on a photon that
    never arrived, is a miss: her -1 XOR a bit can be -2, whose low bit
    alone would read as a hit."""
    n = draw(st.integers(1, 70), label="n")
    outcome = OUTCOMES[draw(st.sampled_from(sorted(OUTCOMES)), label="announced")]
    rows = draw(st.lists(st.tuples(bit, bit, bit, bit, outcome, eve, st.booleans(), st.booleans()),
                         min_size=n, max_size=n))
    ab, abit, bb, bbit, reported, eves, double, arrived = zip(*rows)
    eb, ebit = zip(*eves)
    column = lambda values: np.array(values, dtype=np.int8)  # noqa: E731
    reported = column(reported)
    return Transcript(
        n_slots=n, alice_basis=column(ab), alice_bit=column(abit), bob_basis=column(bb),
        bob_bit=column(bbit), arrived=np.array(arrived, dtype=bool), detected=reported >= 0,
        reported=reported, double_click=np.array(double, dtype=bool) & (reported < 0),
        eve_basis=column(eb), eve_bit=column(ebit),
    )


def reference_report(config, t):
    """SessionReport spelled out slot by slot over Python ints."""
    col = {name: [int(v) for v in getattr(t, name)] for name in COLUMNS}
    o, ab, bb = col["reported"], col["alice_basis"], col["bob_basis"]
    n = t.n_slots
    singles = [i for i in range(n) if o[i] >= 0]
    doubles = int(sum(t.double_click.tolist()))
    sifted = [i for i in singles if ab[i] == bb[i]]
    errors = sum(int(XOR_TABLE[bb[i], o[i]]) != col["alice_bit"][i] ^ col["bob_bit"][i] for i in sifted)
    qber = errors / len(sifted) if sifted else None
    mode = config.mode
    if isinstance(mode, CovertAttackMode):
        m = len(singles)
        decoded = eve_decode(singles, key_bits(mode.key_seed, m - 1)) if m else []
        leak = sum(int(d) == col["bob_bit"][s] for d, s in zip(decoded, singles)) / m if m else 0.0
    elif isinstance(mode, (InterceptResendMode, BlindingMode)) and sifted:
        eb, ebit, bbit, abit = col["eve_basis"], col["eve_bit"], col["bob_bit"], col["alice_bit"]
        if isinstance(mode, InterceptResendMode):
            hits = sum(ebit[i] == abit[i] for i in sifted)
        else:
            # XOR_TABLE[-1] is a row too, but her -1 bit never equals a bit
            hits = sum(ebit[i] ^ int(XOR_TABLE[eb[i], o[i]]) == bbit[i] for i in sifted)
        leak = hits / len(sifted)
    else:
        leak = 0.0
    gaps = [b - a for a, b in zip(singles, singles[1:])]
    stats = MonitorStats(
        n_slots=n, singles=len(singles), doubles=doubles,
        first=singles[0] if singles else -1, last=singles[-1] if singles else -1,
        odd_gaps=sum(g % 2 for g in gaps),
        outcome_counts=tuple(sum(o[i] == k for i in singles) for k in range(4)),
    )
    expected = config.expected_report_rate()
    reported = len(singles) + doubles
    return SessionReport(
        mode=mode.kind, sent=n, arrived=int(sum(t.arrived.tolist())), reported=reported,
        sifted=len(sifted), qber=qber,
        key_rate=0.0 if qber is None else key_rate(qber, len(sifted) / n),
        reported_rate=reported / n, double_click_rate=doubles / n, eve_leak_fraction=leak,
        expected_report_rate=expected,
        detectability=detectability_report(stats, expected, config.alpha),
    )


@settings(max_examples=400, deadline=None)
@given(t=transcripts(), mode=st.sampled_from(MODES))
def test_report_equals_per_slot_reference(t, mode):
    config = SessionConfig(n_slots=t.n_slots, mode=mode)
    before = {name: getattr(t, name).copy() for name in COLUMNS + ("double_click", "arrived")}
    report = build_report(config, t)
    assert report == reference_report(config, t)
    for name, values in before.items():
        assert np.array_equal(getattr(t, name), values), name  # read only


def _report_peak(path):
    config = parse_config(json.loads(path.read_text(encoding="utf-8")))
    t, report = run_session(config)
    assert build_report(config, t) == report  # warm, and the same report
    tracemalloc.start()
    try:
        build_report(config, t)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_working_memory_stays_under_the_gathering_report():
    # the traced peaks of the report that gathered the sifted slots
    # (Python 3.11, numpy 2.4); the dense passes reuse the announced mask
    assert _report_peak(ROOT / "configs" / "intercept_resend.json") <= 956_588
    assert _report_peak(ROOT / "configs" / "honest.json") <= 301_048

