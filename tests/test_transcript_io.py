"""Transcript CSV writer and reader (format ddiqkd-transcript-3).

The writer must produce the documented fixed-width rows, which a plain
per-row formatter is kept here to spell out; the reader must invert the
writer and reject any file that does not agree with itself, naming the line.
"""

import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd import cli
from ddiqkd.analysis import MonitorStats
from ddiqkd.cli import (
    _BLOCK_ROWS,
    TRANSCRIPT_COLUMNS,
    TRANSCRIPT_FORMAT,
    main,
    read_public_view,
    write_transcript_csv,
)
from ddiqkd.errors import ValidationError
from ddiqkd.protocol import Transcript

BLOCK = _BLOCK_ROWS
# digit-width edges, the edges of the 8,192-row blocks of the format-2
# writer, then the edges of the shared block frame
SIZES = [1, 9, 10, 11, 99, 100, 8191, 8192, 8193, 16385, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def reference_rows(transcript):
    """The data rows write_transcript_csv must write, one formatted row per slot."""
    digits = len(str(transcript.n_slots - 1))
    for slot in range(transcript.n_slots):
        out = int(transcript.reported[slot])
        cells = (
            transcript.alice_basis[slot], transcript.alice_bit[slot], transcript.bob_basis[slot],
            transcript.bob_bit[slot], transcript.arrived[slot],
        )
        yield (
            f"{slot:0{digits}d}," + ",".join(str(int(c)) for c in cells)
            + f",{out if out >= 0 else '-'},{int(transcript.double_click[slot])}\n"
        ).encode("ascii")


def meta_for(n):
    return {
        "format": TRANSCRIPT_FORMAT,
        "mode": "honest",
        "n_slots": n,
        "expected_report_rate": 0.02,
        "alpha": 0.01,
    }


FIRST_ROW_LINE = len(meta_for(1)) + 2  # metadata lines, the header, then row 0


def random_transcript(n, seed, report_p, double_p):
    """Outcomes -1..3; double clicks only where nothing was announced."""
    rng = np.random.default_rng(seed)
    bit = lambda: rng.integers(0, 2, size=n, dtype=np.int8)  # noqa: E731
    reported = np.where(rng.random(n) < report_p, rng.integers(0, 4, size=n), -1).astype(np.int8)
    return Transcript(
        n_slots=n,
        alice_basis=bit(),
        alice_bit=bit(),
        bob_basis=bit(),
        bob_bit=bit(),
        arrived=rng.random(n) < 0.5,
        detected=np.zeros(n, dtype=bool),
        reported=reported,
        double_click=(reported < 0) & (rng.random(n) < double_p),
        eve_basis=np.full(n, -1, dtype=np.int8),
        eve_bit=np.full(n, -1, dtype=np.int8),
    )


transcripts = st.builds(
    random_transcript,
    n=st.sampled_from(SIZES),
    seed=st.integers(0, 2**32 - 1),
    report_p=st.sampled_from([0.0, 0.02, 0.5, 1.0]),
    double_p=st.sampled_from([0.0, 0.01, 0.5]),
)


def assert_round_trip(path, transcript, meta):
    stats, read_meta = read_public_view(str(path))
    assert stats == MonitorStats.of(transcript.reported, transcript.reported >= 0, transcript.double_click)
    assert read_meta == {key: str(value) for key, value in meta.items()}


@settings(max_examples=40, deadline=None)
@given(transcript=transcripts)
def test_reader_inverts_writer_and_rows_have_the_documented_shape(transcript):
    meta = meta_for(transcript.n_slots)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_transcript_csv(str(path), transcript, meta)
        head = "".join(f"# {key}: {value}\n" for key, value in meta.items()).encode()
        head += (",".join(TRANSCRIPT_COLUMNS) + "\n").encode()
        assert path.read_bytes() == head + b"".join(reference_rows(transcript))
        assert_round_trip(path, transcript, meta)


def test_round_trip_with_six_slot_digits(tmp_path):
    """Thirteen blocks whose high slot digits run from 00 to 12."""
    n = 12 * BLOCK + 3457
    transcript = random_transcript(n, 11, 0.1, 0.05)
    path = tmp_path / "t.csv"
    write_transcript_csv(str(path), transcript, meta_for(n))
    lines = path.read_bytes().split(b"\n")
    assert lines[FIRST_ROW_LINE - 1].startswith(b"000000,") and lines[-2].startswith(b"123456,")
    assert_round_trip(path, transcript, meta_for(n))


@pytest.mark.parametrize("cleared, announced", [
    # one announcement on each side of each seam, an odd and an even gap
    ([(BLOCK - 10, BLOCK + 10), (2 * BLOCK - 10, 2 * BLOCK + 10)],
     [BLOCK - 5, BLOCK + 2, 2 * BLOCK - 4, 2 * BLOCK]),
    # the middle block announces nothing: one gap spans both seams
    ([(BLOCK - 10, 2 * BLOCK + 10)], [BLOCK - 5, 2 * BLOCK + 2]),
], ids=["straddling", "empty_middle_block"])
def test_read_record_counts_the_gaps_across_block_seams(tmp_path, cleared, announced):
    n = 23_456
    transcript = random_transcript(n, 19, 0.02, 0.01)
    for lo, hi in cleared:
        transcript.reported[lo:hi] = -1
        transcript.double_click[lo:hi] = False
    transcript.reported[announced] = [1, 2, 3, 0][:len(announced)]
    path = tmp_path / "t.csv"
    write_transcript_csv(str(path), transcript, meta_for(n))
    stats, _ = read_public_view(str(path))
    assert stats == MonitorStats.of(transcript.reported, transcript.reported >= 0, transcript.double_click)
    slots = np.flatnonzero(transcript.reported >= 0)
    assert stats.odd_gaps == np.count_nonzero(np.diff(slots) & 1)
    assert (stats.first, stats.last, stats.singles) == (slots[0], slots[-1], len(slots))


@pytest.fixture(scope="module")
def two_high_digit_bytes(tmp_path_factory):
    """A 200,001-slot transcript: six slot digits, of which the block index
    sets the first two."""
    n = 20 * BLOCK + 1
    path = tmp_path_factory.mktemp("wide") / "t.csv"
    write_transcript_csv(str(path), random_transcript(n, 13, 0.1, 0.05), meta_for(n))
    return path.read_bytes()


@pytest.mark.parametrize("row,pos", [
    (10 * BLOCK, 0), (10 * BLOCK, 1), (123_456, 0), (123_456, 1), (19 * BLOCK + 9_999, 1), (20 * BLOCK, 0),
])
def test_reader_names_the_line_of_a_mutated_high_slot_digit(tmp_path, two_high_digit_bytes, row, pos):
    data = bytearray(two_high_digit_bytes)
    offset = data.index(b"\n000000,") + 1 + row * 21 + pos
    assert data[offset:offset + 6 - pos] == f"{row:06d}".encode()[pos:]
    data[offset] = ord("0") + (data[offset] - ord("0") + 1) % 10
    path = tmp_path / "t.csv"
    path.write_bytes(bytes(data))
    assert_rejected(path, FIRST_ROW_LINE + row, "slot differs from its row index")


def test_reader_walks_rows_only_of_a_failing_block(tmp_path, monkeypatch):
    n = 2 * BLOCK + 1
    path = tmp_path / "t.csv"
    write_transcript_csv(str(path), random_transcript(n, 17, 0.1, 0.05), meta_for(n))
    checked = []

    def counted(row, slot, original=cli._row_fault):
        checked.append(slot)
        return original(row, slot)

    monkeypatch.setattr(cli, "_row_fault", counted)
    read_public_view(str(path))
    assert checked == []
    data = bytearray(path.read_bytes())
    data[-(BLOCK // 2) * 20] ^= 0x01  # the first slot digit of row n - BLOCK // 2, in the middle block
    path.write_bytes(bytes(data))
    with pytest.raises(ValidationError, match="slot differs from its row index"):
        read_public_view(str(path))
    assert checked == [b"%05d" % slot for slot in range(BLOCK, n - BLOCK // 2 + 1)]


@settings(max_examples=30, deadline=None)
@given(transcript=transcripts, data=st.data())
def test_reader_names_the_line_of_a_mutated_digit(transcript, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_transcript_csv(str(path), transcript, meta_for(transcript.n_slots))
        lines = path.read_bytes().split(b"\n")
        row = data.draw(st.integers(0, transcript.n_slots - 1), label="row")
        idx = FIRST_ROW_LINE - 1 + row
        digits = [i for i, c in enumerate(lines[idx]) if chr(c).isdigit()]
        pos = data.draw(st.sampled_from(digits), label="position")
        lines[idx] = lines[idx][:pos] + b"x" + lines[idx][pos + 1:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValidationError, match=re.escape(f"{path}:{idx + 1}:")):
            read_public_view(str(path))


N = 1000


@pytest.fixture
def transcript_file(tmp_path):
    path = tmp_path / "transcript.csv"
    write_transcript_csv(str(path), random_transcript(N, 5, 0.1, 0.05), meta_for(N))
    return path


def edit_rows(path, change):
    """Apply change to the list of data rows (bytes, newline stripped)."""
    lines = path.read_bytes().split(b"\n")[:-1]
    head, rows = lines[:FIRST_ROW_LINE - 1], lines[FIRST_ROW_LINE - 1:]
    change(rows)
    path.write_bytes(b"\n".join(head + rows) + b"\n")
    return rows


def set_cell(row, column, value):
    cells = row.split(b",")
    cells[TRANSCRIPT_COLUMNS.index(column)] = value
    return b",".join(cells)


def assert_rejected(path, line, reason):
    pattern = re.escape(f"{path}:{line}:") + ".*" + re.escape(reason)
    with pytest.raises(ValidationError, match=pattern):
        read_public_view(str(path))


def delete_row(rows):
    del rows[500]


def duplicate_row(rows):
    rows.insert(501, rows[500])


def swap_rows(rows):
    rows[500], rows[501] = rows[501], rows[500]


def other_slot(rows):
    rows[500] = set_cell(rows[500], "slot", b"999")


@pytest.mark.parametrize("change", [delete_row, duplicate_row, swap_rows, other_slot])
def test_reader_rejects_slot_that_is_not_its_row_index(transcript_file, change):
    edit_rows(transcript_file, change)
    line = FIRST_ROW_LINE + 500 + (change is duplicate_row)
    assert_rejected(transcript_file, line, "slot differs from its row index")


WIDTH_RULE = "row must be <slot>,b,b,b,b,b,o,d with the slot padded to 3 digits"


@pytest.mark.parametrize("slot", [b"999999999", b"0500", b"500000", b"50", b""])
def test_reader_rejects_slot_of_another_width(transcript_file, slot):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(500, set_cell(rows[500], "slot", slot)))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 500, WIDTH_RULE)


def test_reader_rejects_slot_that_is_not_decimal(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(500, set_cell(rows[500], "slot", b"5 0")))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 500, "slot is not a decimal number")


def test_reader_rejects_row_beyond_metadata_n_slots(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.append(set_cell(rows[-1], "slot", str(N).encode())))
    assert_rejected(transcript_file, FIRST_ROW_LINE + N, f"slot beyond metadata n_slots {N}")


def test_reader_rejects_extra_rows_beyond_metadata_n_slots(tmp_path):
    path = tmp_path / "t.csv"
    write_transcript_csv(str(path), random_transcript(N, 5, 0.1, 0.05), meta_for(N - 2))
    assert_rejected(path, FIRST_ROW_LINE + N - 2, f"slot beyond metadata n_slots {N - 2}")


def test_reader_rejects_row_count_short_of_metadata(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__delitem__(slice(998, None)))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 998, f"ends after 998 rows; metadata n_slots is {N}")


def test_reader_rejects_double_click_with_outcome(transcript_file):
    announced = []

    def mark(rows):
        announced.append(next(i for i, r in enumerate(rows) if r.split(b",")[6] != b"-"))
        rows[announced[0]] = rows[announced[0]][:-1] + b"1"

    edit_rows(transcript_file, mark)
    assert_rejected(transcript_file, FIRST_ROW_LINE + announced[0], "double click with a reported outcome")


@pytest.mark.parametrize("column,value,reason", [
    ("double_click", b"2", "must be 0 or 1"),
    ("reported_outcome", b"4", "reported_outcome must be - or 0..3"),
    ("reported_outcome", b"", WIDTH_RULE),
    ("bob_basis", b"2", "must be 0 or 1"),
    ("arrived", b"10", WIDTH_RULE),
])
def test_reader_rejects_out_of_range_cell(transcript_file, column, value, reason):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(7, set_cell(rows[7], column, value)))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 7, reason)


def test_reader_rejects_missing_comma(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(7, rows[7][:5] + b";" + rows[7][6:]))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 7, "expected a comma")


@pytest.mark.parametrize("header", [
    b"slot,alice_basis,alice_bit,bob_basis,bob_bit,arrived,outcome,double_click",
    b"slot,bob_basis,reported_outcome,double_click",
    b"000,0,0,0,0,1,-,0",
])
def test_reader_rejects_other_header(transcript_file, header):
    lines = transcript_file.read_bytes().split(b"\n")
    lines[FIRST_ROW_LINE - 2] = header
    transcript_file.write_bytes(b"\n".join(lines))
    assert_rejected(transcript_file, FIRST_ROW_LINE - 1, "header must be " + ",".join(TRANSCRIPT_COLUMNS))


def test_reader_rejects_last_row_without_newline(transcript_file):
    transcript_file.write_bytes(transcript_file.read_bytes()[:-1])
    assert_rejected(transcript_file, FIRST_ROW_LINE + N - 1, "last row does not end in a newline")


def test_reader_rejects_partial_last_row(transcript_file):
    transcript_file.write_bytes(transcript_file.read_bytes()[:-7])
    assert_rejected(transcript_file, FIRST_ROW_LINE + N - 1, "last row does not end in a newline")


def test_reader_rejects_blank_and_crlf_rows(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(3, rows[3] + b"\r"))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 3, "malformed row")
    edit_rows(transcript_file, lambda rows: rows.__setitem__(3, b""))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 3, WIDTH_RULE)


def test_reader_rejects_overlong_row_without_reading_it_whole(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(3, b"1" * 200_000))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 3, WIDTH_RULE)


@pytest.mark.parametrize("row,change", [
    (BLOCK - 1, lambda row: row + b"0"),  # runs into the next block
    (BLOCK, lambda row: row[:-2]),  # first row of the second block
    (BLOCK + 4321, lambda row: row[1:]),
])
def test_reader_names_the_line_of_a_shifted_row(tmp_path, row, change):
    n = 2 * BLOCK + 1
    path = tmp_path / "t.csv"
    write_transcript_csv(str(path), random_transcript(n, 3, 0.1, 0.05), meta_for(n))
    edit_rows(path, lambda rows: rows.__setitem__(row, change(rows[row])))
    assert_rejected(path, FIRST_ROW_LINE + row, "row must be <slot>,b,b,b,b,b,o,d with the slot padded to 5 digits")


def test_reader_refuses_other_formats(transcript_file):
    data = transcript_file.read_bytes()
    transcript_file.write_bytes(data.replace(TRANSCRIPT_FORMAT.encode(), b"ddiqkd-transcript-2"))
    with pytest.raises(ValidationError, match="format 'ddiqkd-transcript-2'"):
        read_public_view(str(transcript_file))
    transcript_file.write_bytes(re.sub(rb"# format: [^\n]*\n", b"", data))
    with pytest.raises(ValidationError, match="no format tag"):
        read_public_view(str(transcript_file))


def test_reader_refuses_a_format_2_file(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(
        b"# format: ddiqkd-transcript-2\n# n_slots: 2\n" + ",".join(TRANSCRIPT_COLUMNS).encode()
        + b"\n0,0,1,0,1,1,2,0\n1,1,0,1,1,0,,0\n"
    )
    assert main(["analyze", "--transcript", str(path)]) == 1
    with pytest.raises(ValidationError, match=re.escape(f"{path}: transcript has format 'ddiqkd-transcript-2'")):
        read_public_view(str(path))


def test_reader_requires_n_slots(transcript_file):
    transcript_file.write_bytes(re.sub(rb"# n_slots: [^\n]*\n", b"", transcript_file.read_bytes()))
    with pytest.raises(ValidationError, match="metadata lacks n_slots"):
        read_public_view(str(transcript_file))


def replace_meta(key, value):
    return lambda data: re.sub(rf"# {key}: [^\n]*".encode(), f"# {key}: ".encode() + value, data)


def drop_meta(key):
    return lambda data: re.sub(rf"# {key}: [^\n]*\n".encode(), b"", data)


def repeat_meta(key, value):
    """Append a second `key` line after the metadata, at FIRST_ROW_LINE - 1."""
    header = ",".join(TRANSCRIPT_COLUMNS).encode()
    return lambda data: data.replace(header, f"# {key}: {value}\n".encode() + header, 1)


@pytest.mark.parametrize("corrupt,message", [
    (replace_meta("n_slots", b"lots"), "metadata n_slots: 'lots' is not a valid int"),
    (replace_meta("n_slots", b"0"), "metadata n_slots: 0 is not >= 1"),
    (replace_meta("expected_report_rate", b"x0.02"), "metadata expected_report_rate: 'x0.02' is not a valid float"),
    (replace_meta("alpha", b"x"), "metadata alpha: 'x' is not a valid float"),
    (drop_meta("expected_report_rate"), "metadata lacks expected_report_rate"),
    (drop_meta("alpha"), "metadata lacks alpha"),
    (replace_meta("mode", b"hon\xffest"), ":2: metadata is not UTF-8"),
    (repeat_meta("format", TRANSCRIPT_FORMAT), f":{FIRST_ROW_LINE - 1}: metadata format is repeated"),
    (repeat_meta("n_slots", N), f":{FIRST_ROW_LINE - 1}: metadata n_slots is repeated"),
    (repeat_meta("alpha", 0.5), f":{FIRST_ROW_LINE - 1}: metadata alpha is repeated"),
    (repeat_meta("expected_report_rate", 0.5), f":{FIRST_ROW_LINE - 1}: metadata expected_report_rate is repeated"),
    (lambda data: data.replace(b"\n005,", b"\n\xff05,", 1), f":{FIRST_ROW_LINE + 5}: malformed row"),
])
def test_analyze_reports_bad_metadata_and_bytes_as_errors(transcript_file, capsys, corrupt, message):
    transcript_file.write_bytes(corrupt(transcript_file.read_bytes()))
    assert main(["analyze", "--transcript", str(transcript_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {transcript_file}")
    assert message in err
