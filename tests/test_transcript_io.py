"""Transcript CSV writer and reader.

The block writer must produce the same bytes as the csv.writer row writer
it replaced, which is kept here as the reference; the reader must invert it
and reject any file that does not agree with itself, naming the line.
"""

import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddiqkd.cli import (
    _WRITE_BLOCK_ROWS,
    TRANSCRIPT_COLUMNS,
    main,
    read_public_view,
    write_transcript_csv,
)
from ddiqkd.errors import ValidationError
from ddiqkd.protocol import Transcript

BLOCK = _WRITE_BLOCK_ROWS
# digit-width edges, then write-block edges
SIZES = [1, 9, 10, 11, 99, 100, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1]


def reference_write(path, transcript, meta):
    """The csv.writer row writer that write_transcript_csv must match."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRANSCRIPT_COLUMNS)
        for slot in range(transcript.n_slots):
            out = int(transcript.reported[slot])
            writer.writerow((
                slot,
                int(transcript.alice_basis[slot]),
                int(transcript.alice_bit[slot]),
                int(transcript.bob_basis[slot]),
                int(transcript.bob_bit[slot]),
                int(transcript.arrived[slot]),
                out if out >= 0 else "",
                int(transcript.double_click[slot]),
            ))


def meta_for(n):
    return {
        "format": "ddiqkd-transcript-2",
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


@settings(max_examples=40, deadline=None)
@given(transcript=transcripts)
def test_writer_matches_reference_and_reader_inverts_it(transcript):
    meta = meta_for(transcript.n_slots)
    with tempfile.TemporaryDirectory() as tmp:
        ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
        write_transcript_csv(str(ours), transcript, meta)
        reference_write(str(ref), transcript, meta)
        assert ours.read_bytes() == ref.read_bytes()
        view, read_meta = read_public_view(str(ours))
    expected = transcript.public_view()
    assert view.n_slots == expected.n_slots
    for name in ("reported_slots", "outcomes", "bob_basis_at_reported", "double_click_slots"):
        assert np.array_equal(getattr(view, name), getattr(expected, name)), name
    assert read_meta == {key: str(value) for key, value in meta.items()}


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


def huge_slot(rows):
    rows[500] = set_cell(rows[500], "slot", b"999999999")


def leading_zero(rows):
    rows[500] = set_cell(rows[500], "slot", b"0500")


@pytest.mark.parametrize("change", [delete_row, duplicate_row, swap_rows, huge_slot, leading_zero])
def test_reader_rejects_slot_that_is_not_its_row_index(transcript_file, change):
    edit_rows(transcript_file, change)
    line = FIRST_ROW_LINE + 500 + (change is duplicate_row)
    assert_rejected(transcript_file, line, "slot differs from its row index")


def test_reader_rejects_row_beyond_metadata_n_slots(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.append(set_cell(rows[-1], "slot", str(N).encode())))
    assert_rejected(transcript_file, FIRST_ROW_LINE + N, f"slot beyond metadata n_slots {N}")


def test_reader_rejects_row_count_short_of_metadata(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__delitem__(slice(998, None)))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 998, f"ends after 998 rows; metadata n_slots is {N}")


def test_reader_rejects_double_click_with_outcome(transcript_file):
    announced = []

    def mark(rows):
        announced.append(next(i for i, r in enumerate(rows) if r.split(b",")[6]))
        rows[announced[0]] = rows[announced[0]][:-1] + b"1"

    edit_rows(transcript_file, mark)
    assert_rejected(transcript_file, FIRST_ROW_LINE + announced[0], "double click with a reported outcome")


@pytest.mark.parametrize("column,value,reason", [
    ("double_click", b"2", "must be 0 or 1"),
    ("reported_outcome", b"4", "reported_outcome must be empty or 0..3"),
    ("bob_basis", b"2", "must be 0 or 1"),
    ("arrived", b"10", "expected a comma"),
])
def test_reader_rejects_out_of_range_cell(transcript_file, column, value, reason):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(7, set_cell(rows[7], column, value)))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 7, reason)


@pytest.mark.parametrize("header", [
    b"slot,alice_basis,alice_bit,bob_basis,bob_bit,arrived,outcome,double_click",
    b"slot,bob_basis,reported_outcome,double_click",
    b"0,0,0,0,0,1,,0",
])
def test_reader_rejects_other_header(transcript_file, header):
    lines = transcript_file.read_bytes().split(b"\n")
    lines[FIRST_ROW_LINE - 2] = header
    transcript_file.write_bytes(b"\n".join(lines))
    assert_rejected(transcript_file, FIRST_ROW_LINE - 1, "header must be " + ",".join(TRANSCRIPT_COLUMNS))


def test_reader_rejects_last_row_without_newline(transcript_file):
    transcript_file.write_bytes(transcript_file.read_bytes()[:-1])
    assert_rejected(transcript_file, FIRST_ROW_LINE + N - 1, "last row does not end in a newline")


def test_reader_rejects_blank_and_crlf_rows(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(3, rows[3] + b"\r"))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 3, "malformed row")
    edit_rows(transcript_file, lambda rows: rows.__setitem__(3, b""))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 3, "row must be <slot>,b,b,b,b,b,o,d or <slot>,b,b,b,b,b,,d")


def test_reader_rejects_overlong_row_without_reading_it_whole(transcript_file):
    edit_rows(transcript_file, lambda rows: rows.__setitem__(3, b"1" * 200_000))
    assert_rejected(transcript_file, FIRST_ROW_LINE + 3, "row longer than 65536 bytes")


def replace_meta(key, value):
    return lambda data: re.sub(rf"# {key}: [^\n]*".encode(), f"# {key}: ".encode() + value, data)


@pytest.mark.parametrize("corrupt,message", [
    (replace_meta("n_slots", b"lots"), "metadata n_slots: 'lots' is not a valid int"),
    (replace_meta("n_slots", b"0"), "metadata n_slots: 0 is not >= 1"),
    (replace_meta("expected_report_rate", b"x0.02"), "metadata expected_report_rate: 'x0.02' is not a valid float"),
    (replace_meta("alpha", b"x"), "metadata alpha: 'x' is not a valid float"),
    (replace_meta("mode", b"hon\xffest"), ":2: metadata is not UTF-8"),
    (lambda data: data.replace(b"\n5,", b"\n\xff,", 1), f":{FIRST_ROW_LINE + 5}: malformed row"),
])
def test_analyze_reports_bad_metadata_and_bytes_as_errors(transcript_file, capsys, corrupt, message):
    transcript_file.write_bytes(corrupt(transcript_file.read_bytes()))
    assert main(["analyze", "--transcript", str(transcript_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {transcript_file}")
    assert message in err
