"""Command-line surface: run one session, sweep a parameter grid, or analyze
a transcript somebody handed you.

File formats. The transcript CSV starts with `# key: value` metadata lines
(tool version, seed, config digest, expected announcement rate), then a fixed
column header; one row per slot, in slot order. Both are written and read a
block at a time with numpy, and the reader rejects a file that disagrees
with itself (see read_public_view). The report JSON carries the same metadata
plus the full serialized config and the session report. `analyze` reads only
the public columns of a transcript (slot, bob_basis, reported_outcome,
double_click), so its verdicts never peek at ground truth.

Exit codes: 0 success, 1 usage/parse/validation problems, 2 structurally
infeasible scenarios (covert target rate out of reach, no viable blinding
working point).
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from dataclasses import asdict
from typing import Any, Iterable, Mapping

import numpy as np

from . import __version__
from .analysis import PublicView, detectability_report
from .config import config_digest, load_config, parse_config, read_json, serialize_config
from .errors import ConfigError, InfeasibleRateError, NoViablePlanError, ValidationError
from .protocol import SessionConfig, SessionReport, Transcript, run_session

TRANSCRIPT_COLUMNS = (
    "slot", "alice_basis", "alice_bit", "bob_basis", "bob_bit",
    "arrived", "reported_outcome", "double_click",
)
PUBLIC_COLUMNS = ("slot", "bob_basis", "reported_outcome", "double_click")


def _transcript_meta(config: SessionConfig) -> dict[str, Any]:
    return {
        "format": "ddiqkd-transcript-2",
        "version": __version__,
        "seed": config.seed,
        "config_sha256": config_digest(config),
        "mode": config.mode.kind,
        "n_slots": config.n_slots,
        "expected_report_rate": config.expected_report_rate(),
        "alpha": config.alpha,
    }


# Rows per block when writing, bytes per block when reading. Both bound the
# transient arrays a block needs (a few hundred kilobytes), not the file size.
_WRITE_BLOCK_ROWS = 8192
_READ_BLOCK_BYTES = 1 << 16

_HEADER = (",".join(TRANSCRIPT_COLUMNS) + "\n").encode("ascii")
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")
_COMMA_DIGIT = _COMMA - _ZERO
# fills the writer's unused slot-digit positions and empty outcome cells;
# never part of a row, so it is dropped before the block is written
_GAP = 0
# the reader parses slot numbers into int64, which holds any 18-digit one
_MAX_SLOT_DIGITS = 18
# a slot's digit count is 1 + the number of these it reaches
_POW10 = 10 ** np.arange(1, _MAX_SLOT_DIGITS, dtype=np.int64)


def write_transcript_csv(path: str, transcript: Transcript, meta: Mapping[str, Any]) -> None:
    """Write `# key: value` metadata, the column header, then one row per
    slot: `slot,alice_basis,alice_bit,bob_basis,bob_bit,arrived,` followed
    by the announced outcome (empty when none) and `,double_click`.

    Rows are built a block at a time as a byte matrix: the slot's decimal
    digits right-aligned in the first columns, then seven comma-led
    single-digit cells and the newline; _GAP bytes pad short slot numbers
    and stand for empty outcomes."""
    fields = (
        transcript.alice_basis, transcript.alice_bit, transcript.bob_basis,
        transcript.bob_bit, transcript.arrived, transcript.reported,
        transcript.double_click,
    )
    with open(path, "wb") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n".encode("utf-8"))
        fh.write(_HEADER)
        for start in range(0, transcript.n_slots, _WRITE_BLOCK_ROWS):
            stop = min(start + _WRITE_BLOCK_ROWS, transcript.n_slots)
            slots = np.arange(start, stop)
            width = len(str(stop - 1))
            block = np.empty((stop - start, width + 15), dtype=np.uint8)
            for col in range(width):
                place = 10 ** (width - 1 - col)
                digit = (slots // place) % 10 + _ZERO
                block[:, col] = np.where(slots >= place, digit, _GAP) if col < width - 1 else digit
            block[:, width:-1:2] = _COMMA
            for col, values in enumerate(fields):
                block[:, width + 1 + 2 * col] = values[start:stop] + _ZERO
            block[transcript.reported[start:stop] < 0, width + 11] = _GAP
            block[:, -1] = _NEWLINE
            flat = block.ravel()
            fh.write(flat[flat != _GAP].tobytes())


class _Rows:
    """One block of data rows, cut after a newline: row k of the block is
    file row first + k and spans bytes [start[k], end[k]), then a newline.
    Every byte is kept as its digit value, byte - ord('0')."""

    def __init__(self, buf: np.ndarray, first: int) -> None:
        self.digits = buf.astype(np.int16) - _ZERO
        self.end = np.flatnonzero(buf == _NEWLINE)
        self.start = np.concatenate(([0], self.end[:-1] + 1))
        self.index = np.arange(first, first + len(self.end))

    def digits_at(self, offsets: np.ndarray) -> np.ndarray:
        """Bytes at per-row positions as digit values (a comma is -4). The
        positions are clipped into the block: a row too short for its shape
        reads junk there, but the first rejection rule catches it."""
        return self.digits.take(offsets, mode="clip")


def _parse_rows(rows: _Rows, n_slots: int | None) -> tuple[list[tuple[str, np.ndarray]], tuple]:
    """Check every byte of a block's rows against the two row shapes,
    `<slot>,b,b,b,b,b,o,d` and `<slot>,b,b,b,b,b,,d`: the third byte from
    the end tells them apart, and whatever precedes the fixed-width tail is
    the slot, which must be the row's index written without leading zeros.
    Returns the rejection rules in order, each with the mask of rows it
    rejects, and the public fields: (single-click slots, their outcomes,
    their bob_basis, double-click slots)."""
    outcome = rows.digits_at(rows.end - 3)
    has_outcome = outcome != _COMMA_DIGIT
    width = rows.end - rows.start - 13 - has_outcome
    cells = rows.digits_at((rows.start + width)[:, None] + np.arange(11))
    commas = np.column_stack((cells[:, 0::2], rows.digits_at(rows.end - 2)))
    bits = np.column_stack((cells[:, 1::2], rows.digits_at(rows.end - 1)))
    fits = (width >= 1) & (width <= _MAX_SLOT_DIGITS)
    slot = np.zeros(len(rows.index), dtype=np.int64)
    slot_is_decimal = np.ones(len(rows.index), dtype=bool)
    for col in range(int(width[fits].max(initial=0))):
        used = col < width
        digit = rows.digits_at(rows.start + col)
        slot_is_decimal &= ~used | ((digit >= 0) & (digit <= 9))
        slot = np.where(used, slot * 10 + digit, slot)
    index_width = 1 + np.searchsorted(_POW10, rows.index, side="right")
    double_click = bits[:, -1] == 1
    checks = [
        (f"row must be <slot>,b,b,b,b,b,o,d or <slot>,b,b,b,b,b,,d with 1..{_MAX_SLOT_DIGITS} slot digits", ~fits),
        ("expected a comma", np.any(commas != _COMMA_DIGIT, axis=1)),
        ("slot is not a decimal number", ~slot_is_decimal),
        # an equal value of another width has leading zeros
        ("slot differs from its row index", (slot != rows.index) | (width != index_width)),
        ("bases, bits, arrived and double_click must be 0 or 1", np.any((bits < 0) | (bits > 1), axis=1)),
        ("reported_outcome must be empty or 0..3", has_outcome & ((outcome < 0) | (outcome > 3))),
        ("double click with a reported outcome", double_click & has_outcome),
    ]
    if n_slots is not None:
        checks.append((f"slot beyond metadata n_slots {n_slots}", rows.index >= n_slots))
    public = (
        rows.index[has_outcome], outcome[has_outcome], bits[has_outcome, 2],
        rows.index[double_click],
    )
    return checks, public


def _meta_value(path: str, meta: Mapping[str, str], key: str, kind: type, default: Any = None) -> Any:
    """A metadata value converted by kind, or default when the key is absent."""
    if key not in meta:
        return default
    try:
        return kind(meta[key])
    except ValueError:
        raise ValidationError(
            f"{path}: metadata {key}: {meta[key]!r} is not a valid {kind.__name__}"
        ) from None


def read_public_view(path: str) -> tuple[PublicView, dict[str, str]]:
    """Parse a transcript back into the announcement record, reading only
    the public columns. The file must agree with itself: the header is
    TRANSCRIPT_COLUMNS, row i is slot i, every row has one of the two shapes
    write_transcript_csv produces, and the row count equals the metadata
    n_slots. Anything else raises ValidationError naming the line."""
    meta: dict[str, str] = {}
    parts: list[tuple] = []
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ValidationError(f"cannot read transcript {path}: {exc}") from exc
    with fh:
        line = fh.readline()
        lineno = 1
        while line.startswith(b"#"):
            try:
                body = line[1:].decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: metadata is not UTF-8: {exc}") from None
            if ":" in body:
                key, _, value = body.partition(":")
                meta[key.strip()] = value.strip()
            line = fh.readline()
            lineno += 1
        if line != _HEADER:
            raise ValidationError(
                f"{path}:{lineno}: header must be {','.join(TRANSCRIPT_COLUMNS)}, got {line[:200]!r}"
            )
        n_slots = _meta_value(path, meta, "n_slots", int)
        if n_slots is not None and n_slots < 1:
            raise ValidationError(f"{path}: metadata n_slots: {n_slots} is not >= 1")
        first_line = lineno + 1
        n_rows = 0
        tail = b""
        while True:
            chunk = fh.read(_READ_BLOCK_BYTES)
            data = tail + chunk
            cut = data.rfind(b"\n") + 1
            if not chunk and data and not cut:
                raise ValidationError(f"{path}:{first_line + n_rows}: last row does not end in a newline")
            if cut == 0 and len(data) > _READ_BLOCK_BYTES:
                raise ValidationError(f"{path}:{first_line + n_rows}: row longer than {_READ_BLOCK_BYTES} bytes")
            if cut:
                rows = _Rows(np.frombuffer(data, dtype=np.uint8, count=cut), n_rows)
                checks, public = _parse_rows(rows, n_slots)
                bad = np.logical_or.reduce([mask for _, mask in checks])
                if bad.any():
                    k = int(np.argmax(bad))
                    reason = next(name for name, mask in checks if mask[k])
                    row = data[rows.start[k]:rows.end[k]]
                    raise ValidationError(
                        f"{path}:{first_line + n_rows + k}: malformed row: {reason}: {row[:80]!r}"
                    )
                parts.append(public)
                n_rows += len(rows.index)
            tail = data[cut:]
            if not chunk:
                break
    if n_slots is not None and n_rows != n_slots:
        raise ValidationError(
            f"{path}:{first_line + n_rows}: transcript ends after {n_rows} rows; metadata n_slots is {n_slots}"
        )
    slots, outcomes, bases, doubles = (
        np.concatenate([p[i] for p in parts]).astype(np.int64) if parts else np.zeros(0, dtype=np.int64)
        for i in range(4)
    )
    view = PublicView(
        n_slots=n_slots if n_slots is not None else max(n_rows, 1),
        reported_slots=slots,
        outcomes=outcomes,
        bob_basis_at_reported=bases,
        double_click_slots=doubles,
    )
    return view, meta


def report_payload(config: SessionConfig, report: SessionReport) -> dict[str, Any]:
    return {
        "version": __version__,
        "seed": config.seed,
        "config_sha256": config_digest(config),
        "config": serialize_config(config),
        "report": {
            "mode": report.mode,
            "sent": report.sent,
            "arrived": report.arrived,
            "reported": report.reported,
            "sifted": report.sifted,
            "qber": report.qber,
            "key_rate": report.key_rate,
            "reported_rate": report.reported_rate,
            "double_click_rate": report.double_click_rate,
            "eve_leak_fraction": report.eve_leak_fraction,
            "expected_report_rate": report.expected_report_rate,
            "detectability": report.detectability.as_dict(),
            "plan": None if report.plan is None else asdict(report.plan),
        },
    }


def write_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True))
        fh.write("\n")


def _cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config, seed=args.seed)
    transcript, report = run_session(config)
    os.makedirs(args.out, exist_ok=True)
    transcript_path = os.path.join(args.out, "transcript.csv")
    report_path = os.path.join(args.out, "report.json")
    write_transcript_csv(transcript_path, transcript, _transcript_meta(config))
    write_json(report_path, report_payload(config, report))
    print(f"wrote {transcript_path}")
    print(f"wrote {report_path}")
    qber = "n/a" if report.qber is None else f"{report.qber:.6f}"
    print(
        f"mode={report.mode} reported={report.reported} sifted={report.sifted} "
        f"qber={qber} key_rate={report.key_rate:.6g} leak={report.eve_leak_fraction:.4f}"
    )
    return 0


def _set_path(doc: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        child = node.get(part)
        if not isinstance(child, dict):
            child = {}
            node[part] = child
        node = child
    node[parts[-1]] = value


def _load_grid(path: str) -> dict[str, list]:
    doc = read_json(path, "grid")
    params = doc.get("parameters") if isinstance(doc, dict) else None
    if not isinstance(params, dict) or not params:
        raise ConfigError(f"grid {path} must carry a non-empty 'parameters' object")
    for key, values in params.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid parameter {key!r} must be a non-empty list")
    return params


_SWEEP_METRICS = (
    "mode", "sent", "arrived", "reported", "sifted", "qber", "key_rate",
    "reported_rate", "double_click_rate", "eve_leak_fraction", "expected_report_rate",
)
_SWEEP_MONITORS = ("gap_parity_p_value", "rate_z_score", "outcome_p_value")
_SWEEP_VERDICTS = ("gap_parity", "rate", "outcome_uniformity", "double_click")


def _session_seed(master_seed: int, point: int, session: int) -> int:
    return int(np.random.SeedSequence([master_seed, point, session]).generate_state(1, np.uint64)[0])


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    base_doc = read_json(args.config, "config")
    if not isinstance(base_doc, dict):
        raise ConfigError("config root must be an object")
    params = _load_grid(args.grid)
    names = list(params)
    header = (
        ["point", "session", "seed"] + names + ["feasible"] + list(_SWEEP_METRICS)
        + list(_SWEEP_MONITORS) + [f"verdict_{v}" for v in _SWEEP_VERDICTS]
    )
    rows = []
    for point_idx, values in enumerate(itertools.product(*params.values())):
        doc = json.loads(json.dumps(base_doc))
        for name, value in zip(names, values):
            _set_path(doc, name, value)
        for session_idx in range(args.seeds):
            seed = _session_seed(args.master_seed, point_idx, session_idx)
            row: list[Any] = [point_idx, session_idx, seed]
            row += list(values)
            config = parse_config(doc, seed=seed)
            try:
                _, report = run_session(config)
            except (InfeasibleRateError, NoViablePlanError):
                row += [0] + [""] * (len(header) - len(row) - 1)
                rows.append(row)
                continue
            det = report.detectability
            row += [1]
            row += [getattr(report, name) for name in _SWEEP_METRICS]
            row += [getattr(det, name) for name in _SWEEP_MONITORS]
            row += [det.verdicts[v] for v in _SWEEP_VERDICTS]
            rows.append([("" if v is None else v) for v in row])
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    view, meta = read_public_view(args.transcript)
    if args.expected_rate is not None:
        expected = args.expected_rate
    elif "expected_report_rate" in meta:
        expected = _meta_value(args.transcript, meta, "expected_report_rate", float)
    else:
        raise ConfigError(
            "transcript metadata lacks expected_report_rate; pass --expected-rate"
        )
    if args.alpha is not None:
        alpha = args.alpha
    else:
        alpha = _meta_value(args.transcript, meta, "alpha", float, default=0.01)
    det = detectability_report(view, expected, alpha)
    payload = {
        "version": __version__,
        "transcript": os.path.basename(args.transcript),
        "n_slots": view.n_slots,
        "announced_events": view.announced_events,
        "expected_report_rate": expected,
        "detectability": det.as_dict(),
    }
    if view.announced_events == 0:
        payload["note"] = "no announced events; per-announcement monitors are absent"
    if args.out:
        write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddiqkd",
        description="Simulate DDI-QKD sessions, measurement-unit covert channels, "
        "and detector-blinding attacks; analyze announcement records.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one session and write transcript + report")
    p_run.add_argument("--config", required=True, help="session config JSON")
    p_run.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid, one CSV row per session")
    p_sweep.add_argument("--config", required=True, help="base config JSON")
    p_sweep.add_argument("--grid", required=True, help="grid JSON: {\"parameters\": {path: [values]}}")
    p_sweep.add_argument("--seeds", type=int, default=1, help="sessions per grid point")
    p_sweep.add_argument("--master-seed", type=int, default=0, help="root of per-session seeds")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_an = sub.add_parser("analyze", help="run the monitors over a transcript's public columns")
    p_an.add_argument("--transcript", required=True, help="transcript CSV path")
    p_an.add_argument("--out", default=None, help="output JSON path (default: stdout)")
    p_an.add_argument("--alpha", type=float, default=None, help="significance level override")
    p_an.add_argument(
        "--expected-rate", type=float, default=None,
        help="expected announcements per slot (overrides transcript metadata)",
    )
    p_an.set_defaults(func=_cmd_analyze)
    return parser


def main(argv: Iterable[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(None if argv is None else list(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; this tool reserves 2 for infeasibility
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (InfeasibleRateError, NoViablePlanError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
