"""Command-line surface: run one session, sweep a parameter grid, or analyze
a transcript somebody handed you.

File formats. The transcript CSV (format tag TRANSCRIPT_FORMAT) starts with
`# key: value` metadata lines (format tag, tool version, seed, config digest,
mode, n_slots, expected announcement rate, alpha), then a fixed column header,
then one row per slot in slot order. Every row has the same width: the slot
zero-padded to the digit count of n_slots - 1, seven one-byte cells each after
a comma (`-` for no outcome), and a newline. The writer and the reader work in
blocks of 10,000 rows that share one cached frame of slot digits, commas and
newlines. The reader rejects a file that disagrees with itself, naming the
line (see read_public_view). The report JSON carries the same metadata plus
the full serialized config and the session report. `analyze` checks every
byte of a transcript, but its monitors read only the slot order, the
announced outcomes and the double clicks, so its verdicts never peek at
ground truth.

Exit codes: 0 success, 1 usage/parse/validation problems, unwritable
output paths and an output path that names an input, 2 structurally
infeasible scenarios (covert target rate out of reach, no viable blinding
working point).
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import os
import pickle
import signal
import sys
from dataclasses import asdict, fields, replace
from typing import Any, Iterable, Mapping, NoReturn, TextIO

import numpy as np

from . import __version__
from .analysis import MonitorStats, detectability_report
from .config import SessionConfig, config_digest, load_config, parse_config, read_json, serialize_config
from .errors import ConfigError, InfeasibleRateError, NoViablePlanError, ValidationError
from .protocol import SessionReport, Transcript, run_session

TRANSCRIPT_COLUMNS = (
    "slot", "alice_basis", "alice_bit", "bob_basis", "bob_bit",
    "arrived", "reported_outcome", "double_click",
)
TRANSCRIPT_FORMAT = "ddiqkd-transcript-3"


def _transcript_meta(config: SessionConfig, digest: str) -> dict[str, Any]:
    return {
        "format": TRANSCRIPT_FORMAT,
        "version": __version__,
        "seed": config.seed,
        "config_sha256": digest,
        "mode": config.mode.kind,
        "n_slots": config.n_slots,
        "expected_report_rate": config.expected_report_rate(),
        "alpha": config.alpha,
    }


# Rows per block, for both the writer and the reader. A power of ten, so
# the low _LOW_DIGITS slot digits of every block are one fixed table and the
# higher digits are the block index, constant within the block. It also
# bounds the transient arrays a block needs (a few hundred kilobytes).
_BLOCK_ROWS = 10_000
_LOW_DIGITS = len(str(_BLOCK_ROWS)) - 1

_HEADER = (",".join(TRANSCRIPT_COLUMNS) + "\n").encode("ascii")
_COMMA, _NEWLINE, _ZERO = ord(","), ord("\n"), ord("0")
# an outcome byte minus '0' in uint8: '0'..'3' read 0..3 and '-' wraps to this
_NO_OUTCOME = (ord("-") - _ZERO) % 256


@functools.lru_cache(maxsize=None)
def _frame(digits: int) -> np.ndarray:
    """The bytes every block of rows with this slot width shares: row j's
    slot ends in the last _LOW_DIGITS digits of j, then the commas, a '0'
    in each of the six 0/1 cells, and the newline. The higher slot digits
    and the outcome cell are left 0. One frame is kept per slot width; the
    reader accepts at most 19 digits."""
    frame = np.zeros((_BLOCK_ROWS, digits + 15), dtype=np.uint8)
    low = min(digits, _LOW_DIGITS)
    # int16 holds 0..9999 and keeps the temporaries a quarter of int64's size
    places = 10 ** np.arange(low - 1, -1, -1, dtype=np.int16)
    frame[:, digits - low:digits] = np.arange(_BLOCK_ROWS, dtype=np.int16)[:, None] // places % 10 + _ZERO
    frame[:, digits:-1:2] = _COMMA
    frame[:, digits + 1:-1:2] = _ZERO
    frame[:, digits + 11] = 0
    frame[:, -1] = _NEWLINE
    frame.setflags(write=False)
    return frame


@functools.lru_cache(maxsize=None)
def _mask(digits: int) -> np.ndarray:
    """The AND mask of a block of rows with this slot width: 0xFE on the six
    0/1 cells, which turns '1' into the frame's '0' and keeps every other
    byte distinct from it; 0x00 on the outcome cell, which the reader checks
    by arithmetic; 0xFF elsewhere. So (rows & mask) ^ frame is zero outside
    the high slot digits iff every byte there is right, and holds the high
    digits as written. The row is tiled out to a whole block, since ANDing
    with a broadcast row makes numpy loop once per row. One mask is kept
    per slot width."""
    row = np.full(digits + 15, 0xFF, dtype=np.uint8)
    row[digits + 1:-1:2] = 0xFE
    row[digits + 11] = 0
    mask = np.tile(row, (_BLOCK_ROWS, 1))
    mask.setflags(write=False)
    return mask


def write_transcript_csv(path: str, transcript: Transcript, meta: Mapping[str, Any]) -> None:
    """Write `# key: value` metadata, the column header, then one row per
    slot: `slot,alice_basis,alice_bit,bob_basis,bob_bit,arrived,` followed
    by the announced outcome (`-` when none) and `,double_click`. The slot
    is zero-padded to the digit count of n_slots - 1, so every row has the
    same width; each block is a copy of its frame, with the block index as
    its high slot digits and the seven cells stored in it."""
    n = transcript.n_slots
    digits = len(str(n - 1))
    frame, high = _frame(digits), digits - _LOW_DIGITS
    bits = {
        digits + 1: transcript.alice_basis, digits + 3: transcript.alice_bit,
        digits + 5: transcript.bob_basis, digits + 7: transcript.bob_bit,
        digits + 9: transcript.arrived, digits + 13: transcript.double_click,
    }
    with open(path, "wb") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n".encode("utf-8"))
        fh.write(_HEADER)
        for block, start in enumerate(range(0, n, _BLOCK_ROWS)):
            stop = min(start + _BLOCK_ROWS, n)
            rows = frame[:stop - start].copy()
            if high > 0:
                rows[:, :high] = np.frombuffer(b"%0*d" % (high, block), dtype=np.uint8)
            for col, values in bits.items():
                rows[:, col] |= values[start:stop].view(np.uint8)
            # -1 is 255 in uint8, and 255 + '0' - 2 wraps to '-'
            reported = transcript.reported[start:stop].view(np.uint8)
            rows[:, digits + 11] = reported + _ZERO - 2 * (reported >> 7)
            fh.write(rows)


def _row_fault(row: bytes, slot: bytes) -> str | None:
    """The first rule a data row (newline stripped) breaks when its slot
    should read `slot`, or None."""
    digits = len(slot)
    cells = row[digits + 1::2]
    if len(row) != digits + 14:
        return f"row must be <slot>,b,b,b,b,b,o,d with the slot padded to {digits} digits"
    if row[digits::2] != b"," * 7:
        return "expected a comma"
    if not row[:digits].isdigit():
        return "slot is not a decimal number"
    if row[:digits] != slot:
        return "slot differs from its row index"
    if any(c not in b"01" for c in cells[:5] + cells[6:]):
        return "bases, bits, arrived and double_click must be 0 or 1"
    if cells[5] not in b"0123-":
        return "reported_outcome must be - or 0..3"
    if cells[6:] == b"1" and cells[5:6] != b"-":
        return "double click with a reported outcome"
    return None


def _reject_block(
    path: str, data: bytes, size: int, digits: int, line: int, start: int, n_slots: int
) -> NoReturn:
    """Name the first line of a block of `size` bytes that failed its check,
    and the rule it breaks. Each row before it is whole and has the fixed
    width, so a shifted or truncated row is named at its own line."""
    *rows, tail = data.split(b"\n")
    for k, row in enumerate([*rows, tail] if tail else rows):
        if k == len(rows) and len(data) < size:
            reason = "last row does not end in a newline"
        else:  # a tail left in a whole block is a row too long for it
            reason = _row_fault(row, b"%0*d" % (digits, start + k))
        if reason:
            raise ValidationError(f"{path}:{line + k}: malformed row: {reason}: {row[:80]!r}")
    k = len(rows)
    raise ValidationError(
        f"{path}:{line + k}: transcript ends after {start + k} rows; metadata n_slots is {n_slots}"
    )


def _meta_value(path: str, meta: Mapping[str, str], key: str, kind: type) -> Any:
    """A metadata value converted by kind; an absent key is refused."""
    if key not in meta:
        raise ValidationError(f"{path}: metadata lacks {key}")
    try:
        return kind(meta[key])
    except ValueError:
        raise ValidationError(
            f"{path}: metadata {key}: {meta[key]!r} is not a valid {kind.__name__}"
        ) from None


def read_public_view(path: str) -> tuple[MonitorStats, dict[str, str]]:
    """The monitors' count record of a transcript's public columns, merged
    block by block, and its metadata. The file must agree with itself: no
    metadata key repeats, the format tag is TRANSCRIPT_FORMAT, the header
    is TRANSCRIPT_COLUMNS, and there are exactly n_slots rows, row i being
    what write_transcript_csv writes for slot i. Each block of rows is
    checked at once: its bytes ANDed with _mask and XORed with the frame
    and its high slot digits must all be zero, and each outcome byte minus
    '0' must be below 4 or be '-'. Only a block that fails is walked row by
    row; anything else raises ValidationError naming the line."""
    meta: dict[str, str] = {}
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
                key, _, value = (part.strip() for part in body.partition(":"))
                if key in meta:
                    raise ValidationError(f"{path}:{lineno}: metadata {key} is repeated")
                meta[key] = value
            line = fh.readline()
            lineno += 1
        if meta.get("format") != TRANSCRIPT_FORMAT:
            found = f"format {meta['format']!r}" if "format" in meta else "no format tag"
            raise ValidationError(f"{path}: transcript has {found}; this reader needs {TRANSCRIPT_FORMAT}")
        if line != _HEADER:
            raise ValidationError(
                f"{path}:{lineno}: header must be {','.join(TRANSCRIPT_COLUMNS)}, got {line[:200]!r}"
            )
        n_slots = _meta_value(path, meta, "n_slots", int)
        if not 1 <= n_slots < 2**63:
            raise ValidationError(f"{path}: metadata n_slots: {n_slots} is not >= 1 and < 2**63")
        digits = len(str(n_slots - 1))
        width = digits + 15
        frame, mask = _frame(digits), _mask(digits)
        first_line = lineno + 1
        for block, start in enumerate(range(0, n_slots, _BLOCK_ROWS)):
            count = min(_BLOCK_ROWS, n_slots - start)
            data = fh.read(count * width)
            valid = len(data) == count * width
            if valid:
                rows = np.frombuffer(data, dtype=np.uint8).reshape(count, width)
                diff = rows & mask[:count]
                diff ^= frame[:count]
                if digits > _LOW_DIGITS:
                    # one column at a time: a broadcast row would loop per row
                    for col, digit in enumerate(str(block).zfill(digits - _LOW_DIGITS)):
                        diff[:, col] ^= ord(digit)
                # strided columns are copied first, as numpy does arithmetic
                # far faster on contiguous bytes; on uint8, max() is a much
                # faster any()
                outcome = rows[:, digits + 11].copy()
                outcome -= _ZERO
                announced = outcome < 4
                double = rows[:, -2].copy() == _ZERO + 1
                valid = (
                    not diff.max() and (announced | (outcome == _NO_OUTCOME)).all()
                    and not (announced & double).any()
                )
            if not valid:
                _reject_block(path, data, count * width, digits, first_line + start, start, n_slots)
            counted = MonitorStats.of(outcome, double)
            stats = counted if start == 0 else stats.merge(counted)
        if fh.read(1):
            raise ValidationError(
                f"{path}:{first_line + n_slots}: malformed row: slot beyond metadata n_slots {n_slots}"
            )
    return stats, meta


def report_payload(config: SessionConfig, report: SessionReport, digest: str) -> dict[str, Any]:
    """The report JSON; digest is config_digest(config), which the caller
    has already computed for the transcript metadata."""
    return {
        "version": __version__,
        "seed": config.seed,
        "config_sha256": digest,
        "config": serialize_config(config),
        "report": asdict(report),
    }


def _dump_json(fh: TextIO, payload: Mapping[str, Any]) -> None:
    fh.write(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    fh.write("\n")


def write_json(path: str, payload: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _dump_json(fh, payload)


def _refuse_input_as_out(out: str, *inputs: tuple[str, str]) -> None:
    """Refuse an --out that is the same file as one of the (flag, path)
    inputs, which writing it would destroy."""
    for flag, path in inputs:
        try:
            same = os.path.samefile(out, path)
        except OSError:  # either file is missing, so they are not one file
            continue
        if same:
            raise ConfigError(f"--out {out} is the same file as {flag} {path}")


def _cmd_run(args: argparse.Namespace) -> int:
    transcript_path = os.path.join(args.out, "transcript.csv")
    report_path = os.path.join(args.out, "report.json")
    for path in (transcript_path, report_path):
        _refuse_input_as_out(path, ("--config", args.config))
    config = load_config(args.config, seed=args.seed)
    # the output directory is made before the session runs, so a path that
    # cannot take it wastes no simulation
    os.makedirs(args.out, exist_ok=True)
    transcript, report = run_session(config)
    digest = config_digest(config)
    write_transcript_csv(transcript_path, transcript, _transcript_meta(config, digest))
    write_json(report_path, report_payload(config, report, digest))
    print(f"wrote {transcript_path}")
    print(f"wrote {report_path}")
    qber = "n/a" if report.qber is None else f"{report.qber:.6f}"
    print(
        f"mode={report.mode} reported={report.reported} sifted={report.sifted} "
        f"qber={qber} key_rate={report.key_rate:.6g} leak={report.eve_leak_fraction:.4f}"
    )
    return 0


def _set_path(doc: dict, dotted: str, value: Any) -> None:
    """Set the field at a dotted grid path, creating a missing object on the
    way; a component that holds anything but an object is refused, since
    replacing it would drop what the base config put there."""
    parts = dotted.split(".")
    node = doc
    for i, part in enumerate(parts[:-1]):
        if part not in node:
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(
                f"grid parameter {dotted!r}: config field {'.'.join(parts[:i + 1])!r} "
                f"is not an object, so it has no field {parts[i + 1]!r}"
            )
    node[parts[-1]] = value


# the report's scalar fields, in their declared order
_SWEEP_METRICS = tuple(f.name for f in fields(SessionReport) if f.name not in ("detectability", "plan"))
_SWEEP_MONITORS = ("gap_parity_p_value", "rate_z_score", "outcome_p_value")
_SWEEP_VERDICTS = ("gap_parity", "rate", "outcome_uniformity", "double_click")
# the header columns after the swept parameters; a parameter may not take
# one of their names, nor "point" or "session"
_SWEEP_RESULTS = (
    ("feasible",) + _SWEEP_METRICS + _SWEEP_MONITORS
    + tuple(f"verdict_{v}" for v in _SWEEP_VERDICTS)
)


def _load_grid(path: str) -> dict[str, list]:
    doc = read_json(path, "grid")
    params = doc.get("parameters") if isinstance(doc, dict) else None
    if not isinstance(params, dict) or not params:
        raise ConfigError(f"grid {path} must carry a non-empty 'parameters' object")
    for key, values in params.items():
        if key == "seed":
            raise ConfigError(
                "grid parameter 'seed' cannot be swept: each session's seed is "
                "spawned from --master-seed"
            )
        if key in ("point", "session") or key in _SWEEP_RESULTS:
            raise ConfigError(
                f"grid parameter {key!r} is the name of a sweep result column; "
                "sweep a config field by its dotted path, such as 'mode.kind'"
            )
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid parameter {key!r} must be a non-empty list")
    return params


def _session_seed(master_seed: int, point: int, session: int) -> int:
    return int(np.random.SeedSequence([master_seed, point, session]).generate_state(1, np.uint64)[0])


def _sweep_row(row: list, config: SessionConfig) -> list:
    """A session's CSV row: `row` (point, session, seed and the swept
    values) followed by its results; an infeasible session reads feasible 0
    with blank results."""
    try:
        _, report = run_session(config)
    except (InfeasibleRateError, NoViablePlanError):
        return row + [0] + [""] * (len(_SWEEP_RESULTS) - 1)
    det = report.detectability
    row = row + [1]
    row += [getattr(report, name) for name in _SWEEP_METRICS]
    row += [getattr(det, name) for name in _SWEEP_MONITORS]
    row += [det.verdicts[v] for v in _SWEEP_VERDICTS]
    return ["" if v is None else v for v in row]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _sweep_jobs(n_sessions: int) -> int:
    """How many shares a sweep of n_sessions runs at once: the usable CPUs,
    capped at n_sessions. 1 where processes cannot be forked, and on Python
    3.12 and later, which deprecates forking a process that runs threads
    (numpy's BLAS pool is one)."""
    if not hasattr(os, "fork") or sys.version_info >= (3, 12):
        return 1
    return min(_usable_cpus(), n_sessions)


def _fork_share(share: list) -> tuple[int, Any]:
    """Fork a worker that runs share's (row, config) sessions and pickles
    their rows, or the exception one raised, into a pipe; return its pid and
    the pipe's read end. The worker exits nonzero if it cannot send."""
    # fork, not spawn: a spawned worker would import numpy and this package
    # again, which costs more than a short sweep. The other threads at fork
    # time are numpy's BLAS pool, and sessions make no BLAS call, so no
    # worker waits on a lock those threads held.
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        try:
            result: Any = [_sweep_row(*session) for session in share]
        except Exception as exc:  # raised again in the caller
            result = exc
        with os.fdopen(write_fd, "wb") as fh:
            pickle.dump(result, fh)
        status = 0
    finally:
        # never return into the caller's code, nor flush its buffers
        os._exit(status)


def _sweep_rows(sessions: list, jobs: int) -> list[list]:
    """Every session's row, in session order. Share i is sessions[i::jobs]:
    share 0 runs in this process while forked workers run the others, and
    every worker has exited and been reaped when this returns or raises."""
    shares = [sessions[i::jobs] for i in range(jobs)]
    workers: list[tuple[int, Any]] = []
    statuses: list[int] = []
    sent: list[bytes] = []
    try:
        for share in shares[1:]:
            workers.append(_fork_share(share))
        results = [[_sweep_row(*session) for session in shares[0]]]
        sent = [pipe.read() for _, pipe in workers]
    finally:
        # a worker still running after an error or interrupt is stopped
        for pid, pipe in workers:
            pipe.close()
            if len(sent) < len(workers):
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    if any(statuses) or not all(sent):
        raise ValidationError("sweep worker exited unexpectedly")
    results += [pickle.loads(data) for data in sent]
    rows: list = [None] * len(sessions)
    for i, result in enumerate(results):
        if isinstance(result, BaseException):
            raise result
        rows[i::jobs] = result
    return rows


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run every session of the grid and write one CSV row per session, in
    session order. The sessions are split into one share per usable CPU
    (_sweep_jobs); one runs in this process and each other in a worker
    forked for this sweep. The rows are put back in session order, so the
    CSV is the same bytes for any number of shares."""
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if args.master_seed < 0:
        raise ConfigError(f"--master-seed must be >= 0, got {args.master_seed}")
    _refuse_input_as_out(args.out, ("--config", args.config), ("--grid", args.grid))
    base_doc = read_json(args.config, "config")
    if not isinstance(base_doc, dict):
        raise ConfigError("config root must be an object")
    params = _load_grid(args.grid)
    names = list(params)
    header = ["point", "session", "seed"] + names + list(_SWEEP_RESULTS)
    # every config is parsed before --out is opened, and --out is opened
    # before any session runs, so neither a bad grid nor a bad path wastes
    # a simulation; a point is parsed once, and its sessions differ only in
    # their seed
    sessions = []
    for point_idx, values in enumerate(itertools.product(*params.values())):
        doc = json.loads(json.dumps(base_doc))
        for name, value in zip(names, values):
            _set_path(doc, name, value)
        point = parse_config(doc, seed=0)
        for session_idx in range(args.seeds):
            seed = _session_seed(args.master_seed, point_idx, session_idx)
            sessions.append(([point_idx, session_idx, seed, *values], replace(point, seed=seed)))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(_sweep_rows(sessions, _sweep_jobs(len(sessions))))
    print(f"wrote {args.out} ({len(sessions)} rows)")
    return 0


def _analysis(args: argparse.Namespace) -> dict[str, Any]:
    stats, meta = read_public_view(args.transcript)
    expected, alpha = (
        _meta_value(args.transcript, meta, key, float) if flag is None else flag
        for key, flag in (("expected_report_rate", args.expected_rate), ("alpha", args.alpha))
    )
    det = detectability_report(stats, expected, alpha)
    payload = {
        "version": __version__,
        "transcript": os.path.basename(args.transcript),
        "n_slots": stats.n_slots,
        "announced_events": stats.announced_events,
        "expected_report_rate": expected,
        "detectability": asdict(det),
    }
    if stats.announced_events == 0:
        payload["note"] = "no announced events; per-announcement monitors are absent"
    return payload


def _cmd_analyze(args: argparse.Namespace) -> int:
    if not args.out:
        _dump_json(sys.stdout, _analysis(args))
        return 0
    _refuse_input_as_out(args.out, ("--transcript", args.transcript))
    # --out is opened before the transcript is read, as sweep opens its CSV
    # before the first session, so a path that cannot be written wastes no
    # analysis; it is opened without truncation and an existing file is
    # emptied only once the analysis succeeds, so a refused transcript
    # leaves it as it was
    with open(args.out, "a", encoding="utf-8", newline="") as fh:
        payload = _analysis(args)
        if fh.tell():
            fh.truncate(0)
        _dump_json(fh, payload)
    print(f"wrote {args.out}")
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, and each call returns a fresh namespace."""
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
    except (ConfigError, ValidationError, OSError) as exc:
        # an OSError reaching here is an output path that cannot be created
        # or written; unreadable inputs raise ConfigError or ValidationError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
