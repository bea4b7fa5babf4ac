"""Command-line surface: run one session, sweep a parameter grid, or analyze
a transcript somebody handed you.

File formats. The transcript CSV starts with `# key: value` metadata lines
(tool version, seed, config digest, expected announcement rate), then a fixed
column header; one row per slot. The report JSON carries the same metadata
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
from .config import config_digest, load_config, parse_config, serialize_config
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


def write_transcript_csv(path: str, transcript: Transcript, meta: Mapping[str, Any]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key, value in meta.items():
            fh.write(f"# {key}: {value}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRANSCRIPT_COLUMNS)
        reported = transcript.reported
        for slot in range(transcript.n_slots):
            out = int(reported[slot])
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


def read_public_view(path: str) -> tuple[PublicView, dict[str, str]]:
    """Parse a transcript back into the announcement record, touching only
    the public columns. Raises ValidationError naming the offending line."""
    meta: dict[str, str] = {}
    slots: list[int] = []
    outcomes: list[int] = []
    bases: list[int] = []
    doubles: list[int] = []
    n_rows = 0
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read transcript {path}: {exc}") from exc
    with fh:
        meta_lines = 0
        while True:
            pos = fh.tell()
            line = fh.readline()
            if line.startswith("#"):
                meta_lines += 1
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    meta[key.strip()] = value.strip()
            else:
                fh.seek(pos)
                break
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(PUBLIC_COLUMNS) <= set(reader.fieldnames):
            raise ValidationError(
                f"{path}: missing transcript columns; need at least {list(PUBLIC_COLUMNS)}"
            )
        for row in reader:
            lineno = reader.line_num + meta_lines
            try:
                slot = int(row["slot"])
                out = row["reported_outcome"]
                if row["double_click"] == "1":
                    doubles.append(slot)
                elif out != "":
                    slots.append(slot)
                    outcomes.append(int(out))
                    bases.append(int(row["bob_basis"]))
                n_rows += 1
            except (TypeError, ValueError, KeyError) as exc:
                raise ValidationError(f"{path}:{lineno}: malformed row: {exc}") from exc
    n_slots = int(meta.get("n_slots", n_rows if n_rows else 1))
    view = PublicView(
        n_slots=n_slots,
        reported_slots=np.asarray(slots, dtype=np.int64),
        outcomes=np.asarray(outcomes, dtype=np.int64),
        bob_basis_at_reported=np.asarray(bases, dtype=np.int64),
        double_click_slots=np.asarray(doubles, dtype=np.int64),
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read grid {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"grid {path} is not valid JSON: {exc}") from exc
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
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            base_doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
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
        expected = float(meta["expected_report_rate"])
    else:
        raise ConfigError(
            "transcript metadata lacks expected_report_rate; pass --expected-rate"
        )
    alpha = args.alpha if args.alpha is not None else float(meta.get("alpha", 0.01))
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
