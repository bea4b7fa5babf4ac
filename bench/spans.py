"""Span recording for the traced run, installed from outside the package.

The traced run rebinds a fixed set of public functions on `ddiqkd.cli` and
`ddiqkd.protocol` with wrappers that record one span per call: name, start,
end, parent span and a few counts taken from the call's arguments and
result. Spans stay in memory and are written out when the run ends. The
layer of a span is the first component of its name, which is the module
whose function it wraps (`config`, `protocol`, `covert`, `blinding`,
`analysis`, `cli`), or `bench` for the benchmark's own per-operation root.

Per-slot functions in `states`, `devices` and `channel` are not wrapped:
they run once per slot inside `protocol`'s loops, so a wrapper there would
cost more than the call it measures. Their time shows up in the self time
of `protocol.run_session`.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

LAYERS = ("config", "protocol", "covert", "blinding", "analysis", "cli")

Counter = Callable[[dict, tuple, Any], None]


class Tracer:
    """In-memory span store. Single-threaded: spans nest through a stack."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        rec: dict[str, Any] = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        except Exception as exc:
            rec["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Counter | None = None) -> Callable:
        """Wrap fn in a span; count(attrs, args, result) runs after the span
        closes, so its cost lands in the parent's self time, not in fn's."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if count is not None:
                count(rec["attrs"], args, result)
            return result

        return wrapper


def _count_session(attrs: dict, args: tuple, result: Any) -> None:
    transcript, report = result
    attrs["slots"] = transcript.n_slots
    attrs["arrived"] = report.arrived
    attrs["announced"] = report.reported
    attrs["double_clicks"] = int(np.count_nonzero(transcript.double_click))
    attrs["sifted"] = report.sifted
    if report.mode == "covert":
        attrs["candidates"] = int(np.count_nonzero(transcript.detected))


def _count_grid(attrs: dict, args: tuple, result: Any) -> None:
    _, wavelength_grid, power_grid = args
    attrs["grid_points"] = len(wavelength_grid) * len(power_grid)


def _count_write(attrs: dict, args: tuple, result: Any) -> None:
    path, transcript, _ = args
    attrs["slots"] = transcript.n_slots
    attrs["bytes"] = os.path.getsize(path)


def _count_read(attrs: dict, args: tuple, result: Any) -> None:
    view, _ = result
    attrs["slots"] = view.n_slots
    attrs["bytes"] = os.path.getsize(args[0])


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Rebind the traced functions for the duration of the block."""
    from ddiqkd import cli, protocol

    targets = (
        (cli, "parse_config", "config.parse_config", None),
        (cli, "load_config", "config.load_config", None),
        (cli, "run_session", "protocol.run_session", _count_session),
        (protocol, "build_report", "protocol.build_report", None),
        (protocol, "detectability_report", "analysis.detectability_report", None),
        (cli, "detectability_report", "analysis.detectability_report", None),
        (protocol, "eve_decode", "covert.eve_decode", None),
        (protocol, "blinding_session_stats", "blinding.session_stats", None),
        (protocol, "optimize_pulse", "blinding.optimize_pulse", _count_grid),
        (cli, "write_transcript_csv", "cli.write_transcript_csv", _count_write),
        (cli, "read_public_view", "cli.read_public_view", _count_read),
        (cli, "write_json", "cli.write_json", None),
    )
    saved = []
    try:
        for module, attr, name, count in targets:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[dict[str, Any]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict[str, Any]], ops_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced operations, whose
    summed wall time is ops_wall_s."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    dur_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[tuple[str, str], float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    infeasible = 0
    for s, t in zip(spans, own):
        name = s["name"]
        self_s[name] = self_s.get(name, 0.0) + t
        dur_s[name] = dur_s.get(name, 0.0) + (s["end"] - s["start"])
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += t
        for key, value in s["attrs"].items():
            if key != "error":
                attrs[name, key] = attrs.get((name, key), 0) + value
        if name == "protocol.run_session" and s["attrs"].get("error") in (
            "InfeasibleRateError", "NoViablePlanError",
        ):
            infeasible += 1

    def a(name: str, key: str) -> float:
        return attrs.get((name, key), 0)

    session = "protocol.run_session"
    slots = a(session, "slots")
    write, read = "cli.write_transcript_csv", "cli.read_public_view"
    parse_calls = calls.get("config.parse_config", 0) + calls.get("config.load_config", 0)
    parse_s = dur_s.get("config.parse_config", 0.0) + dur_s.get("config.load_config", 0.0)
    covert_announced = sum(
        s["attrs"].get("announced", 0) for s in spans
        if s["name"] == session and "candidates" in s["attrs"]
    )
    metrics = {
        "protocol.kernel_us_per_slot": 1e6 * _ratio(self_s.get(session, 0.0), slots),
        "protocol.report_us_per_slot": 1e6 * _ratio(self_s.get("protocol.build_report", 0.0), slots),
        "protocol.kernel_share": _ratio(self_s.get(session, 0.0), ops_wall_s),
        "protocol.session_share": _ratio(dur_s.get(session, 0.0), ops_wall_s),
        "protocol.sessions": calls.get(session, 0) - infeasible,
        "protocol.slots": slots,
        "protocol.arrived": a(session, "arrived"),
        "protocol.announced": a(session, "announced"),
        "protocol.double_clicks": a(session, "double_clicks"),
        "protocol.sifted": a(session, "sifted"),
        "protocol.infeasible": infeasible,
        "protocol.sift_ratio": _ratio(a(session, "sifted"), a(session, "announced")),
        "covert.eve_decode_s": _ratio(dur_s.get("covert.eve_decode", 0.0), calls.get("covert.eve_decode", 0)),
        "covert.candidates": a(session, "candidates"),
        "covert.announce_ratio": _ratio(covert_announced, a(session, "candidates")),
        "blinding.optimize_s": _ratio(
            dur_s.get("blinding.optimize_pulse", 0.0), calls.get("blinding.optimize_pulse", 0)
        ),
        "blinding.grid_points": a("blinding.optimize_pulse", "grid_points"),
        "blinding.session_stats_s": _ratio(
            dur_s.get("blinding.session_stats", 0.0), calls.get("blinding.session_stats", 0)
        ),
        "analysis.monitor_s_per_call": _ratio(
            dur_s.get("analysis.detectability_report", 0.0),
            calls.get("analysis.detectability_report", 0),
        ),
        "config.parse_s_per_call": _ratio(parse_s, parse_calls),
        "cli.transcript_write_us_per_slot": 1e6 * _ratio(dur_s.get(write, 0.0), a(write, "slots")),
        "cli.transcript_read_us_per_slot": 1e6 * _ratio(dur_s.get(read, 0.0), a(read, "slots")),
        "cli.transcript_bytes_per_slot": _ratio(a(write, "bytes"), a(write, "slots")),
        "cli.report_write_s": _ratio(dur_s.get("cli.write_json", 0.0), calls.get("cli.write_json", 0)),
        "cli.sweep_self_s": _ratio(self_s.get("cli.main.sweep", 0.0), calls.get("cli.main.sweep", 0)),
        "cli.transcript_io_share": _ratio(dur_s.get(write, 0.0) + dur_s.get(read, 0.0), ops_wall_s),
    }
    for layer, t in layer_self.items():
        metrics[f"{layer}.self_share"] = _ratio(t, ops_wall_s)
    return metrics
