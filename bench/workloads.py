"""The benchmark's three workloads and the correctness check of each operation.

Every workload is a closed loop with one caller in one process: the next
operation starts only after the previous one returned. Each operation's seed
comes from the workload seed through `SeedSequence([seed, op_index])`, so the
same workload seed gives the same inputs. A round is the smallest group of
operations that keeps the workload's mix fixed; the measuring loop runs
whole rounds only.

- `attack_sessions`: `run_session` round-robin over intercept-resend,
  symmetric blinding, tailored blinding and honest-with-dark-counts, each at
  its config's own `n_slots`. Chosen because the per-slot Python loops of
  the attack modes do almost all of the work, with no file I/O.
- `honest_cli_io`: `ddiqkd run` on `configs/honest.json`, then `ddiqkd
  analyze --out` on the transcript just written. Chosen because transcript
  CSV write and read dominate, and the honest kernel is cheap.
- `covert_sweep`: `ddiqkd sweep` over `configs/sweep_transmittance.json`
  with a 10k-slot keyed covert config. Chosen because per-session fixed
  costs (parsing, reporting, monitors) are a visible share there, and there
  is no transcript I/O.

Checks use only public outputs (reports, report.json, the sweep CSV), so
they hold across changes to the order of random draws. No honest monitor
verdict is checked: the double-click and rate monitors reject honest
sessions with dark counts, a known defect that a check would hide.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ddiqkd import cli

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@dataclass
class Op:
    """One timed operation: its kind, wall time, slots handled, why it
    failed (None when it returned normally and passed its check), and its
    label: the input it ran on, which tells apart operations of one kind
    that do different work."""

    kind: str
    wall_s: float
    slots: int
    error: str | None
    label: str


def attempt(tracer, kind: str, slots: int, fn: Callable[[], Any],
            check: Callable[[Any], str | None], label: str | None = None) -> Op:
    """Time fn under a root span named kind (traced run only), then check
    its result outside the timed region. label defaults to kind."""
    label = label or kind
    span = tracer.span(kind) if tracer is not None else nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            result = fn()
    except Exception as exc:  # an operation that raises is a failed operation
        return Op(kind, time.perf_counter() - t0, 0,
                  f"{label}: {type(exc).__name__}: {exc}", label)
    wall = time.perf_counter() - t0
    try:
        error = check(result)
    except Exception as exc:  # output the check cannot read is a failed check
        error = f"unreadable output: {type(exc).__name__}: {exc}"
    return Op(kind, wall, slots, None if error is None else f"{label}: {error}", label)


def _load(path: Path, slots: int | None) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if slots is not None:
        doc["n_slots"] = slots
    return doc


def _cli(argv: list[str]) -> tuple[int, str]:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = cli.main(argv)
    return code, sink.getvalue()


def _band(value: float | None, centre: float, tol: float, what: str) -> str | None:
    if value is None:
        return f"{what} is missing"
    if abs(value - centre) > tol:
        return f"{what} {value:.4f} outside {centre} +/- {tol:.4f}"
    return None


class Workload:
    """A seeded stream of rounds. slots overrides every session's n_slots
    (the smoke test runs at tiny sizes); None keeps the configs' own."""

    name = ""

    def __init__(self, seed: int, tmp: Path, slots: int | None = None) -> None:
        self.seed = seed
        self.tmp = tmp
        self.slots = slots
        self._ops = 0

    def next_seed(self) -> int:
        seq = np.random.SeedSequence([self.seed % 2**64, self._ops])
        self._ops += 1
        return int(seq.generate_state(1, np.uint64)[0])

    def setup_files(self) -> list[Path]:
        """Files a user's set-up loads: the configs (and grid) of this workload."""
        raise NotImplementedError

    def slots_per_op(self) -> dict[str, int]:
        raise NotImplementedError

    def round(self, tracer) -> list[Op]:
        raise NotImplementedError

    def _config_file(self, path: Path) -> Path:
        """The config as the CLI should read it: the file itself, or a copy
        with n_slots overridden."""
        if self.slots is None:
            return path
        copy = self.tmp / path.name
        with open(copy, "w", encoding="utf-8") as fh:
            json.dump(_load(path, self.slots), fh)
        return copy


def _check_session_counts(config, report) -> str | None:
    if report.sent != config.n_slots:
        return f"sent {report.sent} != n_slots {config.n_slots}"
    if not 0 <= report.sifted <= report.reported <= config.n_slots:
        return f"sifted {report.sifted} / reported {report.reported} out of order"
    return None


def _check_intercept(config, report) -> str | None:
    # fixed tolerances of 0.02 and 0.03, widened to 5 sigma only where they
    # would be tighter than that (the smoke test's tiny sessions)
    sigma = math.sqrt(0.25 * 0.75 / max(report.sifted, 1))
    return (_band(report.qber, 0.25, max(0.02, 5 * sigma), "QBER")
            or _band(report.eve_leak_fraction, 0.75, max(0.03, 5 * sigma), "leak"))


def _check_symmetric(config, report) -> str | None:
    verdict = report.detectability.verdicts["double_click"]
    return None if verdict == "reject" else f"double_click monitor {verdict}, expected reject"


def _check_tailored(config, report) -> str | None:
    if report.qber != 0.0:
        return f"QBER {report.qber}, expected 0"
    if report.eve_leak_fraction != 1.0:
        return f"leak {report.eve_leak_fraction}, expected 1"
    if report.double_click_rate != 0.0:
        return f"double-click rate {report.double_click_rate}, expected 0"
    verdict = report.detectability.verdicts["outcome_uniformity"]
    return None if verdict == "reject" else f"outcome_uniformity monitor {verdict}, expected reject"


def honest_dark_qber(config) -> float:
    """Expected honest QBER with dark counts on four identical detectors.

    Photon clicks carry no error; a single dark click (no photon click, one
    detector dark) announces an outcome independent of the bits, so half of
    the sifted ones are errors.
    """
    det = config.detectors[0]
    if any(d.efficiency != det.efficiency or d.dark_count_prob != det.dark_count_prob
           for d in config.detectors):
        raise ValueError("honest_dark check assumes four identical detectors")
    p_click = config.channel.transmittance * det.efficiency_at(config.signal_wavelength_nm)
    p = det.dark_count_prob
    photon = p_click * (1 - p) ** 3
    dark = (1 - p_click) * 4 * p * (1 - p) ** 3
    return 0.5 * dark / (photon + dark)


def _check_honest_dark(config, report) -> str | None:
    expected = honest_dark_qber(config)
    sigma = math.sqrt(expected * (1 - expected) / max(report.sifted, 1))
    return _band(report.qber, expected, 5 * sigma, "QBER")


class AttackSessions(Workload):
    name = "attack_sessions"
    CONFIGS = (
        ("intercept_resend", ROOT / "configs" / "intercept_resend.json", _check_intercept),
        ("blinding_symmetric", ROOT / "configs" / "blinding_symmetric.json", _check_symmetric),
        ("blinding_tailored", ROOT / "configs" / "blinding_tailored.json", _check_tailored),
        ("honest_dark", BENCH / "configs" / "honest_dark.json", _check_honest_dark),
    )

    def __init__(self, seed: int, tmp: Path, slots: int | None = None) -> None:
        super().__init__(seed, tmp, slots)
        self.docs = [(name, _load(path, slots), check) for name, path, check in self.CONFIGS]

    def setup_files(self) -> list[Path]:
        return [path for _, path, _ in self.CONFIGS]

    def slots_per_op(self) -> dict[str, int]:
        return {name: doc["n_slots"] for name, doc, _ in self.docs}

    def round(self, tracer) -> list[Op]:
        ops = []
        for name, doc, check in self.docs:
            seed = self.next_seed()

            def session(doc=doc, seed=seed):
                # looked up on ddiqkd.cli at call time, so the traced run's
                # wrappers apply
                config = cli.parse_config(doc, seed=seed)
                return config, cli.run_session(config)[1]

            def verify(result, check=check):
                config, report = result
                return _check_session_counts(config, report) or check(config, report)

            ops.append(attempt(tracer, "bench.session", doc["n_slots"], session, verify, name))
        return ops


class HonestCliIo(Workload):
    name = "honest_cli_io"
    CONFIG = ROOT / "configs" / "honest.json"

    def __init__(self, seed: int, tmp: Path, slots: int | None = None) -> None:
        super().__init__(seed, tmp, slots)
        self.config = self._config_file(self.CONFIG)
        self.n_slots = _load(self.CONFIG, slots)["n_slots"]
        self.out = tmp / "run"
        self._report: dict | None = None

    def setup_files(self) -> list[Path]:
        return [self.config]

    def slots_per_op(self) -> dict[str, int]:
        return {"run": self.n_slots, "analyze": self.n_slots}

    def _check_run(self, result) -> str | None:
        code, output = result
        if code != 0:
            return f"exit code {code}: {output.strip()[-200:]}"
        with open(self.out / "report.json", encoding="utf-8") as fh:
            self._report = json.load(fh)["report"]
        if self._report["qber"] != 0.0:
            return f"honest QBER {self._report['qber']}, expected 0"
        return None

    def _check_analyze(self, result) -> str | None:
        code, output = result
        if code != 0:
            return f"exit code {code}: {output.strip()[-200:]}"
        with open(self.out / "analysis.json", encoding="utf-8") as fh:
            analysis = json.load(fh)
        if self._report is None:
            return "no report from the preceding run"
        if analysis["detectability"] != self._report["detectability"]:
            return "analyze detectability differs from report.json"
        return None

    def round(self, tracer) -> list[Op]:
        shutil.rmtree(self.out, ignore_errors=True)
        self._report = None
        seed = self.next_seed()
        run = ["run", "--config", str(self.config), "--seed", str(seed), "--out", str(self.out)]
        analyze = ["analyze", "--transcript", str(self.out / "transcript.csv"),
                   "--out", str(self.out / "analysis.json")]
        return [
            attempt(tracer, "cli.main.run", self.n_slots, lambda: _cli(run), self._check_run),
            attempt(tracer, "cli.main.analyze", self.n_slots, lambda: _cli(analyze),
                    self._check_analyze),
        ]


class CovertSweep(Workload):
    name = "covert_sweep"
    CONFIG = BENCH / "configs" / "covert_10k.json"
    GRID = ROOT / "configs" / "sweep_transmittance.json"
    SEEDS = 8

    def __init__(self, seed: int, tmp: Path, slots: int | None = None) -> None:
        super().__init__(seed, tmp, slots)
        self.config = self._config_file(self.CONFIG)
        self.n_slots = _load(self.CONFIG, slots)["n_slots"]
        with open(self.GRID, encoding="utf-8") as fh:
            params = json.load(fh)["parameters"]
        self.rows = self.SEEDS * math.prod(len(v) for v in params.values())
        self.out = tmp / "sweep.csv"

    def setup_files(self) -> list[Path]:
        return [self.config, self.GRID]

    def slots_per_op(self) -> dict[str, int]:
        return {"sweep": self.rows * self.n_slots}

    def _check(self, result) -> str | None:
        code, output = result
        if code != 0:
            return f"exit code {code}: {output.strip()[-200:]}"
        with open(self.out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.rows:
            return f"{len(rows)} rows, expected {self.rows}"
        for row in rows:
            where = f"point {row['point']} session {row['session']}"
            if row["feasible"] != "1":
                return f"{where}: infeasible"
            # a session with nothing sifted has no QBER (the low-transmittance
            # points announce only a few events in 10k slots)
            if int(row["sifted"]) > 0 and float(row["qber"]) != 0.0:
                return f"{where}: QBER {row['qber']}, expected 0"
            # m announcements carry m - 1 bits, all of them recovered
            reported = int(row["reported"])
            leaked = float(row["eve_leak_fraction"]) * reported
            if abs(leaked - max(reported - 1, 0)) > 1e-9 * reported:
                return f"{where}: leak x reported = {leaked}, expected {reported - 1}"
        return None

    def round(self, tracer) -> list[Op]:
        argv = ["sweep", "--config", str(self.config), "--grid", str(self.GRID),
                "--seeds", str(self.SEEDS), "--master-seed", str(self.next_seed()),
                "--out", str(self.out)]
        return [attempt(tracer, "cli.main.sweep", self.rows * self.n_slots,
                        lambda: _cli(argv), self._check)]


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (AttackSessions, HonestCliIo, CovertSweep)
}
