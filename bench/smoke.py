"""Smoke test of the benchmark at tiny n_slots.

    python3 bench/smoke.py

For every workload, runs `bench/run.py` untraced and traced for one second
with every session at 4000 slots, and checks that:

- the last line of output is the result object, with `correct` true;
- every metric BENCHMARK.json names is emitted, with its unit;
- in the traced run, the span self times of each operation sum to the wall
  time the measuring loop took for it.

It also checks that `bench/run.py` exits non-zero without printing a result
in a directory holding only BENCHMARK.json and `bench/`. Exits non-zero on
the first failed check. Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from spans import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SLOTS = 4000


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--slots", str(SLOTS)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_spans(path: Path) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    spans = doc["spans"]
    own = self_times(spans)
    root_of = []
    for s in spans:
        root_of.append(s["id"] if s["parent"] is None else root_of[s["parent"]])
    roots = [s["id"] for s in spans if s["parent"] is None]
    ops = doc["ops"]
    expect(len(roots) == len(ops), f"{len(roots)} root spans for {len(ops)} operations")
    summed = dict.fromkeys(roots, 0.0)
    for i, t in enumerate(own):
        summed[root_of[i]] += t
    for root, op in zip(roots, ops):
        expect(spans[root]["name"] == op["kind"], f"root span {spans[root]['name']} for {op['kind']}")
        gap = abs(summed[root] - op["wall_s"])
        expect(gap <= max(1e-3, 0.01 * op["wall_s"]),
               f"{op['kind']}: self times sum to {summed[root]:.6f} s, wall {op['wall_s']:.6f} s")


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            expect(proc.returncode == 0, f"{label}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(result["correct"] and result["failed"] == 0, f"{label}: {proc.stderr}")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == wanted[trace], f"{label}: metrics differ from BENCHMARK.json")
            if trace:
                check_spans(BENCH / "out" / f"spans-{workload}-seed7.json")
            print(f"ok  {label}: {result['attempted']} operations")

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(Path(bare), spec["workloads"][0]["name"], 0)
        expect(proc.returncode != 0, "run.py succeeded without the package sources")
        expect('"correct"' not in proc.stdout, "run.py printed a result without the sources")
    print("ok  exits non-zero without the package sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
