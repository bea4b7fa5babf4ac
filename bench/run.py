"""Benchmark entry point for ddiqkd.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`, named and with units as in BENCHMARK.json. With `--trace 0` the
metrics are the end-to-end ones, measured with tracing off. With `--trace 1`
half the time runs untraced and half traced; the metrics are the per-layer
ones, and the spans are written to `bench/out/`. See `bench/README.md` for what each metric means.

The timings are given at a fixed machine speed: a reference kernel that
does not use ddiqkd runs after each set-up launch and between rounds, and
each timing is scaled by the kernel's mean time next to it against
REF_NOMINAL_S. The measured values are on the info line.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy loads here or in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_LAUNCHES = 5
IMPORT_LAUNCHES = 3
WARMUP_SLOTS = 1000

# share of the measuring time spent in the reference kernel, and the
# kernel's typical time on the 2-vCPU VM the benchmark was written on
REF_SHARE = 0.10
REF_NOMINAL_S = 0.010
# reference kernel runs after each set-up launch, about 10% of its time
SETUP_REF_RUNS = 10

# Loads the workload's configs the way a CLI command does, in a fresh
# interpreter; its wall time, launch included, is setup_s.
SETUP_PROBE = """
import json, sys
from ddiqkd import cli
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if "parameters" not in doc:
        cli.parse_config(doc)
"""

IMPORT_PROBE = """
import time
import numpy
t0 = time.perf_counter()
import scipy.stats
t1 = time.perf_counter()
import ddiqkd.cli
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _launch(code: str, args: list[str]) -> tuple[float, str]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=ROOT, env=_child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return wall, proc.stdout


_REF_BITS = (numpy.arange(5000) % 2).astype(numpy.int8)


def reference_kernel() -> float:
    """Wall time of a fixed piece of work that does not use ddiqkd, in the
    mix of the package's hot paths: a per-element Python loop that reads and
    writes numpy arrays, draws from a seeded Generator and formats a CSV
    row, then a few numpy passes over 100k doubles."""
    t0 = time.perf_counter()
    rng = numpy.random.default_rng(12345)
    out = numpy.zeros(len(_REF_BITS), dtype=numpy.int8)
    counts: dict[int, int] = {}
    rows = []
    for i in range(len(_REF_BITS)):
        bit = int(_REF_BITS[i])
        if rng.random() < 0.5:
            bit ^= 1
        out[i] = bit
        counts[bit] = counts.get(bit, 0) + 1
        rows.append(f"{i},{bit},{counts[bit]}")
    x = numpy.arange(100_000, dtype=numpy.float64)
    total = float(numpy.sqrt(x * 0.5 + 1.0).sum())
    if sum(counts.values()) != len(rows) or int(out.sum()) != counts.get(1, 0) or total <= 0.0:
        raise AssertionError("reference kernel computed the wrong result")
    return time.perf_counter() - t0


def measure(workload, seconds: float, tracer, ref: list[float] | None = None) -> list:
    """Whole rounds until `seconds` have passed. Given a list ref, after
    each round the reference kernel runs until it has taken REF_SHARE of the
    time so far, and its times are appended to ref."""
    ops = []
    ops_s = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        ops.extend(workload.round(tracer))
        ops_s += time.perf_counter() - t0
        while ref is not None and sum(ref) < REF_SHARE * ops_s:
            ref.append(reference_kernel())
    return ops


def slots_per_s(ops) -> float:
    return sum(op.slots for op in ops) / sum(op.wall_s for op in ops)


def tail(walls: list[float]) -> tuple[float, float]:
    """Wall time at the highest percentile with at least ten samples beyond
    it, and that percentile; the maximum when there are fewer than 11."""
    ordered = sorted(walls)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def by_label(ops) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for op in ops:
        walls.setdefault(op.label, []).append(op.wall_s)
    return walls


def end_to_end(workload, seconds: float, info: dict) -> tuple[list, dict[str, float]]:
    setup, setup_ref = [], []
    for _ in range(SETUP_LAUNCHES):
        setup.append(_launch(SETUP_PROBE, [str(p) for p in workload.setup_files()])[0])
        setup_ref.extend(reference_kernel() for _ in range(SETUP_REF_RUNS))
    ref: list[float] = []
    ops = measure(workload, seconds, None, ref)
    # how much slower the machine ran than nominal, from the kernel's mean
    setup_slowdown = statistics.fmean(setup_ref) / REF_NOMINAL_S
    slowdown = statistics.fmean(ref) / REF_NOMINAL_S
    # Each operation label (the input it ran on) gets its own tail: where
    # labels differ in length, a pooled percentile lands on whichever
    # label's boundary the run's operation count puts it.
    walls = by_label(ops)
    tails = {label: tail(w) for label, w in walls.items()}
    measured = {"setup_s": statistics.median(setup),
                "slots_per_s": slots_per_s(ops),
                "op_s_mean": statistics.fmean(op.wall_s for op in ops),
                "op_s_tail": statistics.fmean(t for t, _ in tails.values())}
    info.update(setup_launches_s=setup, setup_reference_mean_s=statistics.fmean(setup_ref),
                reference_runs=len(ref), reference_mean_s=statistics.fmean(ref),
                measured=measured,
                op_s_p50={label: statistics.median(w) for label, w in walls.items()},
                op_s_tail={label: {"s": tails[label][0], "percentile": tails[label][1],
                                   "samples": len(w)} for label, w in walls.items()},
                ops=[[op.label, op.wall_s, op.slots] for op in ops])
    failed = sum(op.error is not None for op in ops)
    return ops, {
        "setup_s": measured["setup_s"] / setup_slowdown,
        "slots_per_s": measured["slots_per_s"] * slowdown,
        "op_s_mean": measured["op_s_mean"] / slowdown,
        "op_s_tail": measured["op_s_tail"] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / len(ops),
    }


def per_layer(workload, seconds: float, info: dict, spans_path: Path) -> tuple[list, dict[str, float]]:
    from spans import Tracer, installed, layer_metrics

    untraced = measure(workload, seconds / 2, None)
    tracer = Tracer()
    with installed(tracer):
        traced = measure(workload, seconds / 2, tracer)
    metrics = layer_metrics(tracer.spans, sum(op.wall_s for op in traced))
    imports = [[float(v) for v in _launch(IMPORT_PROBE, [])[1].split()]
               for _ in range(IMPORT_LAUNCHES)]
    metrics["analysis.scipy_stats_import_s"] = statistics.median(t[0] for t in imports)
    metrics["cli.package_import_s"] = statistics.median(t[1] for t in imports)
    metrics["trace.untraced_slots_per_s"] = slots_per_s(untraced)
    metrics["trace.traced_slots_per_s"] = slots_per_s(traced)
    metrics["trace.overhead_slots_per_s"] = (
        metrics["trace.traced_slots_per_s"] - metrics["trace.untraced_slots_per_s"]
    )
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload.name,
            "ops": [{"kind": op.kind, "wall_s": op.wall_s, "slots": op.slots, "error": op.error}
                    for op in traced],
            "spans": tracer.spans,
        }, fh)
    info["spans_file"] = str(spans_path.relative_to(ROOT))
    info["untraced_ops"] = len(untraced)
    info["traced_ops"] = len(traced)
    return untraced + traced, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slots", type=int, default=None,
                        help="override every session's n_slots (smoke test)")
    args = parser.parse_args(argv)

    if not (SRC / "ddiqkd" / "__init__.py").is_file():
        print(f"error: no ddiqkd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ddiqkd

    if Path(ddiqkd.__file__).resolve().parent != SRC / "ddiqkd":
        print(f"error: imported ddiqkd from {ddiqkd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import scipy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    kind = WORKLOADS[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        warm_dir = Path(tmp) / "warm"
        run_dir = Path(tmp) / "run"
        warm_dir.mkdir()
        run_dir.mkdir()
        warm_slots = min(WARMUP_SLOTS, args.slots or WARMUP_SLOTS)
        # first calls fill caches and lazy imports; users of a long-lived
        # process pay that once, so it stays out of the timed loop
        kind(args.seed, warm_dir, warm_slots).round(None)
        workload = kind(args.seed, run_dir, args.slots)
        info = {
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "slots_per_op": workload.slots_per_op(),
        }
        if args.trace:
            spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
            ops, values = per_layer(workload, args.seconds, info, spans_path)
        else:
            ops, values = end_to_end(workload, args.seconds, info)

    errors = [op.error for op in ops if op.error is not None]
    info["failures"] = errors[:5]
    for error in errors[:5]:
        print(f"failed: {error}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not errors,
        "attempted": len(ops),
        "failed": len(errors),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
