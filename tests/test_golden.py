"""Golden SHA-256 digests of `ddiqkd run` outputs, one pair per scenario.

Every session config in configs/ is run at GOLDEN_SLOTS slots with its own
seed; the digests of transcript.csv and report.json must match byte for
byte. A change to the draw order, the transcript format or the report
schema changes them on purpose: bump the transcript format tag, describe
the new order in the README's "Determinism" section, and print the new
GOLDEN table with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from ddiqkd.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN_SLOTS = 2000

GOLDEN = {
    "blinding_symmetric": (
        "e206f630ed6c9273e2820796e214545e2c9d0879869996b575feaf57dffe9cf2",
        "c803da92499d2aa473a4f595cfba45c329378958429fd05a0f2505a4712ac65c",
    ),
    "blinding_tailored": (
        "f298c162b8a4d79ebe7aa605a961d34b3ecb269188e84360c4d29ae27b0ab8c3",
        "ef96f5b5bae747ea93e28ee458b37a6b75d51ecc701b0e79f924dd217e9e7141",
    ),
    "covert_keyed": (
        "5416be47ee3eecad7fca94b1210dc190cf754316ad5d4fb2cd3ea8956aeae685",
        "442e5d0c87dbe1a020ce80786288b73d6695da7be21302930e9b9f88e7544e06",
    ),
    "covert_unkeyed_biased": (
        "fb83f13c1ed73c4ba0dbc9a9aad7eb9825d01318799df7585e98c58f758dd3ff",
        "eba01de7fe3128901afd3bdc1c756846015382c9065e110838c5f5d3f53b9c95",
    ),
    "honest": (
        "8b50585752f5e31a1e8b21c5b0d9324de840bdf94e30859927611825eefad8cf",
        "ad3f4252cd33b455c5612cd2fae9052dd2efa3d9361410a40b6673df225d9b9c",
    ),
    "intercept_resend": (
        "36ecc1b26d2215d27a9a48439b6032befece3689349a254e9ba747bd861843ab",
        "96b323ca640bd824e0b487e46156bcddac14f0b41fa8150dc7d9e7eec5af4cd1",
    ),
}


def scenario_names():
    return sorted(
        p.stem for p in CONFIGS.glob("*.json")
        if "parameters" not in json.loads(p.read_text())  # sweep grids are not sessions
    )


def run_digests(name, tmp_path):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["n_slots"] = GOLDEN_SLOTS
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / name
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("transcript.csv", "report.json")
    )


def test_every_scenario_is_pinned():
    assert sorted(GOLDEN) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        pinned = {name: run_digests(name, Path(tmp)) for name in scenario_names()}
    print("GOLDEN = {")
    for name, (transcript, report) in pinned.items():
        print(f'    "{name}": (\n        "{transcript}",\n        "{report}",\n    ),')
    print("}")
