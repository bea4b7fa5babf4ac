"""Golden SHA-256 digests of `ddiqkd run` outputs, one pair per scenario.

Every session config in configs/ is run at GOLDEN_SLOTS slots with its own
seed; the digests of transcript.csv and report.json must match byte for
byte. GOLDEN_MULTI pins the same scenarios at MULTI_SLOTS slots, where a
transcript spans three 10,000-row blocks and the covert reporter makes
several thousand announcements. A change to the draw order, the transcript format or the report
schema changes them on purpose: bump the transcript format tag, describe
the new order in the README's "Determinism" section, and print the new
GOLDEN and GOLDEN_MULTI tables with

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
MULTI_SLOTS = 23456

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

GOLDEN_MULTI = {
    "blinding_symmetric": (
        "554d4d191802806bc644a1b268159044519327adf51fd73e07a00c3a2c09d7d5",
        "491d44f4dc76374c2d2068027c11f23455113d6c2fb209392ece127fbe72519d",
    ),
    "blinding_tailored": (
        "616edd0c04c0294f14cf3ac434abb51b569b7cfb5106cca07287fad235b1760d",
        "29374896bdadec7d3cfbcdf1de56c1708b921ad854540bd617d234a08cd881b7",
    ),
    "covert_keyed": (
        "5d4b28bc7233e7e4882648d7d0c4f43e103abfdb50c487dd383e0a8ce5278fb4",
        "f7621c0c44631fd3c6b610506202c5be3f99f1530e58612fe06f9df2977b2a04",
    ),
    "covert_unkeyed_biased": (
        "65e8ff68fa6a4197bd4c3ced88f34124f6471439b1e783e4a2816b2847620d3e",
        "81c641aaf8fcf8c50f3c8344a5e7c84c6061f19fa52f51dee8a28917b17b9c99",
    ),
    "honest": (
        "0b6e5983f219b18bd9599701e80f8e4cd6a5dcef5aa1517c12e4c754cab67f70",
        "be543b6d0eb7740fc883c0d05c7cb8b23283cfa10c3e8b34f4909a49a38b911d",
    ),
    "intercept_resend": (
        "d440b39aaab77292a54fdf2ddec211c50e7673389b2dfd4aff50ff46b1d2696a",
        "b21052dde63de23e9e8f1a6ba1e8f5859c59aa387fa0f1aa0290f1122b88b848",
    ),
}


def scenario_names():
    return sorted(
        p.stem for p in CONFIGS.glob("*.json")
        if "parameters" not in json.loads(p.read_text())  # sweep grids are not sessions
    )


def run_digests(name, tmp_path, n_slots=GOLDEN_SLOTS):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    doc["n_slots"] = n_slots
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / name
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("transcript.csv", "report.json")
    )


def test_every_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(GOLDEN_MULTI) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", scenario_names())
def test_golden_multi_block_digests(name, tmp_path):
    assert run_digests(name, tmp_path, MULTI_SLOTS) == GOLDEN_MULTI[name]


if __name__ == "__main__":
    for table, n_slots in (("GOLDEN", GOLDEN_SLOTS), ("GOLDEN_MULTI", MULTI_SLOTS)):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            pinned = {name: run_digests(name, Path(tmp), n_slots) for name in scenario_names()}
        print(f"{table} = {{")
        for name, (transcript, report) in pinned.items():
            print(f'    "{name}": (\n        "{transcript}",\n        "{report}",\n    ),')
        print("}")
