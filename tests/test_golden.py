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
        "268ae20da7c27f1f1e84d6f05ac5c09f43460fe2259089b125bc3d83e2db5cd8",
        "12a72fce9cd68fd553104f1ebbf54fc1c509c967b7f2a6ba29fba02af6193901",
    ),
    "blinding_tailored": (
        "1a87b1332c6cf623135e49fb3e1edc4160c8b1fc680e4243bfdd02a3ef0c4b67",
        "382fbefd0f325542288352f61772d760bfdd43c264cdd57e567ae31898861789",
    ),
    "covert_keyed": (
        "a5acb08021a8f4a56be47f7b4dcf72f8d4a6e4715540e75db13473a1eace1ce7",
        "f6abacefb8a336294fee3b073566470e87e8c062b0b6b6794bb010fe80a5eecf",
    ),
    "covert_unkeyed_biased": (
        "b7486cd0354cbc15302800ba42212f8d4bc0441cbc17d3c3cd658cf2bc52b7cb",
        "c95c79c779718855358b6b132dc8dc70ca68bdedf053729bc6fc917c71a63896",
    ),
    "honest": (
        "29bbbef01e9f2ec44512b6660c6abc399a28104dd8735002c2514d7fc7c0eaf3",
        "6de996baf79a20d71aa3c91c96b5e0ea7cd623837cb0d47d62f7cc61e5fa26f4",
    ),
    "intercept_resend": (
        "acfe59cfbab20c1b0069486cd2eca1b8265a7c8429c2cfb9a496bd6110fb4239",
        "54506fae3b141bf5603126cc807a2d32fbf131e562906409e2b132837b182124",
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
