"""Golden SHA-256 digests of `ddiqkd run` outputs, one pair per scenario.

Every session config in configs/ is run at GOLDEN_SLOTS slots with its own
seed; the digests of transcript.csv and report.json must match byte for
byte. GOLDEN_MULTI pins the same scenarios at MULTI_SLOTS slots, where a
transcript spans three 10,000-row blocks and the covert reporter makes
several thousand announcements. GOLDEN_DARK pins, at both lengths, the
sessions with dark counts that no config file has (DARK_DOCUMENTS).
GOLDEN_SWEEP pins the CSV of one `ddiqkd sweep` (SWEEP_ARGS), which holds
the order of its rows and the per-session seeds as well. GOLDEN_ANALYZE
pins the JSON `ddiqkd analyze --out` writes for each scenario's transcript
at both lengths. GOLDEN_BENCH_CONFIGS pins the config digest of each
benchmark scenario in bench/configs/, so a schema change cannot silently
change what the benchmark measures. A change to the draw order, the
transcript layout, the report schema or the monitors' numerics changes them
on purpose. Only a layout change bumps the transcript format tag. A
draw-order change describes the new order in the README's "Determinism" section,
regenerates the tables it moves and names each changed digest in
CHANGES.md. Print the new GOLDEN, GOLDEN_MULTI, GOLDEN_DARK, GOLDEN_SWEEP,
GOLDEN_ANALYZE and GOLDEN_BENCH_CONFIGS tables with

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
from ddiqkd.config import config_digest, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
BENCH_CONFIGS = CONFIGS.parent / "bench" / "configs"
GOLDEN_SLOTS = 2000
MULTI_SLOTS = 23456

GOLDEN = {
    "blinding_symmetric": (
        "044f176679b9aadad7578878ed0c1fa620590305820d7da4a54ddd4a3b878309",
        "c1bb6a18df12bc92f6c6bc7c828f61ffc8be4933b75bb48271b008cf50d7ab4a",
    ),
    "blinding_tailored": (
        "4aaa16eb167c1857a3f15ee76a22d7210a684ab7661b4543370b7b2f9a7ae504",
        "6eeadff5858ad3f3756ac03225fdfac205aa469de5d8d665731b11201135d5e0",
    ),
    "covert_keyed": (
        "1f02b13c6025c956f0285d277d0c2ccec25cf51a771882967094bd4a1a2ad2d4",
        "50e46e89543a9825314a8a59bfe71c7ef52108f97585207561a5d66401d75aa5",
    ),
    "covert_unkeyed_biased": (
        "722d51e2d557fcb875494b70f1fb55fef5e4b04734314bc4d3dde97dbe34b9f4",
        "5688ab1c171d22c69cbd5d67d4828d8b4e44b4a6763f3205c88d14cf0d3d6b0e",
    ),
    "honest": (
        "fa942fc42f6ddd07d1be37e657911e05da2ca025a2a4b28c1463ddd39bdf19bf",
        "ec5287bee99f211078e2f0097615c8bf44d10d702f3c3e248eddbbc8423ec3a1",
    ),
    "intercept_resend": (
        "3b8f219e3323eade2139cc4c151734eda43d9eefd85eae48172d16cca44efe91",
        "bbe4c4782770df2ebb20c9927cf3a4dcd1146c0333daf3b478a94a2749e37478",
    ),
}

GOLDEN_MULTI = {
    "blinding_symmetric": (
        "3c6868d0c79b321664f822e8189286cce8d1dddd38696326654676ab642f80ce",
        "ab80e8a9d8dc925ecf05dae6b2510a329ce958352ca763435bea9d3c23ecc1fd",
    ),
    "blinding_tailored": (
        "048591c9a66344cc607b06f795af0732e972e29c7bf054c94014386429f03135",
        "4431b24545cff057396ab4874575955e57b68b802327d2a2a96bcb5978321404",
    ),
    "covert_keyed": (
        "633d04a6987b66959305fe521c280b374c921b938c4aab2a74e246a70d9831cc",
        "26fc658497240104e489740075e23861c8f04cb598975224afaa96e91b616dc0",
    ),
    "covert_unkeyed_biased": (
        "74a3554c9c298897d1337589f4b62676baf35402bf2d3f9c38e851e17a72273d",
        "3e67ae3ef943b910ab6ce18a726b5de97d444e452dace0e80fc96e0cf254d84e",
    ),
    "honest": (
        "67f5f2bb191fc6acf782a866a7e807638a12c1bfa53d236b0441fa34c7fd9bd2",
        "c9eca61d6e3f16126434486fd6bd29d05fce604e728ff063cdba218cee7fcd32",
    ),
    "intercept_resend": (
        "5453345481982139ec3ec6a65cd77dcef9eaa8db1e229f10b008e38335fffa1c",
        "dc8542967017b31a49628deab0e513686bbec47f1c38bfa36a9862c4a746ec9c",
    ),
}


GOLDEN_DARK = {
    ("honest_dark_0.001", 2000): (
        "27bbb643a3537c8ba84bd64937ea06264ed50a2795085b4807658961edb71064",
        "a07ef97ba28b6e0218e057d7a4b074aa140579083bd434513471600b03923535",
    ),
    ("honest_dark_0.001", 23456): (
        "0fb5e02fe183b11fb861061c3c7b9bf56f09421602fd87b15d1e9c8ae05cd373",
        "3537212b1b06ad592d09ab0e3c81b810cf8bc354541657297ab054f48e0088d6",
    ),
    ("honest_dark_0.05", 2000): (
        "bf2d3b34edc0c513fa898c95f4920413a2994e234c981511f809f2dea8805246",
        "f369e9e4d2ff17ceb0c788f5a0c5361ea9d50e2dd83180dfd97944927f31e986",
    ),
    ("honest_dark_0.05", 23456): (
        "eef4f69c907df0ecb7a9858e10682e3a06a01754668ab72c27904eeccb1a53a1",
        "311248c66685ff1ed3533b1d1eef46e9c4671bafd830aa84b4684764365354e4",
    ),
    ("intercept_resend_dark_0.001", 2000): (
        "4ec464c9e9efc9116fc5d73c943a58aebbb267e962bd7ed7854dfab96e0491a8",
        "8228844c777889caf6dc9b19caef49449960cf66953dfd837d14b5bea49232ac",
    ),
    ("intercept_resend_dark_0.001", 23456): (
        "9720853471ae332c0f301c10fec86b3c8784d35e7e324ca58a092bac8474954d",
        "e3e90fd6053add1037add2c79e6494afade7e209f5ccb0e501b1ecc0a3af9919",
    ),
    ("intercept_resend_dark_0.05", 2000): (
        "08bae32530517723a5768a02de6eff31b3a0f4c5962ba0662bfb18545f0f00c0",
        "f18b23ace63d104ad6178c3ec7b9c9ef64c2210d671a8f9e4b52d8165943f3f3",
    ),
    ("intercept_resend_dark_0.05", 23456): (
        "4451940c746a2fc83d912a38acee0c94ec2aaf5df2e3ebb9b602163c865b5e68",
        "575c21f94021d6e7a53a856b7875db7d792f53d7f6e3a2f273b798dbd8542558",
    ),
    ("intercept_resend_mixed_detectors", 2000): (
        "152f668bfa47b29da5520c83ff700fd6ea6ea96c0f680411e3d4027f6968b7d4",
        "135bcee766a58ce9d86a00f7dbbf48acfb0200ba86e15c45f1d60848f8b6979c",
    ),
    ("intercept_resend_mixed_detectors", 23456): (
        "9557e45e59ee1aa5c4af83a9e84fe465dc93d71ec216c088cee35160e65c6ffc",
        "33f3e822b4d726405240f564c2db2a2619df807bcdf0f7782596010a402258c8",
    ),
}

# honest and intercept-resend at transmittance 0.3 with identical dark
# detectors, and one intercept-resend session whose detectors differ in
# efficiency and dark-count probability, one of them with none
DARK_DOCUMENTS = {
    f"{kind}_dark_{dark:g}": {
        "seed": 11, "channel": {"transmittance": 0.3},
        "detectors": {"efficiency": 0.5, "dark_count_prob": dark},
        "eta_expected": 0.5, "mode": {"kind": kind},
    }
    for kind in ("honest", "intercept_resend") for dark in (1e-3, 0.05)
}
DARK_DOCUMENTS["intercept_resend_mixed_detectors"] = {
    "seed": 12, "channel": {"transmittance": 0.3},
    "detectors": [
        {"efficiency": 0.2, "dark_count_prob": 0.01},
        {"efficiency": 0.6, "dark_count_prob": 0.0},
        {"efficiency": 0.4, "dark_count_prob": 0.002},
        {"efficiency": 0.3, "dark_count_prob": 0.05},
    ],
    "eta_expected": 0.4, "mode": {"kind": "intercept_resend"},
}
DARK_CASES = [(name, n) for name in DARK_DOCUMENTS for n in (GOLDEN_SLOTS, MULTI_SLOTS)]

# the keyed covert config, three sessions at each of the grid's six
# transmittances
SWEEP_ARGS = (
    "--config", str(CONFIGS / "covert_keyed.json"),
    "--grid", str(CONFIGS / "sweep_transmittance.json"),
    "--seeds", "3", "--master-seed", "11",
)
GOLDEN_SWEEP = "582ecd301b51a3713855dc2a0b69cb37886e5646ef7d8cc79fb95a5454d94199"


# the JSON `ddiqkd analyze --out` writes for each scenario's transcript
GOLDEN_ANALYZE = {
    ("blinding_symmetric", 2000): "c8eca4f537aaeba7821301548a1bd9be7c0f69f63b612b03204e618c936c9cb2",
    ("blinding_symmetric", 23456): "9d4015a2d5866e2da8f2dc73d1fd937af5ecd81dc481ebf2b40436567495d03d",
    ("blinding_tailored", 2000): "ee03e037741876a09f573d3caa8b0e90a2c3c356ad06b193a1e0cd1417873d7b",
    ("blinding_tailored", 23456): "fc9196ab628d36b0a8c53f92460a7c9b89a9a13178822b4e110462c6925fdef5",
    ("covert_keyed", 2000): "825827361576d27faa71abdb3ca8c6bf72b99196af4d8a6606fafb5f6bdbfcca",
    ("covert_keyed", 23456): "e0c00755dd924e28e7e9ae1c6c39ce7fbd5ec28348f3b25ea36d5ce957877a7e",
    ("covert_unkeyed_biased", 2000): "6ac6bed29f1668997fea093a7b948b17caa96c5533e07474ac7496f94d74efc5",
    ("covert_unkeyed_biased", 23456): "54db7f87cceb50054944d4d0b13dacff16c4684fa5206a12a46651e84440515e",
    ("honest", 2000): "d40b1511f209590e40ef21184cfe735f5574190ec1b6ecd5252127a10956a3f8",
    ("honest", 23456): "852c7aaf3f3a257f662de097cd54ae3905ac86e5bccdba5e981b1324fec60e2b",
    ("intercept_resend", 2000): "8047c47425464782bd3796f7078f1e021214677ad8b4a1311839fb4696a01acd",
    ("intercept_resend", 23456): "f8add0b669d43dcf35a265b4b24732926b5c0eb4d5f7e642c5aa6b44a24293a3",
}

# the config digest of each bench/configs/*.json scenario
GOLDEN_BENCH_CONFIGS = {
    "covert_10k": "1bddf5e969bb8f2f5844cc83267ec84fc70af821360a626e334d46781e193820",
    "honest_dark": "1c9ea5f3caf9098761cd924f3c3abac2f0ce6101ba16764d2b410249319707c1",
}


def scenario_names():
    return sorted(
        p.stem for p in CONFIGS.glob("*.json")
        if "parameters" not in json.loads(p.read_text())  # sweep grids are not sessions
    )


def run_digests(name, tmp_path, n_slots=GOLDEN_SLOTS, doc=None):
    """Digests of `ddiqkd run` on configs/<name>.json, or on doc if given,
    at n_slots slots."""
    doc = dict(doc or json.loads((CONFIGS / f"{name}.json").read_text()))
    doc["n_slots"] = n_slots
    config = tmp_path / f"{name}.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / name
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return tuple(
        hashlib.sha256((out / f).read_bytes()).hexdigest()
        for f in ("transcript.csv", "report.json")
    )


def run_and_analyze(name, tmp_path, n_slots):
    """`ddiqkd run` on configs/<name>.json at n_slots slots, then `ddiqkd
    analyze --out` on its transcript: the report JSON, parsed, and the
    analysis JSON's bytes."""
    run_digests(name, tmp_path, n_slots)
    out = tmp_path / name
    analysis = out / "analysis.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", "--transcript", str(out / "transcript.csv"), "--out", str(analysis)]) == 0
    return json.loads((out / "report.json").read_text()), analysis.read_bytes()


def sweep_digest(tmp_path):
    """Digest of the CSV of `ddiqkd sweep` with SWEEP_ARGS."""
    out = tmp_path / "sweep.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["sweep", *SWEEP_ARGS, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_scenario_is_pinned():
    assert sorted(GOLDEN) == sorted(GOLDEN_MULTI) == scenario_names()


@pytest.mark.parametrize("name", scenario_names())
def test_golden_digests(name, tmp_path):
    assert run_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", scenario_names())
def test_golden_multi_block_digests(name, tmp_path):
    assert run_digests(name, tmp_path, MULTI_SLOTS) == GOLDEN_MULTI[name]


@pytest.mark.parametrize("name, n_slots", DARK_CASES)
def test_golden_dark_digests(name, n_slots, tmp_path):
    assert run_digests(name, tmp_path, n_slots, DARK_DOCUMENTS[name]) == GOLDEN_DARK[name, n_slots]


def test_golden_sweep_digest(tmp_path):
    assert sweep_digest(tmp_path) == GOLDEN_SWEEP


ANALYZE_CASES = [(name, n) for name in scenario_names() for n in (GOLDEN_SLOTS, MULTI_SLOTS)]


@pytest.mark.parametrize("name, n_slots", ANALYZE_CASES)
def test_golden_analyze_digests(name, n_slots, tmp_path):
    _, analysis = run_and_analyze(name, tmp_path, n_slots)
    assert hashlib.sha256(analysis).hexdigest() == GOLDEN_ANALYZE[name, n_slots]


@pytest.mark.parametrize("name, n_slots", ANALYZE_CASES)
def test_analyze_detectability_equals_run_report(name, n_slots, tmp_path):
    """The monitors over the transcript's public columns reach the report's
    numbers and verdicts, whichever path reads the announcements."""
    report, analysis = run_and_analyze(name, tmp_path, n_slots)
    assert json.loads(analysis)["detectability"] == report["report"]["detectability"]


def bench_config_digests():
    return {p.stem: config_digest(load_config(str(p))) for p in sorted(BENCH_CONFIGS.glob("*.json"))}


def test_golden_bench_config_digests():
    assert bench_config_digests() == GOLDEN_BENCH_CONFIGS


def print_table(table, cases):
    """Print `table = {...}` for cases of (key, name, n_slots, doc)."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        pinned = {key: run_digests(name, Path(tmp), n, doc) for key, name, n, doc in cases}
    print(f"{table} = {{")
    for key, (transcript, report) in pinned.items():
        print(f'    {key!r}: (\n        "{transcript}",\n        "{report}",\n    ),'.replace("'", '"'))
    print("}")


if __name__ == "__main__":
    for table, n_slots in (("GOLDEN", GOLDEN_SLOTS), ("GOLDEN_MULTI", MULTI_SLOTS)):
        print_table(table, [(name, name, n_slots, None) for name in scenario_names()])
    print_table("GOLDEN_DARK", [((name, n), name, n, DARK_DOCUMENTS[name]) for name, n in DARK_CASES])
    with tempfile.TemporaryDirectory() as tmp:
        print(f'GOLDEN_SWEEP = "{sweep_digest(Path(tmp))}"')
        with contextlib.redirect_stdout(io.StringIO()):
            pinned = {
                (name, n): hashlib.sha256(run_and_analyze(name, Path(tmp), n)[1]).hexdigest()
                for name, n in ANALYZE_CASES
            }
    print("GOLDEN_ANALYZE = {")
    for key, digest in pinned.items():
        print(f'    {key!r}: "{digest}",'.replace("'", '"'))
    print("}")
    print("GOLDEN_BENCH_CONFIGS = {")
    for name, digest in bench_config_digests().items():
        print(f'    "{name}": "{digest}",')
    print("}")
