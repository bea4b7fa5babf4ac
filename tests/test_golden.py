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
        "1a5cd036b3683fb783eeaff7dcdee1ae3f702b485dce1d068122cc45bdea78c8",
        "e1f1b56e041a98504347989825629e65756c8b186a260c89bef2b45e879309f0",
    ),
    "covert_unkeyed_biased": (
        "1946b87fc372ba74fc1ac1014c5762ca28396847ba48cc820b3fd270fa1aef1b",
        "6726bf76e18f4386d2d0188fe3508c80b2489e4c542a72f49d7749153163bd6c",
    ),
    "honest": (
        "7c09f50f77e83c93efceb11262074bdc6ca7adfa17deb9bdb6e9aaa4299a9574",
        "942273d59661dd5b3377a1cc2b47399dd49fba15dee8bb8ed3f5754724675afb",
    ),
    "intercept_resend": (
        "d76ab27ff5e694aaf12f9fe68d48b0c28b2841435f18e277804dc00240171979",
        "63260d1fbbf8d3b98bf8d0cca69c72c1d25814f4d94959aca7c1083fd15bd58d",
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
        "c9e11c6a18c1a4a5b5b7b8b575e5800d66906758f600790c253c704aa33fe821",
        "0ca4c1dc6f87f3129b54304dccc6334e2e534be48e6859eabd792aed52fc1f2f",
    ),
    "covert_unkeyed_biased": (
        "8e5538928b86865f67eb1d7797c0bf82e9bcf3f68e513104b21d3ff402a60f08",
        "bda121a1da764ba8688c2913daed9195221312d77c6ed9cec4fddd562f0fbac6",
    ),
    "honest": (
        "c9e58dfe2e3e5451fe1939e806eeb44bfd99fce71d53ce9a751a6f62153d8170",
        "d91d4f4c42d6e23593cd60f059d20cc7a3e36e8b90e3957b5b086c04d715147c",
    ),
    "intercept_resend": (
        "1e9ef92980a15a4da0a84a9f8c69e10946b50833d751502f9f5cd32e9f6ea6eb",
        "176bf002e502b6d5dcf2f3bb60898713f70e8ed3e1cca3e5611e212eb49b2f75",
    ),
}


GOLDEN_DARK = {
    ("honest_dark_0.001", 2000): (
        "90718e4763dc7097ce9ef00fe2f4ed07ec354e0c854aa9b9e48a14ef39f1e6c4",
        "7a3e330d7f3f36746f56d016b60aef0b37d2513bc522b12e804b951911ce2569",
    ),
    ("honest_dark_0.001", 23456): (
        "d80d7a11dfddfa77bdbef3d46bdef2d6ed9003ecd7ee322849a38ee5df8dd501",
        "378982c2fecee68a621e7981d0514348f6f23076973c091c29953f16ef60cbaf",
    ),
    ("honest_dark_0.05", 2000): (
        "79ee8956a771c1a655c37c96f29ba16b5828de6444d4e92a9b3f857453078af6",
        "85504bfd1a7eec4b08ebaf89cbbda1f24844a0b2adc1a23b968ddc56d98ea309",
    ),
    ("honest_dark_0.05", 23456): (
        "d9bff1710cdca4234bd2e18df5aa679bf409f8c594c7cd6c82b45534fd15d92e",
        "3ce4fe931bb33313609e830b471c348ff754cf3b2f6f0e2eaed7a8efaffc6c39",
    ),
    ("intercept_resend_dark_0.001", 2000): (
        "20db11e3bfda3b7f2b6f16ca3f98eef133fcae6c1997a7fac5b451c83d3be7e0",
        "72383a1387e5b0bd6c0246abdf807672ccce1f8f2ba214cc91c5f90ff1ffab11",
    ),
    ("intercept_resend_dark_0.001", 23456): (
        "aad8cb7fb28ae0231d776fe764c191ac049b0d2d6a5f018ed74ca5d60ddb7410",
        "245e2c2dde805ccbc4964023db2e8be3eecc8e1fda567e5ccf1941e90fff8fa2",
    ),
    ("intercept_resend_dark_0.05", 2000): (
        "11433cf572e42df220a5a7f92e4b5d8247f0546b932d2a64d0d10dfd988ae0b3",
        "da35cbe4d8b2d3694776c9119b62f627830b41db9b0f790fdf7e78ef62520b5a",
    ),
    ("intercept_resend_dark_0.05", 23456): (
        "bd805b8b52d4adc0f0f11522b69a5658a3c79d3dd0a1dffc0aabf00ceac76098",
        "6281172094a6455dced0f6ec481f3c6f85ed45bad600a45dc88f00af57cba40d",
    ),
    ("intercept_resend_mixed_detectors", 2000): (
        "52d27655e93fea8414193c597b65de4635d3b12bf1056a33ad0a4b3f6a69e294",
        "8b24aab20740e20dcd826396646238ed654070ad3a35e67178c5e28f2ed781e2",
    ),
    ("intercept_resend_mixed_detectors", 23456): (
        "2c64f00cea98fe06ea9d0dd742166a83b6dfef4e55b3421dab41bd437544c2da",
        "c3952bc439ac3823855a3ef6f8a5279fad1351b8088c3c69e09ffc261b81f948",
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
GOLDEN_SWEEP = "cbe38473d9c2e0159ae999aa0156afa3480cada814dff4e6c6f3bdfb0bb2ce13"


# the JSON `ddiqkd analyze --out` writes for each scenario's transcript
GOLDEN_ANALYZE = {
    ("blinding_symmetric", 2000): "c8eca4f537aaeba7821301548a1bd9be7c0f69f63b612b03204e618c936c9cb2",
    ("blinding_symmetric", 23456): "9d4015a2d5866e2da8f2dc73d1fd937af5ecd81dc481ebf2b40436567495d03d",
    ("blinding_tailored", 2000): "ee03e037741876a09f573d3caa8b0e90a2c3c356ad06b193a1e0cd1417873d7b",
    ("blinding_tailored", 23456): "fc9196ab628d36b0a8c53f92460a7c9b89a9a13178822b4e110462c6925fdef5",
    ("covert_keyed", 2000): "7fec5f2616b03c017b4b2d43b4120f9629feb4df53f094d3f203d2dd58974f01",
    ("covert_keyed", 23456): "63d08f30de7392b67fde467c7709b58720f73bd26db2bfc8863a2aec77861b0d",
    ("covert_unkeyed_biased", 2000): "88bd12e9cfba6ab760695a0b6506cce09a16f46355306392d957dfb2bf743b3e",
    ("covert_unkeyed_biased", 23456): "7aec45f4317ebfb202c264383336dfb7b44ef4ac4ebcd9581a5d87fc1a97e944",
    ("honest", 2000): "109889044bdd22004d5964e143b7ff619621835cf726631929103b73da68c230",
    ("honest", 23456): "0301ebe66f138004c72ea77740d84b67554136c280ad1ed853599cba3e766722",
    ("intercept_resend", 2000): "80c718d499b4886bb1a12e4405a26043907306cf494d590a4eb639b3b461d765",
    ("intercept_resend", 23456): "0aa2121c16f34dcf569b6d0cd704ce8627c52f7ff4d441e4869fd6f319d006fd",
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
