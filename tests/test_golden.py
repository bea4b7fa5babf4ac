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
        "e206f630ed6c9273e2820796e214545e2c9d0879869996b575feaf57dffe9cf2",
        "c803da92499d2aa473a4f595cfba45c329378958429fd05a0f2505a4712ac65c",
    ),
    "blinding_tailored": (
        "f298c162b8a4d79ebe7aa605a961d34b3ecb269188e84360c4d29ae27b0ab8c3",
        "e5eb60c88a4fe811530e4f0e5e11f50a26433ecff43616ae5af45565685d9d12",
    ),
    "covert_keyed": (
        "44a0d4a57cd9e3747936e639b791176126e7f221d1d540034edae5c4921821d5",
        "97ec13b1b2ac38e0c15102049be76a29fe106d26de3ee4204dfd973c79400c26",
    ),
    "covert_unkeyed_biased": (
        "749d7156b343bce87c6539df1ae1e98e7c4884322901b5be6f0f66b7d7d51473",
        "acc8802b5865aab5205d651bad8c11ff8f4b8e8f24f613f0b77c871c43a5ebb9",
    ),
    "honest": (
        "8b50585752f5e31a1e8b21c5b0d9324de840bdf94e30859927611825eefad8cf",
        "e30628a3f27afee364157e127b50e351662b42a540c739e3d361e387012dfb51",
    ),
    "intercept_resend": (
        "36ecc1b26d2215d27a9a48439b6032befece3689349a254e9ba747bd861843ab",
        "8e7e77793ad97d835a89fd8ae424b7187b9a2f8112e7debf511bec5621d443ea",
    ),
}

GOLDEN_MULTI = {
    "blinding_symmetric": (
        "554d4d191802806bc644a1b268159044519327adf51fd73e07a00c3a2c09d7d5",
        "491d44f4dc76374c2d2068027c11f23455113d6c2fb209392ece127fbe72519d",
    ),
    "blinding_tailored": (
        "616edd0c04c0294f14cf3ac434abb51b569b7cfb5106cca07287fad235b1760d",
        "e8069ab627f75b60e9de480ccec7e95d76300d334a0694e9e1b6712c5799388e",
    ),
    "covert_keyed": (
        "5e53df6fcb955f62e3cab8a4ff51b1250dcf532ab0ca7ca652d4c97e7926fc27",
        "c8a66199d2562f6ca08e8c74c2590aa3e42242f46d7321db81571417267b5278",
    ),
    "covert_unkeyed_biased": (
        "5867dfd436776b6334eca3d602ef6e4bdc134dbc69a7426b47196a811fb9a593",
        "91a5a093c526af82c7f8346d27b4f943b19cb68c75ef9f99479ba666c7bb36cc",
    ),
    "honest": (
        "0b6e5983f219b18bd9599701e80f8e4cd6a5dcef5aa1517c12e4c754cab67f70",
        "59d8b27ddaaeb353d15c36e637b8f516484727c768ff5a8774827576f950da00",
    ),
    "intercept_resend": (
        "d440b39aaab77292a54fdf2ddec211c50e7673389b2dfd4aff50ff46b1d2696a",
        "c77cdd2dffc0edaa5e610f8941e2140cb67001de329acef7262097f6528fe7e2",
    ),
}


GOLDEN_DARK = {
    ("honest_dark_0.001", 2000): (
        "1f0328555189d88bf158cdb6534f1d70eb1da03b9275c5a96661635736f2a636",
        "61b918ba6ab42c9ce95a6e76bfc0319f1314e86487bfa836ae27e51a6a68f85f",
    ),
    ("honest_dark_0.001", 23456): (
        "9158db4f6a022a571b0310ef3803dc449ac7b2ef493b95ba324b2edc3eb984f5",
        "b9e8f97bdb7386ab9e79ac2f656c73149dcee5c095815f1eb60c461df42d9bf6",
    ),
    ("honest_dark_0.05", 2000): (
        "cce76df22db656b280b69acc71fbbd0592a32ce1b73a45ec558e07f1e0b4cc53",
        "deba8184b01accceb3614bd33478091e3828ee42dc15e379133a1cc7d821d520",
    ),
    ("honest_dark_0.05", 23456): (
        "8390c494a8233356bca8845cb1eb9767b24f9cae99cfd2e6a87f00ec137db6ce",
        "91b87b4f073349621d8741fadc2dc9b03eeadf67be0d00cef5c80a1a671c5ca5",
    ),
    ("intercept_resend_dark_0.001", 2000): (
        "c831f4ab73dadaf72e1c6668ece9d5e5ae9b8075a1b7272028c61e4e05f1c908",
        "f54c9116416bf6eecef50e38a8b73e33a76739813f7a6e1a0cc7cd6f3d01293e",
    ),
    ("intercept_resend_dark_0.001", 23456): (
        "ea5ee4ebb1ad9a070c9870763c213b3d5a2c7d6dbe7a51115c461390ed812578",
        "d339e13a913818a22c43a1d10fd3389e05214d0e5b4b2b2eb733c25ef0ae9744",
    ),
    ("intercept_resend_dark_0.05", 2000): (
        "58c37d2b20eb9cf8e7af988b9e34bf9770f51f7d268e4238a5eab212c798cc9e",
        "8a69adc804f8478bcc915e99ecb567d2d84ca9f9bed3779781a6a2bf036dbbe4",
    ),
    ("intercept_resend_dark_0.05", 23456): (
        "2413e906f7e83dba8e7029a91995250f7550d5552bbdfa45f4152d23e49da518",
        "46fb023fc9378326afa2b5746b19361dd7c30109abbc9a7aeda092edc5d957a9",
    ),
    ("intercept_resend_mixed_detectors", 2000): (
        "b9b56e41b89745da0ddf564334810167a21d7c626c418540d932c94d030c9a8b",
        "4ff2036156d33a94e5e8f9a66061b78e3bb6660cdba28d1840c0e00c2e0070e2",
    ),
    ("intercept_resend_mixed_detectors", 23456): (
        "a4afa85639d6d0f1c06d1b46c7ac857c13e7a1e2bfb73dcaf9f23d983678362a",
        "2702d2201e424112b21bef7b16757b201c49dad640fb026566c451e51b9079ff",
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
GOLDEN_SWEEP = "bf2f8bb224e5d90ab6363a04e9e5a177c6541d17a5e6c447b5af6240b87ce11f"


# the JSON `ddiqkd analyze --out` writes for each scenario's transcript
GOLDEN_ANALYZE = {
    ("blinding_symmetric", 2000): "6f5c0768c39f520940f513580dd2dc20dec1434937deb3a416ddbe92bf6a56a8",
    ("blinding_symmetric", 23456): "e5360956bce1019a1b76ec48cc985c49e095c81e218fd514dd1275accb195451",
    ("blinding_tailored", 2000): "a1ad244ca044816ece175ce3dc69f7931521fb9e0391fad389c8920af6bf2807",
    ("blinding_tailored", 23456): "d0039b6d4e416c56c62284ba4de97f919cf326ad0d8ab69ffe79766319bff317",
    ("covert_keyed", 2000): "727d3ac7eefb74e0e2b382314045bb19615d9d7fef6ddc8cb3bc21add275b198",
    ("covert_keyed", 23456): "6c66c155e641a45d24bfd8de617c66c224a46d2a83efd27cdfa4f5dbab401799",
    ("covert_unkeyed_biased", 2000): "c1c584df22019ad0959eb0761f198148e5bfc28f64924cbfd5d18eda9348e408",
    ("covert_unkeyed_biased", 23456): "9cbae6b1e5ffd7cc3234702a3bb87252432b7c0ea8aa59a7623fbe509f736534",
    ("honest", 2000): "e00d1fc356ef4ace5ee7465c78021126da45048fab1a91c4b8288ccc4634b97f",
    ("honest", 23456): "0b9beddbca09342b2e62da02c1c5841ce6fbe9a803b9d14f9d29591a4b9379a7",
    ("intercept_resend", 2000): "05d7cbe09eb480dae4efa4b16dd4f5181870e18d372965f6e9865ecafbbe8a1d",
    ("intercept_resend", 23456): "e1f43cb34d7c4ed57bf3b705d4c579340888227e25e823020f5063a64a13c9a5",
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
