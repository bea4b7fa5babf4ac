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
change what the benchmark measures. A change to the
draw order, the transcript layout or the report schema changes them on
purpose. Only a layout change bumps the transcript format tag. A draw-order
change describes the new order in the README's "Determinism" section,
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
        "ef96f5b5bae747ea93e28ee458b37a6b75d51ecc701b0e79f924dd217e9e7141",
    ),
    "covert_keyed": (
        "44a0d4a57cd9e3747936e639b791176126e7f221d1d540034edae5c4921821d5",
        "ffcc02a1e1d838502d038e68bf7a32be1ffca72f7718926c32a6bcded7fb4fd5",
    ),
    "covert_unkeyed_biased": (
        "749d7156b343bce87c6539df1ae1e98e7c4884322901b5be6f0f66b7d7d51473",
        "3ac2e90dc42f239db3931163142722d8f2dadc31feec78a0d12e990d71fbba11",
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
        "5e53df6fcb955f62e3cab8a4ff51b1250dcf532ab0ca7ca652d4c97e7926fc27",
        "e839527e64761ccb626a51160ccbd376e72d5aafe1ad314f9a4e334e879c9472",
    ),
    "covert_unkeyed_biased": (
        "5867dfd436776b6334eca3d602ef6e4bdc134dbc69a7426b47196a811fb9a593",
        "0c92fe46f8e6708fae5e491403abdbe60b0a2aa34d445fa14104a76fd19fcfa6",
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


GOLDEN_DARK = {
    ("honest_dark_0.001", 2000): (
        "1f0328555189d88bf158cdb6534f1d70eb1da03b9275c5a96661635736f2a636",
        "b5881c0effe91553967b703b983cb20cb82cd81ee422fc1a860207db16aa05f9",
    ),
    ("honest_dark_0.001", 23456): (
        "9158db4f6a022a571b0310ef3803dc449ac7b2ef493b95ba324b2edc3eb984f5",
        "fc2160229d2357c98be2eb620e7ce52ba430bc64fff22570300e110eea2c5a03",
    ),
    ("honest_dark_0.05", 2000): (
        "cce76df22db656b280b69acc71fbbd0592a32ce1b73a45ec558e07f1e0b4cc53",
        "61197edac00fc30621aabb7ede119765893acaa1dd6c6f258e55b4f4afe14520",
    ),
    ("honest_dark_0.05", 23456): (
        "8390c494a8233356bca8845cb1eb9767b24f9cae99cfd2e6a87f00ec137db6ce",
        "d44084c11656528dfeb3f3906683e2507694df1c972bc528350520acf109135a",
    ),
    ("intercept_resend_dark_0.001", 2000): (
        "c831f4ab73dadaf72e1c6668ece9d5e5ae9b8075a1b7272028c61e4e05f1c908",
        "7fbc03a513116000a091faa28875c4e0b210bdd8b36b10cfd6b801a23c86cca2",
    ),
    ("intercept_resend_dark_0.001", 23456): (
        "ea5ee4ebb1ad9a070c9870763c213b3d5a2c7d6dbe7a51115c461390ed812578",
        "8aa8279fdcc75557f2c65d1c167f4086b975eba7f542f8ce8773e7a1197d80ef",
    ),
    ("intercept_resend_dark_0.05", 2000): (
        "58c37d2b20eb9cf8e7af988b9e34bf9770f51f7d268e4238a5eab212c798cc9e",
        "947a15c08bb0c0999172c4c502c809fd3eb19832fc8af8f650b95dc377d2c3f5",
    ),
    ("intercept_resend_dark_0.05", 23456): (
        "2413e906f7e83dba8e7029a91995250f7550d5552bbdfa45f4152d23e49da518",
        "9bd0561d46974eedc27d8b985b3a0bb2229845d08bc2a8478542b5721c59516b",
    ),
    ("intercept_resend_mixed_detectors", 2000): (
        "b9b56e41b89745da0ddf564334810167a21d7c626c418540d932c94d030c9a8b",
        "bc7b24f32ce57bfe4f135ccd43b33cf00d037caec438bfae0814507b72ea4071",
    ),
    ("intercept_resend_mixed_detectors", 23456): (
        "a4afa85639d6d0f1c06d1b46c7ac857c13e7a1e2bfb73dcaf9f23d983678362a",
        "e5bef01528643267e6fb7913dbea27bbc193f332d25fda47354e65102aee4770",
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
GOLDEN_SWEEP = "4e418a9a426f92a87523a17497cbeb5699511b515fafccaa9ea205f860a36cb3"


# the JSON `ddiqkd analyze --out` writes for each scenario's transcript
GOLDEN_ANALYZE = {
    ("blinding_symmetric", 2000): "6f5c0768c39f520940f513580dd2dc20dec1434937deb3a416ddbe92bf6a56a8",
    ("blinding_symmetric", 23456): "e5360956bce1019a1b76ec48cc985c49e095c81e218fd514dd1275accb195451",
    ("blinding_tailored", 2000): "1a6c70ca70f8e1e0670fb528f48d71e3dd8fc49e07bc25f91c9a5cb7a0aa3bd3",
    ("blinding_tailored", 23456): "f75df30ce1168dc9ff842abef6546600085524e1a1871e0d78cb22fd4d4d6dd7",
    ("covert_keyed", 2000): "f002b19b65af66dad61d1fa6270e934d376461893f8be169e3670f508e5bd2aa",
    ("covert_keyed", 23456): "aa12dc9e782ed6c21189996d18240f61823c0720b94f0e6e12502ba0c7e9c354",
    ("covert_unkeyed_biased", 2000): "1a62ee2b22f50e011c44c089a400fcbd536c195e2dca4fac30f9410d3c4cc440",
    ("covert_unkeyed_biased", 23456): "6aa2a5de9c42c6e60414acf6b773aee1491fcc6f38163fd1bbcf260d67188cd8",
    ("honest", 2000): "c5b35590c2c51b6956d36f9fc033a3bfd29f3477c3283c78c41117370fdb7902",
    ("honest", 23456): "33f05a04a151e08d514bbc9b89914c1f51a2e62c5156db3cf403d255b51c1929",
    ("intercept_resend", 2000): "073bcc3baef5abf855040eb7bbf3b6369b107327e46736666d49ce72f6652842",
    ("intercept_resend", 23456): "a004e15ab98ab8173b4f80952121a0493107320545b2151be16b058b358864d2",
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
