import csv
import hashlib
import io
import json
import os
import signal
import sys
import time

import pytest

from ddiqkd import cli
from ddiqkd.analysis import MonitorStats
from ddiqkd.cli import _build_parser, main, read_public_view
from ddiqkd.config import parse_config
from ddiqkd.covert import thinning_acceptance
from ddiqkd.errors import InfeasibleRateError, ValidationError
from ddiqkd.protocol import run_session
from test_golden import GOLDEN_SWEEP, SWEEP_ARGS

HONEST_DOC = {
    "n_slots": 4000,
    "seed": 21,
    "channel": {"transmittance": 0.1},
    "eta_expected": 0.2,
}

COVERT_DOC = {
    "n_slots": 6000,
    "seed": 22,
    "channel": {"transmittance": 0.1},
    "eta_expected": 0.2,
    "mode": {"kind": "covert", "eta_true": 0.9, "key_seed": 9},
}


def write_doc(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, doc, out="out", extra=()):
    out_dir = tmp_path / out
    code = main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out_dir), *extra])
    return code, out_dir


def test_run_writes_transcript_and_report(tmp_path):
    code, out_dir = run_cli(tmp_path, HONEST_DOC)
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["report"]["mode"] == "honest"
    assert report["report"]["qber"] == 0.0
    assert report["seed"] == 21
    lines = (out_dir / "transcript.csv").read_text().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any("format" in l for l in meta)
    assert len(lines) - len(meta) - 1 == HONEST_DOC["n_slots"]  # header + one row per slot


def test_run_byte_identical_reruns(tmp_path):
    _, out_a = run_cli(tmp_path, COVERT_DOC, out="a")
    _, out_b = run_cli(tmp_path, COVERT_DOC, out="b")
    assert (out_a / "transcript.csv").read_bytes() == (out_b / "transcript.csv").read_bytes()
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_run_seed_flag_changes_output(tmp_path):
    _, out_a = run_cli(tmp_path, COVERT_DOC, out="a")
    _, out_b = run_cli(tmp_path, COVERT_DOC, out="b", extra=("--seed", "777"))
    assert json.loads((out_b / "report.json").read_text())["seed"] == 777
    assert (out_a / "transcript.csv").read_bytes() != (out_b / "transcript.csv").read_bytes()


def test_run_usage_and_config_errors_exit_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()
    # the upper bound is the transcript reader's; it is checked when the
    # config is parsed, before any column is allocated
    for n_slots in (-5, 10**20, 2**63):
        bad = write_doc(tmp_path, {"n_slots": n_slots}, "bad.json")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: config: n_slots must be >= 1 and < 2**63")


def test_one_process_matches_fresh_calls(tmp_path, capsys):
    # run, a usage error, analyze and run again in one process share one
    # parser; each must exit, print and write as a call with a fresh parser
    config = write_doc(tmp_path, HONEST_DOC)
    out = tmp_path / "out"
    calls = [
        ["run", "--config", config, "--out", str(out)],
        ["run", "--config", config],
        ["analyze", "--transcript", str(out / "transcript.csv")],
        ["run", "--config", config, "--out", str(out)],
    ]

    def call(argv):
        code = main(argv)
        files = {f: (out / f).read_bytes() for f in ("transcript.csv", "report.json")}
        return code, capsys.readouterr(), files

    _build_parser.cache_clear()
    shared = [call(argv) for argv in calls]
    assert _build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(call(argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 1, 0, 0]
    assert "required: --out" in shared[1][1].err


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert main(["run", "--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_infeasible_covert_exits_2(tmp_path, capsys):
    doc = dict(COVERT_DOC, eta_expected=0.5)
    code, _ = run_cli(tmp_path, doc)
    assert code == 2
    err = capsys.readouterr().err
    assert "infeasible" in err
    assert "exceeds achievable rate" in err


def test_covert_expecting_no_announcements_exits_2(tmp_path, capsys):
    # eta_expected 0 and no target rate: the receiver expects silence, so
    # no covert announcement rate is feasible
    code, _ = run_cli(tmp_path, dict(COVERT_DOC, eta_expected=0.0))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("infeasible: ")
    assert "expects no announcements" in err


def test_sweep_point_expecting_no_announcements_is_infeasible(tmp_path):
    base = write_doc(tmp_path, dict(COVERT_DOC, n_slots=500))
    grid_path = write_doc(tmp_path, {"parameters": {"eta_expected": [0.2, 0.0]}}, "grid.json")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", base, "--grid", grid_path, "--seeds", "2", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [(row["eta_expected"], row["feasible"]) for row in rows] == [
        ("0.2", "1"), ("0.2", "1"), ("0.0", "0"), ("0.0", "0"),
    ]
    assert all(row["qber"] == "" for row in rows[2:])


def test_no_viable_blinding_plan_exits_2(tmp_path, capsys):
    doc = {
        "n_slots": 100,
        "mode": {
            "kind": "blinding", "optimize": True,
            "wavelength_grid": [1550.0], "power_grid": [0.5, 1.0, 1.5],
        },
    }
    code, _ = run_cli(tmp_path, doc)
    assert code == 2
    assert "infeasible" in capsys.readouterr().err


def test_analyze_honest_transcript_passes(tmp_path, capsys):
    _, out_dir = run_cli(tmp_path, HONEST_DOC)
    capsys.readouterr()
    code = main(["analyze", "--transcript", str(out_dir / "transcript.csv")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(v != "reject" for v in payload["detectability"]["verdicts"].values())


def test_analyze_keyed_covert_passes_all_monitors(tmp_path, capsys):
    _, out_dir = run_cli(tmp_path, COVERT_DOC)
    capsys.readouterr()
    code = main(["analyze", "--transcript", str(out_dir / "transcript.csv")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(v != "reject" for v in payload["detectability"]["verdicts"].values())


def test_analyze_unkeyed_biased_covert_flags_gap_parity(tmp_path):
    doc = dict(
        COVERT_DOC,
        bob_bit_bias=1.0,
        mode={"kind": "covert", "eta_true": 0.9, "keyed": False},
    )
    _, out_dir = run_cli(tmp_path, doc)
    out = tmp_path / "analysis.json"
    code = main(["analyze", "--transcript", str(out_dir / "transcript.csv"), "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["detectability"]["verdicts"]["gap_parity"] == "reject"


def test_analyze_empty_transcript_notes_absent_monitors(tmp_path, capsys):
    doc = dict(HONEST_DOC, n_slots=200, channel={"transmittance": 0.0}, eta_expected=0.0)
    _, out_dir = run_cli(tmp_path, doc)
    capsys.readouterr()
    code = main(["analyze", "--transcript", str(out_dir / "transcript.csv")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["detectability"]["verdicts"]["gap_parity"] == "absent"
    assert "note" in payload


def test_analyze_expected_rate_flag_overrides_metadata(tmp_path, capsys):
    _, out_dir = run_cli(tmp_path, HONEST_DOC)
    capsys.readouterr()
    code = main([
        "analyze", "--transcript", str(out_dir / "transcript.csv"),
        "--expected-rate", "0.3",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["detectability"]["verdicts"]["rate"] == "reject"  # ~0.02 observed vs 0.3 claimed
    code = main(["analyze", "--transcript", str(out_dir / "transcript.csv"), "--alpha", "0.5"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["detectability"]["alpha"] == 0.5
    code = main(["analyze", "--transcript", str(out_dir / "transcript.csv"), "--expected-rate", "1.5"])
    assert code == 1
    assert "expected_rate must be in [0,1], got 1.5" in capsys.readouterr().err


def test_analyze_flags_stand_in_for_absent_metadata(tmp_path, capsys):
    _, out_dir = run_cli(tmp_path, HONEST_DOC)
    path = out_dir / "transcript.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(l for l in lines if not l.startswith(("# alpha:", "# expected_report_rate:"))))
    capsys.readouterr()
    assert main(["analyze", "--transcript", str(path), "--alpha", "0.01"]) == 1
    assert capsys.readouterr().err == f"error: {path}: metadata lacks expected_report_rate\n"
    assert main(["analyze", "--transcript", str(path), "--expected-rate", "0.02"]) == 1
    assert capsys.readouterr().err == f"error: {path}: metadata lacks alpha\n"
    assert main(["analyze", "--transcript", str(path), "--expected-rate", "0.02", "--alpha", "0.01"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_report_rate"] == 0.02 and payload["detectability"]["alpha"] == 0.01


def refuse_json_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("doc", [
    dict(HONEST_DOC, n_slots=2000, eta_expected=0.0),
    dict(HONEST_DOC, n_slots=2000, channel={"transmittance": 1.0}, eta_expected=1.0,
         detectors={"efficiency": 0.5}),
], ids=["expected_rate_0", "expected_rate_1"])
def test_infinite_rate_z_score_is_written_as_null(tmp_path, capsys, doc):
    code, out_dir = run_cli(tmp_path, doc)
    assert code == 0
    out = tmp_path / "analysis.json"
    assert main(["analyze", "--transcript", str(out_dir / "transcript.csv"), "--out", str(out)]) == 0
    report = json.loads((out_dir / "report.json").read_text(), parse_constant=refuse_json_constant)
    analysis = json.loads(out.read_text(), parse_constant=refuse_json_constant)
    for det in (report["report"]["detectability"], analysis["detectability"]):
        assert det["rate_z_score"] is None
        assert det["verdicts"]["rate"] == "reject"
    # a sweep writes the null as a blank cell, as it does every absent monitor
    grid = write_doc(tmp_path, {"parameters": {"n_slots": [doc["n_slots"]]}}, "grid.json")
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(tmp_path / "config.json"), "--grid", grid, "--out", str(sweep)]) == 0
    with open(sweep, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["rate_z_score"], row["verdict_rate"]) == ("", "reject")


def test_analyze_malformed_row_reports_line_number(tmp_path, capsys):
    _, out_dir = run_cli(tmp_path, HONEST_DOC)
    path = out_dir / "transcript.csv"
    lines = path.read_text().splitlines()
    lines[20] = "garbage,row"
    path.write_text("\n".join(lines) + "\n")
    code = main(["analyze", "--transcript", str(path)])
    assert code == 1
    assert ":21:" in capsys.readouterr().err


def test_read_public_view_roundtrip(tmp_path):
    _, out_dir = run_cli(tmp_path, COVERT_DOC)
    stats, meta = read_public_view(str(out_dir / "transcript.csv"))
    assert stats.n_slots == COVERT_DOC["n_slots"]
    assert meta["mode"] == "covert"
    assert float(meta["expected_report_rate"]) == pytest.approx(0.02)
    transcript, _ = run_session(parse_config(COVERT_DOC))
    assert stats == MonitorStats.of(transcript.reported, transcript.reported >= 0, transcript.double_click)


def test_sweep_rows_and_determinism(tmp_path):
    grid = {"parameters": {"eta_expected": [0.1, 0.2, 0.3]}}
    grid_path = write_doc(tmp_path, grid, "grid.json")
    base = write_doc(tmp_path, dict(HONEST_DOC, n_slots=500))
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out_a, out_b):
        code = main([
            "sweep", "--config", base, "--grid", grid_path,
            "--seeds", "10", "--out", str(out),
        ])
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30
    assert {row["eta_expected"] for row in rows} == {"0.1", "0.2", "0.3"}
    assert all(row["feasible"] == "1" for row in rows)


def test_sweep_feasibility_column_matches_rate_law(tmp_path):
    base = write_doc(tmp_path, dict(COVERT_DOC, n_slots=500))
    transmittances = [0.02, 0.05, 0.1, 0.2, 0.4, 0.8]
    grid_path = write_doc(
        tmp_path, {"parameters": {"channel.transmittance": transmittances}}, "grid.json"
    )
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--config", base, "--grid", grid_path, "--seeds", "2", "--out", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    for row in rows:
        t = float(row["channel.transmittance"])
        try:
            thinning_acceptance(t * 0.9, t * 0.2)
            expected = True
        except InfeasibleRateError:
            expected = False
        assert row["feasible"] == ("1" if expected else "0"), row
        if not expected:
            assert row["qber"] == ""  # infeasible rows carry no metrics


def test_nonpositive_power_grid_entry_refused_before_any_session(tmp_path, capsys):
    blinding = {"kind": "blinding", "optimize": True, "wavelength_grid": [1550.0], "power_grid": [2.0]}
    base = write_doc(tmp_path, dict(HONEST_DOC, mode=blinding))
    grid = write_doc(tmp_path, {"parameters": {"mode.power_grid": [[2.0], [0.0]]}}, "grid.json")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", base, "--grid", grid, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: mode: ")
    assert not out.exists()
    bad = write_doc(tmp_path, dict(HONEST_DOC, mode=dict(blinding, power_grid=[2.0, -1.0])), "bad.json")
    assert main(["run", "--config", bad, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: mode: ")
    assert not (tmp_path / "run").exists()


def test_sweep_bad_grid_exits_1(tmp_path, capsys):
    base = write_doc(tmp_path, HONEST_DOC)
    bad = write_doc(tmp_path, {"parameters": {}}, "bad_grid.json")
    assert main(["sweep", "--config", base, "--grid", bad, "--out", str(tmp_path / "s.csv")]) == 1
    bad2 = write_doc(tmp_path, {"parameters": {"eta_expected": []}}, "bad_grid2.json")
    assert main(["sweep", "--config", base, "--grid", bad2, "--out", str(tmp_path / "s.csv")]) == 1
    capsys.readouterr()
    bad3 = write_doc(tmp_path, {"parameters": {"seed": [1, 2]}}, "bad_grid3.json")
    assert main(["sweep", "--config", base, "--grid", bad3, "--out", str(tmp_path / "s.csv")]) == 1
    assert "'seed'" in capsys.readouterr().err
    bad4 = write_doc(tmp_path, {"parameters": {"mode": [{"kind": "honest"}]}}, "bad_grid4.json")
    assert main(["sweep", "--config", base, "--grid", bad4, "--out", str(tmp_path / "s.csv")]) == 1
    err = capsys.readouterr().err
    assert "'mode'" in err and "mode.kind" in err
    # a path inside another swept path: the outer value would replace the
    # inner one, so the CSV would name values no session ran
    values = {"channel.transmittance": [0.1, 0.5], "channel": [{"transmittance": 0.9}]}
    for order in (("channel.transmittance", "channel"), ("channel", "channel.transmittance")):
        overlap = write_doc(tmp_path, {"parameters": {k: values[k] for k in order}}, "overlap.json")
        assert main(["sweep", "--config", base, "--grid", overlap, "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'channel'" in err and "'channel.transmittance'" in err
    good = write_doc(tmp_path, {"parameters": {"eta_expected": [0.2]}}, "good_grid.json")
    assert main(["sweep", "--config", base, "--grid", good, "--master-seed", "-1",
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert "--master-seed" in capsys.readouterr().err
    assert main(["sweep", "--config", base, "--grid", good, "--seeds", "0",
                 "--out", str(tmp_path / "s.csv")]) == 1
    assert "--seeds must be >= 1, got 0" in capsys.readouterr().err
    listed = write_doc(tmp_path, [HONEST_DOC], "listed.json")
    assert main(["sweep", "--config", listed, "--grid", good, "--out", str(tmp_path / "s.csv")]) == 1
    assert "config root must be an object" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


def test_sweep_refuses_a_dotted_path_through_a_non_object(tmp_path, capsys):
    tailored = {
        "n_slots": 1000,
        "detectors": [{"blind_threshold": th} for th in (0.9, 1.3, 1.3, 0.9)],
        "mode": {"kind": "blinding", "optimize": True, "wavelength_grid": [1550.0],
                 "power_grid": [1.0, 1.5, 2.0, 2.5, 3.0]},
    }
    base = write_doc(tmp_path, tailored)
    grid = write_doc(tmp_path, {"parameters": {"detectors.efficiency": [0.2]}}, "grid.json")
    out = tmp_path / "s.csv"
    assert main(["sweep", "--config", base, "--grid", grid, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'detectors.efficiency'" in err and "'detectors'" in err
    assert not out.exists()
    # a missing object on the path is still created
    grid = write_doc(tmp_path, {"parameters": {"channel.transmittance": [0.5]}}, "grid2.json")
    assert main(["sweep", "--config", base, "--grid", grid, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["channel.transmittance"] == "0.5" and row["feasible"] == "1"


def test_unwritable_output_paths_exit_1(tmp_path, capsys, monkeypatch):
    calls = []
    run_session = cli.run_session

    def counted_run_session(config):
        calls.append(config)
        return run_session(config)

    monkeypatch.setattr(cli, "run_session", counted_run_session)
    config = write_doc(tmp_path, HONEST_DOC)
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    assert main(["run", "--config", config, "--out", str(occupied)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    grid = write_doc(tmp_path, {"parameters": {"eta_expected": [0.2]}}, "grid.json")
    missing = tmp_path / "missing"
    calls.clear()
    assert main(["sweep", "--config", config, "--grid", grid, "--out", str(missing / "s.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []  # the path was refused before any session ran
    code, out_dir = run_cli(tmp_path, HONEST_DOC)
    assert code == 0
    capsys.readouterr()
    transcript = str(out_dir / "transcript.csv")
    assert main(["analyze", "--transcript", transcript, "--out", str(missing / "a.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not missing.exists()


def test_refused_output_path_does_no_work(tmp_path, capsys, monkeypatch):
    calls = []
    for name in ("run_session", "read_public_view"):
        def counted(*args, name=name, original=getattr(cli, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(cli, name, counted)
    config = write_doc(tmp_path, HONEST_DOC)
    occupied = tmp_path / "occupied"
    occupied.write_text("")
    for out in (occupied, occupied / "sub"):
        assert main(["run", "--config", config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    code, out_dir = run_cli(tmp_path, HONEST_DOC)
    assert code == 0 and calls == ["run_session"]
    transcript = str(out_dir / "transcript.csv")
    calls.clear()
    for out in (tmp_path / "missing" / "a.json", out_dir):
        assert main(["analyze", "--transcript", transcript, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    # an infeasible scenario at a writable path still exits 2
    capsys.readouterr()
    infeasible = write_doc(tmp_path, dict(COVERT_DOC, eta_expected=0.5), "infeasible.json")
    calls.clear()
    assert main(["run", "--config", infeasible, "--out", str(tmp_path / "inf")]) == 2
    assert calls == ["run_session"]
    assert capsys.readouterr().err.startswith("infeasible: ")


def test_out_naming_an_input_is_refused(tmp_path, capsys):
    code, out_dir = run_cli(tmp_path, HONEST_DOC)
    assert code == 0
    transcript, config = out_dir / "transcript.csv", tmp_path / "config.json"
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"parameters": {"eta_expected": [0.2]}}))
    before = {path: path.read_bytes() for path in (transcript, config, grid)}
    capsys.readouterr()
    for argv in (
        ["analyze", "--transcript", str(transcript), "--out", str(transcript)],
        ["analyze", "--transcript", str(transcript), "--out", str(out_dir / ".." / "out" / "transcript.csv")],
        ["sweep", "--config", str(config), "--grid", str(grid), "--out", str(config)],
        ["sweep", "--config", str(config), "--grid", str(grid), "--out", str(grid)],
    ):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: --out ")
    assert {path: path.read_bytes() for path in before} == before


def test_refused_transcript_keeps_existing_analyze_output(tmp_path, capsys):
    code, out_dir = run_cli(tmp_path, HONEST_DOC)
    assert code == 0
    out = tmp_path / "analysis.json"
    out.write_text("an earlier report\n" * 5000)
    before = out.read_bytes()
    bad = tmp_path / "bad.csv"
    bad.write_text("not a transcript\n")
    for transcript in (bad, tmp_path / "absent.csv"):
        assert main(["analyze", "--transcript", str(transcript), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == before
    # an accepted transcript replaces the whole file, however long it was
    transcript = str(out_dir / "transcript.csv")
    assert main(["analyze", "--transcript", transcript, "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--transcript", transcript]) == 0
    assert out.read_text() == capsys.readouterr().out


@pytest.mark.parametrize("name", ["transcript.csv", "report.json"])
def test_run_refuses_a_config_inside_out_that_it_would_overwrite(tmp_path, capsys, name):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    config = out_dir / name
    config.write_text(json.dumps(HONEST_DOC))
    before = config.read_bytes()
    assert main(["run", "--config", str(config), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err.startswith("error: --out ")
    assert config.read_bytes() == before
    assert sorted(p.name for p in out_dir.iterdir()) == [name]


def sweep_bytes(tmp_path, argv, cpus, monkeypatch):
    out = tmp_path / f"sweep-{cpus}.csv"
    if cpus is not None:
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    assert main(["sweep", *argv, "--out", str(out)]) == 0
    monkeypatch.undo()
    return out.read_bytes()


def test_sweep_csv_is_the_same_bytes_for_any_number_of_shares(tmp_path, capsys, monkeypatch):
    base = write_doc(tmp_path, dict(COVERT_DOC, n_slots=2000))
    grid = write_doc(
        tmp_path, {"parameters": {"channel.transmittance": [0.02, 0.1, 0.8], "eta_expected": [0.2, 0.0]}},
        "grid.json",
    )
    for argv in (SWEEP_ARGS, ("--config", base, "--grid", grid, "--seeds", "3")):
        serial = sweep_bytes(tmp_path, argv, 1, monkeypatch)
        # three shares are uneven on any machine; None is this machine's CPUs
        assert all(sweep_bytes(tmp_path, argv, cpus, monkeypatch) == serial for cpus in (2, 3, None))
        if argv is SWEEP_ARGS:
            assert hashlib.sha256(serial).hexdigest() == GOLDEN_SWEEP
        else:
            feasible = [row["feasible"] for row in csv.DictReader(io.StringIO(serial.decode()))]
            assert len(feasible) == 18 and "0" in feasible and "1" in feasible


def test_sweep_jobs_is_capped_at_usable_cpus_and_sessions(monkeypatch):
    monkeypatch.setattr(sys, "version_info", (3, 11, 0))
    usable = cli._usable_cpus()
    assert 1 <= usable <= (os.cpu_count() or 1)
    assert cli._sweep_jobs(10**6) == usable
    assert cli._sweep_jobs(1) == 1
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    assert cli._sweep_jobs(10) == 10 and cli._sweep_jobs(100) == 64
    # without fork every sweep runs in this process
    monkeypatch.delattr(os, "fork")
    assert cli._sweep_jobs(10) == 1
    monkeypatch.undo()
    # from Python 3.12 on, forking a process that runs threads is deprecated
    monkeypatch.setattr(sys, "version_info", (3, 12, 0))
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    assert cli._sweep_jobs(10) == 1


# sweeps fork their workers only where _sweep_jobs lets them
forks = pytest.mark.skipif(
    not hasattr(os, "fork") or sys.version_info >= (3, 12), reason="sweeps run in-process here"
)


@pytest.fixture
def forked(monkeypatch):
    """The pids that os.fork returns to this process while the test runs,
    with two usable CPUs patched in, so that a sweep forks one worker."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    return pids


def assert_reaped(pids):
    assert pids
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def small_sweep(tmp_path):
    base = write_doc(tmp_path, dict(HONEST_DOC, n_slots=500))
    grid = write_doc(tmp_path, {"parameters": {"eta_expected": [0.1, 0.2]}}, "grid.json")
    return ["sweep", "--config", base, "--grid", grid, "--seeds", "2", "--out", str(tmp_path / "s.csv")]


def patch_sessions(monkeypatch, in_caller, in_worker):
    """Route run_session by process: the caller's sessions to in_caller,
    the forked workers' to in_worker (the workers are forked after this)."""
    caller = os.getpid()
    monkeypatch.setattr(
        cli, "run_session", lambda config: (in_caller if os.getpid() == caller else in_worker)(config)
    )


@forks
def test_sweep_reaps_its_workers(tmp_path, capsys, forked):
    assert main(small_sweep(tmp_path)) == 0
    assert len(forked) == 1
    assert_reaped(forked)


@forks
def test_worker_exception_is_raised_in_the_caller(tmp_path, capsys, monkeypatch, forked):
    def failing(config):
        raise ValidationError(f"session seed {config.seed} refused in a worker")

    patch_sessions(monkeypatch, run_session, failing)
    assert main(small_sweep(tmp_path)) == 1
    assert "refused in a worker" in capsys.readouterr().err
    assert_reaped(forked)


@forks
@pytest.mark.parametrize("death", ["exit", "kill"])
def test_worker_that_dies_is_an_error(tmp_path, capsys, monkeypatch, forked, death):
    def dying(config):
        if death == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)

    patch_sessions(monkeypatch, run_session, dying)
    assert main(small_sweep(tmp_path)) == 1
    assert capsys.readouterr().err == "error: sweep worker exited unexpectedly\n"
    assert_reaped(forked)


@forks
def test_failing_caller_share_stops_its_workers(tmp_path, capsys, monkeypatch, forked):
    def failing(config):
        raise ValidationError("refused in the caller")

    def stuck(config):
        time.sleep(60)

    patch_sessions(monkeypatch, failing, stuck)
    start = time.monotonic()
    assert main(small_sweep(tmp_path)) == 1
    # the worker was killed, not waited for
    assert time.monotonic() - start < 30
    assert "refused in the caller" in capsys.readouterr().err
    assert_reaped(forked)
