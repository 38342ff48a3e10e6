"""Command-line interface: subcommands, config handling, exit codes,
artifact layout."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrgames
from qrgames.cli import (
    CONFIG_SCHEMAS,
    SWEEP_MAX_ROWS,
    VERIFY_CONFIG_SCHEMA,
    _arange_size,
    _validate,
    main,
)
from qrgames.games import SQRT3, SteeringGameSpec, qrs_payoff_exact, single_axis_ensemble
from qrgames.serialize import density_to_json, strategy_to_json
from qrgames.strategies import CommCheat, NoStateCheat, best_estimator

from random_draws import random_lhs_strategy


def _run_summary(tmp_path):
    return json.loads((tmp_path / "summary.json").read_text())


def test_run_writes_artifacts(tmp_path, capsys):
    code = main([
        "run", "--strategy", "honest", "--werner", "0.98", "--r", "1.081",
        "--rounds", "2000", "--seed", "7", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = _run_summary(tmp_path)
    assert summary["rounds"] == 2000
    assert summary["seed"] == 7
    target = 3 * 0.98 - 1.081 * SQRT3
    assert abs(summary["mean"] - target) < 5 * summary["std_error"]
    with open(tmp_path / "transcript.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2001
    assert rows[0] == ["round", "j", "s", "a", "b", "payoff"]
    assert "mean" in capsys.readouterr().out


def test_run_can_skip_the_transcript(tmp_path):
    code = main([
        "run", "--strategy", "cheat-nostate", "--rounds", "500",
        "--no-transcript", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "summary.json").exists()
    assert not (tmp_path / "transcript.csv").exists()


def test_run_without_a_transcript_removes_a_stale_one(tmp_path):
    common = ["run", "--strategy", "cheat-nostate", "--out", str(tmp_path)]
    assert main(common + ["--rounds", "50"]) == 0
    assert (tmp_path / "transcript.csv").exists()
    assert main(common + ["--rounds", "20", "--no-transcript"]) == 0
    assert sorted(os.listdir(tmp_path)) == ["summary.json"]
    assert _run_summary(tmp_path)["rounds"] == 20


def test_run_bytes_are_pinned_at_six_digit_rounds(tmp_path):
    # sha256 of the artifacts the one-f-string-per-round writer produced;
    # rounds 100000..199999 have six-digit indices
    code = main([
        "run", "--strategy", "honest", "--werner", "0.98", "--r", "1.081",
        "--rounds", "200000", "--seed", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("transcript.csv", "summary.json")
    }
    assert digests == {
        "transcript.csv": "608f1437b46f6ebb3d659a6944d56a4fc2e9e4499d73895280eae66cacbb13eb",
        "summary.json": "82abc47df0c5031d3e815002909f4f274dd933cf77aafb1699c4068857f09fc1",
    }


def test_run_records_the_signals_a_sloppy_referee_sent(tmp_path):
    """--preparation single_axis shows in game.signal_ensemble, nowhere else."""
    code = main([
        "run", "--strategy", "cheat-nostate", "--preparation", "single_axis",
        "--rounds", "2000", "--seed", "5", "--out", str(tmp_path),
    ])
    assert code == 0
    config = _run_summary(tmp_path)["config"]
    assert "preparation" not in config
    sent = {f"{j},{s}": density_to_json(st) for (j, s), st in single_axis_ensemble().items()}
    assert config["game"]["signal_ensemble"] == sent
    # pinned when the states came from a run-config override of the
    # spec; the states sent, and so the transcript, are the same
    digest = hashlib.sha256((tmp_path / "transcript.csv").read_bytes()).hexdigest()
    assert digest == "748373d9ea85791d27cc3b7a9d790ab532a64551dee5a22e0e66e09beaad0802"


def test_run_exit_codes_for_bad_requests(tmp_path):
    # honest play needs a shared state
    assert main(["run", "--strategy", "honest", "--out", str(tmp_path)]) == 2
    # the no-state cheat must not be handed one
    assert main([
        "run", "--strategy", "cheat-nostate", "--werner", "0.9",
        "--out", str(tmp_path),
    ]) == 2
    assert main(["run", "--strategy", "warp-drive", "--out", str(tmp_path)]) == 2
    assert main([
        "run", "--strategy", "honest", "--werner", "0.9", "--r", "0.5",
        "--out", str(tmp_path),
    ]) == 2


@pytest.mark.parametrize("flag", [["--r", "nan"], ["--r", "inf"], ["--payoff-bound", "nan"]])
def test_run_rejects_non_finite_parameters(tmp_path, flag):
    code = main([
        "run", "--strategy", "honest", "--werner", "0.9", "--rounds", "100",
        *flag, "--out", str(tmp_path),
    ])
    assert code == 2
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("r", ["1e160", "1e300"])
def test_run_rejects_a_penalty_whose_variance_overflows(tmp_path, r):
    # each round's payoff is finite, but its square in the variance is not
    code = main([
        "run", "--strategy", "honest", "--werner", "0.9", "--r", r,
        "--rounds", "1000", "--no-transcript", "--out", str(tmp_path),
    ])
    assert code == 2
    assert not (tmp_path / "summary.json").exists()


def test_run_accepts_a_large_penalty_with_a_finite_variance(tmp_path):
    code = main([
        "run", "--strategy", "honest", "--werner", "0.9", "--r", "1e150",
        "--rounds", "1000", "--no-transcript", "--out", str(tmp_path),
    ])
    assert code == 0
    assert np.isfinite(_run_summary(tmp_path)["std_error"])


def test_run_accepts_a_strategy_file(tmp_path):
    blob = strategy_to_json(NoStateCheat(best_estimator(), "constant"))
    path = tmp_path / "cheat.json"
    path.write_text(json.dumps(blob))
    code = main([
        "run", "--strategy", str(path), "--rounds", "400", "--seed", "1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert _run_summary(tmp_path)["config"]["strategy"]["type"] == "no_state_cheat"


@pytest.mark.parametrize("field, index", [("weights", (0,)), ("alice_responses", (1, 2))])
def test_run_rejects_a_nan_in_a_hidden_state_document(tmp_path, capsys, field, index):
    doc = strategy_to_json(random_lhs_strategy(np.random.default_rng(3), 2, 2))
    entry = doc[field]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = float("nan")
    path = tmp_path / "lhs.json"
    path.write_text(json.dumps(doc))  # writes the bare token NaN
    code = main(["run", "--strategy", str(path), "--rounds", "100", "--out", str(tmp_path)])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "strategy, communication",
    [("cheat-comm-ab", "alice_to_bob"), ("cheat-comm-ba", "bob_to_alice"), ("honest", None)],
)
def test_run_echoes_the_channel_its_strategy_declares(tmp_path, strategy, communication):
    werner = ["--werner", "0.9"] if strategy == "honest" else []
    code = main([
        "run", "--strategy", strategy, *werner, "--rounds", "100", "--no-transcript",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert _run_summary(tmp_path)["config"]["communication"] == communication


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("missing.json", None, "cannot read strategy file"),
        ("broken.json", "{nope", "strategy file is not valid JSON"),
        ("gravity.json", '{"type": "gravity"}', "is not valid under any of the given schemas"),
    ],
)
def test_run_rejects_bad_strategy_files(tmp_path, capsys, name, text, message):
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code = main(["run", "--strategy", str(path), "--out", str(tmp_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_run_channel_flag(tmp_path):
    code = main([
        "run", "--strategy", "honest", "--werner", "0.9",
        "--channel", '{"kind": "depolarizing", "parameter": 0.3}',
        "--rounds", "20000", "--seed", "2", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = _run_summary(tmp_path)
    target = 3 * 0.9 * (1 - 0.3) - SQRT3  # depolarized honest closed form
    assert abs(summary["mean"] - target) < 5 * summary["std_error"]
    assert summary["config"]["channel"] is not None


def test_run_rejects_bad_channel_specs(tmp_path):
    base = ["run", "--strategy", "honest", "--werner", "0.9", "--out", str(tmp_path)]
    assert main(base + ["--channel", "not json"]) == 2
    assert main(base + ["--channel", '{"kind": "gravity", "parameter": 0.1}']) == 2
    assert main(base + ["--channel", '{"kind": "depolarizing", "parameter": 2.0}']) == 2


@pytest.mark.parametrize("source", ["flag", "config"])
def test_run_rejects_a_parameter_on_the_identity_channel(tmp_path, capsys, source):
    # the identity channel has no parameter; one would be dropped unrecorded
    channel = {"kind": "identity", "parameter": 0.5}
    argv = ["run", "--strategy", "honest", "--werner", "0.9", "--rounds", "50"]
    if source == "flag":
        argv += ["--channel", json.dumps(channel)]
    else:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"channel": channel}))
        argv += ["--config", str(cfg)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "channel kind 'identity' takes no 'parameter'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()
    # without the parameter the identity channel runs
    del channel["parameter"]
    if source == "flag":
        argv[-1] = json.dumps(channel)
    else:
        cfg.write_text(json.dumps({"channel": channel}))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.json").exists()


def test_run_config_file_with_flag_overrides(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "strategy": "honest", "werner": 0.9, "rounds": 50, "seed": 3,
    }))
    code = main([
        "run", "--config", str(cfg), "--rounds", "80", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = _run_summary(tmp_path)
    assert summary["rounds"] == 80  # flag wins
    assert summary["seed"] == 3     # config survives where no flag is given


def test_run_rejects_malformed_configs(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text(json.dumps({"strategy": "honest", "rounds": "many"}))
    assert main(["run", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize(
    "key, value",
    [
        ("rounds", "0"),
        ("seed", "18446744073709551616"),
        ("werner", "1.5"),
        ("r", "0.5"),
        ("payoff_bound", "0"),
    ],
)
def test_run_checks_flags_against_its_schema(tmp_path, capsys, key, value):
    # a bad flag and the same value from a config file name the same key
    strategy = ["--strategy", "honest" if key == "werner" else "cheat-nostate"]
    flag = ["--" + key.replace("_", "-"), value]
    assert main(["run", *strategy, *flag, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: run flags rejected by schema at $.{key}:"), err
    assert err.count("\n") == 1, err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({key: json.loads(value)}))
    assert main(["run", *strategy, "--config", str(config), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file rejected by schema at $.{key}:"), err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--r", "preparation-quality parameter r must be finite and >= 1, got nan"),
        ("--payoff-bound", "payoff bound must be finite and positive, got nan"),
    ],
)
def test_run_leaves_a_nan_flag_to_the_spec(tmp_path, capsys, flag, message):
    # no schema bound rejects NaN; the game spec's own check names it
    argv = ["run", "--strategy", "cheat-nostate", flag, "nan", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "summary.json").exists()


def _defaults(command: str) -> dict:
    properties = CONFIG_SCHEMAS[command]["properties"]
    return {key: sub["default"] for key, sub in properties.items() if "default" in sub}


def test_run_without_setting_flags_uses_the_published_defaults(tmp_path):
    assert main(["run", "--strategy", "cheat-nostate", "--out", str(tmp_path)]) == 0
    summary = _run_summary(tmp_path)
    config, defaults = summary["config"], _defaults("run")
    assert summary["rounds"] == config["rounds"] == defaults["rounds"]
    assert config["rng_seed"] == defaults["seed"]
    assert config["game"]["r"] == defaults["r"]
    assert config["game"]["payoff_bound"] == defaults["payoff_bound"]
    assert config["keep_transcript"] is defaults["keep_transcript"]


@pytest.fixture
def quick_verify_args():
    return ["--lhs-trials", "15", "--grid-resolution", "12", "--scan-step", "0.02"]


def test_verify_passes_on_defaults(tmp_path, capsys, quick_verify_args):
    code = main(["verify", *quick_verify_args, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True
    names = set(report["checks"])
    assert names == {
        "chsh_enumeration", "cheat_certificates", "hidden_state_suite",
        "channel_equivalence", "threshold_scan",
    }
    assert all(c["passed"] for c in report["checks"].values())
    on_disk = json.loads((tmp_path / "verify_report.json").read_text())
    assert on_disk == report


def test_verify_flags_a_weakened_penalty(capsys, quick_verify_args):
    code = main(["verify", "--payoff-bound", "1.5", *quick_verify_args])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    cert = report["checks"]["cheat_certificates"]
    assert not cert["passed"]
    assert cert["no_state"]["max_payoff"] == pytest.approx(2 * SQRT3 - 3, abs=1e-12)
    assert 4 * max(cert["lambda_max"], 0.0) == pytest.approx(4 * SQRT3 - 6, abs=1e-12)
    assert not report["checks"]["hidden_state_suite"]["passed"]


def test_verify_flags_a_single_axis_referee(capsys, quick_verify_args):
    code = main(["verify", "--preparation", "single_axis", *quick_verify_args])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["checks"]["cheat_certificates"]["passed"]
    # no check is ever skipped: the hidden-state suite runs under any referee
    assert all("skipped" not in check for check in report["checks"].values())
    suite = report["checks"]["hidden_state_suite"]
    assert (suite["trials"], suite["probes"]) == (15, 5)
    assert suite["passed"] is False
    # only the probe steering along sigma_1 wins, and it pays the certificate
    [failure] = suite["failures"]
    assert failure["label"] == "probe-1"
    assert failure["payoff"] == pytest.approx(6 - 2 * SQRT3, abs=1e-12)


def test_verify_rejects_bad_scan_step(tmp_path, capsys):
    # the schema rejects a step of 0 before the grid size divides by it
    for step in ("0.5", "0", "-0.1", "nan"):
        assert main(["verify", "--scan-step", step, "--out", str(tmp_path)]) == 2, step
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        if step != "nan":
            assert "at $.scan_step:" in err, err
        assert not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("step", ["0.06", "0.007"])
def test_verify_scans_steps_that_do_not_divide_one(tmp_path, capsys, monkeypatch, step):
    # np.arange(0, 1 + step/2, step) ends at 1.02 and 1.001 for these steps,
    # which werner_state rejects; the scan stops at the last W <= 1 instead
    scanned = []
    werner_columns = qrgames.oracle.werner_columns

    def recorded(w_grid):
        scanned.extend(w_grid)
        return werner_columns(w_grid)

    monkeypatch.setattr(qrgames.oracle, "werner_columns", recorded)
    code = main([
        "verify", "--scan-step", step, "--lhs-trials", "1", "--grid-resolution", "10",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert 1.0 - float(step) < scanned[-1] <= 1.0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    scan = report["checks"]["threshold_scan"]
    assert scan["passed"] is True
    assert all(c["passed"] and c["crossing"] is not None for c in scan["crossings"].values())


@pytest.mark.parametrize("flags", [
    ["--grid-resolution", "5"],
    ["--seed", "-3"],
    ["--lhs-trials", "-1"],
], ids=["grid-resolution-5", "seed-minus-3", "lhs-trials-minus-1"])
def test_verify_flags_obey_the_config_schema(tmp_path, capsys, flags):
    # flags are held to the bounds VERIFY_CONFIG_SCHEMA sets for config files
    assert main(["verify", *flags, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("key, cap", [("lhs_trials", 10_000), ("grid_resolution", 64)])
def test_verify_rejects_sizes_above_their_cap(tmp_path, capsys, key, cap):
    _validate({key: cap}, VERIFY_CONFIG_SCHEMA, "verify flags")  # the cap itself passes
    # refused before anything is allocated: as a flag and in a config file
    flag = "--" + key.replace("_", "-")
    assert main(["verify", flag, str(cap + 1), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert f"{cap + 1} is greater than the maximum of {cap}" in err
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({key: cap + 1}))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("flag", ["--r", "--payoff-bound"])
def test_verify_rejects_payoffs_that_overflow(tmp_path, capsys, flag):
    # 24 (1 + c) bounds every value the certificates form; it must stay finite
    assert main(["verify", flag, "1e308", "--out", str(tmp_path)]) == 2
    assert "payoffs overflow a float" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_verify_accepts_a_large_penalty_with_finite_payoffs(tmp_path, quick_verify_args):
    assert main(["verify", "--r", "1e300", *quick_verify_args, "--out", str(tmp_path)]) != 2
    assert (tmp_path / "verify_report.json").exists()


@pytest.mark.parametrize("r", ["1e5", "1e300"])
def test_verify_passes_at_large_penalties(tmp_path, r):
    # the two hidden-state routes agree to rounding of the penalty term 2c,
    # which an absolute 1e-10 bound stopped admitting near r = 1e5
    assert main([
        "verify", "--r", r, "--lhs-trials", "30", "--grid-resolution", "10",
        "--scan-step", "0.1", "--out", str(tmp_path),
    ]) == 0
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["checks"]["hidden_state_suite"]["failures"] == []


@pytest.mark.parametrize(
    "argv",
    [["sweep", "--w-step", "1e-300"], ["verify", "--scan-step", "1e-300"]],
    ids=["sweep", "verify"],
)
def test_grid_cap_error_line_stays_short(tmp_path, capsys, argv):
    # a 1e300-row request prints its size in three digits, not three hundred
    assert main([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"exceeds {SWEEP_MAX_ROWS} rows" in err
    assert "1e+300" in err
    assert err.count("\n") == 1 and len(err) < 80


def test_sweep_writes_table_and_sidecar(tmp_path):
    code = main([
        "sweep", "--w-start", "0", "--w-stop", "1", "--w-step", "0.25",
        "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for row in rows:
        w = float(row["w"])
        assert float(row["r"]) == 1.0
        assert float(row["witness2"]) == pytest.approx(2 * w, abs=1e-12)
        assert float(row["qrs_payoff"]) == pytest.approx(3 * w - SQRT3, abs=1e-12)
    sidecar = json.loads((tmp_path / "sweep_config.json").read_text())
    assert sidecar["w_step"] == 0.25


def test_sweep_over_r_values(tmp_path):
    code = main([
        "sweep", "--w-start", "0.5", "--w-stop", "0.5", "--w-step", "0.1",
        "--r-start", "1.0", "--r-stop", "1.2", "--r-step", "0.1",
        "--out", str(tmp_path),
    ])
    assert code == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["r"]) for r in rows] == pytest.approx([1.0, 1.1, 1.2])
    for row in rows:
        want = 3 * 0.5 - float(row["r"]) * SQRT3
        assert float(row["qrs_payoff"]) == pytest.approx(want, abs=1e-12)


def test_sweep_bytes_are_pinned(tmp_path):
    # sha256 of the table the np.kron-based exact engine wrote; any change
    # in the engine's arithmetic shows up here
    code = main([
        "sweep", "--w-start", "0", "--w-stop", "1", "--w-step", "0.1",
        "--r-start", "1.0", "--r-stop", "1.05", "--r-step", "0.01",
        "--out", str(tmp_path),
    ])
    assert code == 0
    digest = hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
    assert digest == "8f0dbaf1a0a2aefcf3224ad66d18d04c706e1819b908593764a7c2dbfc909381"


def _redump_digest(report: dict) -> str:
    """sha256 of a report dumped as ``verify`` writes it."""
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "flags, code, digest, rest, former",
    [
        (
            ["--seed", "1"],
            0,
            "fb4ed936b35fac48a7e1a670973ff89a5f483920a2615d7cfce80f89cd4ed413",
            "5f22d1c8ad8f9fc5212004d9b8ee05257bcc9e75726dee407b935503bfc31d55",
            "8d9058a8aaf79d4fb21d1801b224f865430fc5c396f3b40703ad5794c0d9cb92",
        ),
        (
            ["--seed", "7", "--preparation", "single_axis"],
            1,
            "493a68c0910a29a2d2e7f737d62b5024d9cf39461ccfea6addafe844dde23dde",
            "442853b0847a749b3f36aca316ad4b897f889baf63e068c8574476e6c75a1555",
            "64a9382318cd0a4f6e48ca3830dde59f5591a615a7c2111d3007b16f0e7487c2",
        ),
        (
            ["--payoff-bound", "1.5"],
            1,
            "00ac632a2c97d2af516c4061ebd6c112fe74a35d26f32e2c565978b055c16e13",
            "f5314f376d617897407f43d942a5b1bdf1209042a2820026ebaa0a6d57803910",
            "d18aa3d9d2f1654e224b5d49f1f2ee177c41a459ca444d29453417b2485646d0",
        ),
    ],
    ids=["seed-1", "seed-7-single-axis", "payoff-bound-1.5"],
)
def test_verify_report_bytes_are_pinned(tmp_path, flags, code, digest, rest, former):
    assert main(["verify", *flags, "--out", str(tmp_path)]) == code
    report = (tmp_path / "verify_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest
    # less lambda_max, each report re-dumps to the bytes that the report of
    # the Bob-to-Alice certificate (fields bob_to_alice, rule) re-dumps to
    # less that certificate: no other bit moved
    loaded = json.loads(report)
    del loaded["checks"]["cheat_certificates"]["lambda_max"]
    assert _redump_digest(loaded) == rest
    # less also the hidden-state suite (200 trials by default before) and the
    # channel deviations (20 random states before, the basis now), each report
    # re-dumps to the bytes the earlier reports pinned as 6830293d...,
    # 795a3884... and b4af5d4f... re-dump to
    del loaded["checks"]["hidden_state_suite"]
    del loaded["config"]["lhs_trials"]
    for channel in loaded["checks"]["channel_equivalence"]["channels"].values():
        del channel["max_deviation"]
    assert _redump_digest(loaded) == former


def test_verify_opt_in_trials_are_the_former_default_draws(tmp_path):
    # --lhs-trials 200 was the default: less lambda_max the report re-dumps to
    # the bytes that the Bob-to-Alice certificate's report re-dumps to less
    # that certificate, and less also the channel deviations to the bytes that
    # the former default report, pinned as 6830293d..., re-dumps to
    assert main(["verify", "--seed", "1", "--lhs-trials", "200", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "verify_report.json").read_bytes()
    digest = hashlib.sha256(report).hexdigest()
    assert digest == "8ce470cb962d5a20d8e4009b708a0a48bb1f601536ab93c41a495f4866b6f694"
    loaded = json.loads(report)
    assert loaded["checks"]["hidden_state_suite"]["trials"] == 200
    del loaded["checks"]["cheat_certificates"]["lambda_max"]
    assert _redump_digest(loaded) == (
        "efe50983942b884f79eabc87fc18fddcb03a4d19c0e1e1f7b27b1c84293423bf"
    )
    for channel in loaded["checks"]["channel_equivalence"]["channels"].values():
        del channel["max_deviation"]
    assert _redump_digest(loaded) == (
        "79a1660e1366e53caedb7c939fe79c8b070b7c796ba5e015dbeb026562b5dbb1"
    )


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--r", "1.081"],
        ["--r", "1e5"],
        ["--payoff-bound", "1.5"],
        ["--payoff-bound", repr(SQRT3 - 1e-6)],
        ["--preparation", "single_axis"],
    ],
    ids=["ideal", "r-1.081", "r-1e5", "payoff-bound-1.5", "payoff-bound-below-sqrt3",
         "single-axis"],
)
def test_verify_verdicts_do_not_depend_on_the_random_trials(capsys, flags):
    # the certificate bounds every hidden-state model, so 200 random models
    # change neither the exit code nor any check's verdict
    verdicts = []
    for trials in ("0", "200"):
        code = main(["verify", *flags, "--lhs-trials", trials, "--scan-step", "0.05"])
        checks = json.loads(capsys.readouterr().out)["checks"]
        verdicts.append((code, {name: check["passed"] for name, check in checks.items()}))
    assert verdicts[0] == verdicts[1]


@pytest.mark.parametrize("r", ["1644980.7043718076", "57464349.68715974"])
def test_verify_passes_where_the_trace_difference_rounded_above_the_bound(tmp_path, r):
    # a Bob-to-Alice value computed as Tr Z_2 + Tr[(-Z_2)_+] read 1.9e-9 and
    # 6.0e-8 here: two terms of about -6c and +6c that cancel only to one ulp
    # of 6c.  lambda* forms no difference of traces
    assert main(["verify", "--r", r, "--scan-step", "0.1", "--out", str(tmp_path)]) == 0
    cert = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
    assert 4 * max(cert["cheat_certificates"]["lambda_max"], 0.0) <= 0.0


def test_verify_applies_the_payoff_tolerance_to_the_bound_on_every_cheat(tmp_path):
    # lambda* = 3e-10: the best no-state cheat pays 6e-10, inside the 1e-9
    # tolerance, but a Bob-to-Alice cheat pays 4 lambda* = 1.2e-9 and wins
    bound = SQRT3 - 3e-10
    argv = ["verify", "--payoff-bound", repr(bound), "--scan-step", "0.1"]
    assert main([*argv, "--out", str(tmp_path)]) == 1
    cert = json.loads((tmp_path / "verify_report.json").read_text())["checks"]
    cert = cert["cheat_certificates"]
    assert not cert["passed"]
    assert cert["no_state"]["max_payoff"] <= 1e-9 < 4 * cert["lambda_max"]
    spec = SteeringGameSpec.ideal(payoff_bound=bound)
    comm = CommCheat("bob_to_alice", best_estimator(), (1, -1), "follow_estimate")
    assert qrs_payoff_exact(spec, comm) > 1e-9


def test_verify_without_setting_flags_uses_the_published_defaults(capsys):
    assert main(["verify"]) == 0
    assert json.loads(capsys.readouterr().out)["config"] == _defaults("verify")


def test_verify_grid_resolution_is_accepted_and_unused(tmp_path, capsys):
    # the flag and config key stay valid for existing callers, echoed in config
    reports = []
    for res in ("10", "64"):
        argv = ["verify", "--grid-resolution", res, "--lhs-trials", "3", "--scan-step", "0.1"]
        assert main(argv) == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [r["config"].pop("grid_resolution") for r in reports] == [10, 64]
    assert reports[0] == reports[1]


def test_verify_rejects_a_scan_grid_over_the_row_cap(tmp_path, capsys):
    # sized arithmetically: this step would ask np.arange for about 1e9 W values
    assert main(["verify", "--scan-step", "1e-9", "--out", str(tmp_path)]) == 2
    assert f"exceeds {SWEEP_MAX_ROWS} rows" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_arange_size_is_the_length_np_arange_builds():
    """The grid size is counted without building the grid, and must be the
    length np.arange(a, b + s/2, s) has, as sweep and verify build it."""
    rng = np.random.default_rng(6)
    n = 20_000
    triples = np.column_stack(
        [rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n), 10.0 ** rng.uniform(-4.0, 0.0, n)]
    ).tolist()
    # steps that do not divide the range, stop below start, one point
    triples += [
        (0.0, 1.0, 0.3), (0.0, 1.0, 0.06), (0.0, 1.0, 0.007), (-1.0 / 3.0, 1.0, 0.01),
        (1.0, 0.0, 0.1), (0.5, 0.4, 0.3), (2.0, -2.0, 1e-4), (0.5, 0.5, 0.1),
    ]
    for a, b, s in triples:
        stop = b + 0.5 * s
        assert _arange_size(a, stop, s) == np.arange(a, stop, s).size, (a, b, s)


def test_sweep_rejects_an_empty_grid(tmp_path):
    assert main([
        "sweep", "--w-start", "0.9", "--w-stop", "0.1", "--w-step", "0.1",
        "--out", str(tmp_path),
    ]) == 2
    assert main([
        "sweep", "--w-step", "-0.1", "--out", str(tmp_path),
    ]) == 2


def test_sweep_rejects_a_grid_over_the_row_cap(tmp_path, capsys):
    # sized arithmetically: np.arange would need about 8 GB for this r grid
    code = main([
        "sweep", "--r-stop", "1e7", "--r-step", "0.01", "--out", str(tmp_path),
    ])
    assert code == 2
    assert f"exceeds {SWEEP_MAX_ROWS} rows" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "flag",
    [["--w-start", "nan"], ["--w-stop", "inf"], ["--r-stop", "inf"], ["--r-step", "nan"]],
)
def test_sweep_rejects_non_finite_bounds(tmp_path, flag):
    assert main(["sweep", *flag, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "key, value",
    [("w_step", "0"), ("r_step", "-0.01"), ("r_start", "0.5"), ("r_stop", "0.5")],
)
def test_sweep_checks_flags_against_its_schema(tmp_path, capsys, key, value):
    # a bad flag and the same value from a config file name the same key; a
    # bad --r-start alone is named, not the r_stop filled from it
    argv = ["sweep", "--" + key.replace("_", "-"), value, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: sweep flags rejected by schema at $.{key}:"), err
    assert err.count("\n") == 1, err
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({key: float(value)}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert f"config file rejected by schema at $.{key}:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_without_setting_flags_uses_the_published_defaults(tmp_path):
    assert main(["sweep", "--out", str(tmp_path)]) == 0
    sidecar = json.loads((tmp_path / "sweep_config.json").read_text())
    defaults = _defaults("sweep")
    assert "r_stop" not in defaults
    assert sidecar == {**defaults, "r_stop": defaults["r_start"], "n_w": 101, "n_r": 1}


@pytest.mark.parametrize("r", ["1e14", "1e300"])
def test_sweep_at_one_large_r_is_a_one_value_grid(tmp_path, r):
    # r_step / 2 is below the spacing of doubles near r, so r_stop + r_step / 2
    # rounds back to r and np.arange alone would build no r value
    assert main(["sweep", "--r-start", r, "--w-step", "0.25", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(row["r"]) for row in rows] == [float(r)] * 5
    sidecar = json.loads((tmp_path / "sweep_config.json").read_text())
    assert (sidecar["r_stop"], sidecar["n_w"], sidecar["n_r"]) == (float(r), 5, 1)


def test_schema_prints_machine_readable_json(capsys):
    assert main(["schema"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob["config"]) == {"run", "verify", "sweep"}
    assert blob["strategy"]["$schema"].startswith("http://json-schema.org/")
    # the bound RunConfig enforces on rng_seed
    assert blob["config"]["run"]["properties"]["seed"]["maximum"] == 2**64 - 1


def test_schema_bytes_are_pinned(capsys):
    # sha256 of the published schemas; printing them needs no validator
    assert main(["schema"]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "cadd04f51f0e32b853cafa8f82c848711abd1a3f018cd26bccd254414d54c236"
    # less every default and the descriptions that were flag help texts, the
    # bytes are those printed while each default was written in the code
    schemas = json.loads(out)
    for schema in schemas["config"].values():
        for sub in schema["properties"].values():
            sub.pop("default", None)
    for command, key in [
        ("run", "werner"), ("run", "r"), ("verify", "lhs_trials"), ("verify", "grid_resolution"),
    ]:
        del schemas["config"][command]["properties"][key]["description"]
    rest = (json.dumps(schemas, indent=2, sort_keys=True) + "\n").encode()
    digest = hashlib.sha256(rest).hexdigest()
    assert digest == "4ddf4a8b2e64d70f05c85fac5dd0c549fc3460edca5af441f219357bcacf80e4"
    # with lhs_trials' minimum back at 1, the bytes are those printed while
    # verify ran 200 random hidden-state models by default
    verify = schemas["config"]["verify"]["properties"]
    assert verify["lhs_trials"]["minimum"] == 0
    verify["lhs_trials"]["minimum"] = 1
    old = (json.dumps(schemas, indent=2, sort_keys=True) + "\n").encode()
    digest = hashlib.sha256(old).hexdigest()
    assert digest == "9d2e4c22b3324e324ef1e27eb10ff93276649123bc36698dcea8d57d42979d02"
    # less the caps on verify's lhs_trials and grid_resolution, the bytes
    # are those printed before the caps were added
    del verify["lhs_trials"]["maximum"]
    del verify["grid_resolution"]["maximum"]
    uncapped = (json.dumps(schemas, indent=2, sort_keys=True) + "\n").encode()
    digest = hashlib.sha256(uncapped).hexdigest()
    assert digest == "fee86b00501e8f9782844441ceb9b142bb2b34a66d2e6f9dc7f4da061f27e3a6"


def test_run_config_seed_above_the_published_bound(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"strategy": "cheat-nostate", "seed": 2**64}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "config file rejected by schema" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


def test_usage_errors_exit_with_two():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_module_entry_point_runs():
    # the child imports the same qrgames package this test imported
    src = str(Path(qrgames.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qrgames.cli", "schema"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    json.loads(proc.stdout)
