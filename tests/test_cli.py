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
from qrgames.cli import SWEEP_MAX_ROWS, main
from qrgames.games import SQRT3, single_axis_ensemble
from qrgames.serialize import density_to_json, strategy_to_json
from qrgames.strategies import NoStateCheat, best_estimator


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
        "chsh_enumeration", "no_state_cheat_grid", "hidden_state_suite",
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
    assert not report["checks"]["no_state_cheat_grid"]["passed"]
    assert not report["checks"]["hidden_state_suite"]["passed"]


def test_verify_flags_a_single_axis_referee(capsys, quick_verify_args):
    code = main(["verify", "--preparation", "single_axis", *quick_verify_args])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert not report["checks"]["no_state_cheat_grid"]["passed"]
    # the hidden-state routes need calibrated signals, so that suite skips,
    # and a skipped check is not a passed one
    suite = report["checks"]["hidden_state_suite"]
    assert suite.get("skipped") is True
    assert suite["passed"] is False
    assert suite["reason"]


def test_verify_rejects_bad_scan_step(quick_verify_args):
    assert main(["verify", "--scan-step", "0.5"]) == 2


@pytest.mark.parametrize("flags", [
    ["--grid-resolution", "5"],
    ["--seed", "-3"],
    ["--lhs-trials", "-1"],
    ["--lhs-trials", "0"],
], ids=["grid-resolution-5", "seed-minus-3", "lhs-trials-minus-1", "lhs-trials-0"])
def test_verify_flags_obey_the_config_schema(tmp_path, capsys, flags):
    # flags are held to the bounds VERIFY_CONFIG_SCHEMA sets for config files
    assert main(["verify", *flags, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


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


@pytest.mark.parametrize(
    "flags, code, digest",
    [
        (
            ["--seed", "1"],
            0,
            "c9ffbb6c9ab642e6b3852532538c07b0bb3ac84f2eded138fb4fb8b5b6164fd2",
        ),
        (
            ["--seed", "7", "--preparation", "single_axis"],
            1,
            "f081001c748e4ebc3625abb6b2a8f67adfd1af3714382ff1ca7c783780a6e0e8",
        ),
        (
            ["--payoff-bound", "1.5"],
            1,
            "416660e0f027096fa826618d7f01d7b3b23663b6e5d6559b866cc3aa1092b3ae",
        ),
    ],
    ids=["seed-1", "seed-7-single-axis", "payoff-bound-1.5"],
)
def test_verify_report_bytes_are_pinned(tmp_path, flags, code, digest):
    # sha256 of the reports the per-lambda, per-effect exact engine wrote;
    # the stacked evaluations must reproduce every bit
    assert main(["verify", *flags, "--out", str(tmp_path)]) == code
    report = (tmp_path / "verify_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest


def test_verify_rejects_a_scan_grid_over_the_row_cap(tmp_path, capsys):
    # sized arithmetically: this step would ask np.arange for about 1e9 W values
    assert main(["verify", "--scan-step", "1e-9", "--out", str(tmp_path)]) == 2
    assert f"exceeds {SWEEP_MAX_ROWS} rows" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


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


def test_schema_prints_machine_readable_json(capsys):
    assert main(["schema"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert set(blob["config"]) == {"run", "verify", "sweep"}
    assert blob["strategy"]["$schema"].startswith("http://json-schema.org/")
    # the bound RunConfig enforces on rng_seed
    assert blob["config"]["run"]["properties"]["seed"]["maximum"] == 2**64 - 1


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
