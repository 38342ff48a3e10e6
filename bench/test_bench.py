"""Tests of the benchmark itself: reduced-size runs and checks that must flag bad output.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.NAMES
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.PER_LAYER
    ]


def _smoke(name, tmp_path):
    workload = workloads.make(name, smoke=True)
    workload.prepare(tmp_path)
    return workload


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_end_to_end(name, tmp_path):
    workload = _smoke(name, tmp_path)
    with run.Launcher(tmp_path) as launcher:
        samples = run.invoke_repeatedly(launcher, workload, 11, 0.0)
    assert len(samples) == run.MIN_INVOCATIONS
    assert [s.failures for s in samples] == [[]] * len(samples)
    assert all(s.wall_s > 0 and s.peak_rss_mb > 0 for s in samples)
    if name.startswith("mc_"):
        assert samples[0].digest is not None
        assert len({s.digest for s in samples}) == 1


@pytest.mark.parametrize("name", workloads.NAMES)
def test_smoke_traced(name, tmp_path):
    workload = _smoke(name, tmp_path)
    spans_path = tmp_path / "spans.csv"
    result = run.traced(workload, 11, 0.0, tmp_path, spans_path)
    assert result["failed"] == 0, result["failures"]
    metrics = result["metrics"]
    assert set(metrics) == {m[0] for m in tracing.PER_LAYER}
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layer_sum, metrics["trace.main_s"], rel_tol=1e-9)

    with open(spans_path, newline="") as fh:
        names = {row["name"] for row in csv.DictReader(fh)}
    assert "cli.main" in names
    if name == "mc_transcript":
        assert metrics["simulator.transcript_bytes"] > 0
        assert metrics["simulator.run_game.peak_mb"] > 0
    if name == "mc_stream":
        assert metrics["simulator.transcript_bytes"] == 0
        assert metrics["simulator.run_game.ns_per_round"] > 0
    if name in ("verify_default", "sweep_grid"):
        assert "simulator.run_game" not in names
        assert metrics["simulator.run_game.self_s"] == 0
    if name == "sweep_grid":
        assert metrics["qcore.tensor.calls"] > 0
        assert metrics["oracle.scan_points"] == workload.items
    if name == "verify_default":
        assert metrics["oracle.lhs_models"] > 0
        assert metrics["qcore.validations"] > 0


def test_tracing_restores_every_binding():
    from qrgames import cli, games, qcore, strategies

    before = (qcore.tensor, games.tensor, strategies.tensor, qcore.Povm.__post_init__, cli.main)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert games.tensor is not before[1] and strategies.tensor is games.tensor
        assert qcore.Povm.__post_init__ is not before[3]
    after = (qcore.tensor, games.tensor, strategies.tensor, qcore.Povm.__post_init__, cli.main)
    assert after == before


@pytest.fixture(scope="module")
def smoke_outputs(tmp_path_factory):
    """One genuine reduced-size invocation per workload: (workload, output dir, stdout)."""
    out = {}
    for name in ("mc_transcript", "verify_default", "sweep_grid"):
        workdir = tmp_path_factory.mktemp(name)
        workload = _smoke(name, workdir)
        with run.Launcher(workdir) as launcher:
            sample = run.invoke(launcher, workload, 5)
        assert sample.failures == []
        out[name] = (workload, workdir / "out", (workdir / "stdout.txt").read_text())
    return out


def test_summary_with_nan_is_flagged(smoke_outputs, tmp_path):
    workload, outdir, _ = smoke_outputs["mc_transcript"]
    summary = json.loads((outdir / "summary.json").read_text())
    summary["std_error"] = float("nan")
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    _, failures = checks.check_summary(path, workload._exact, workload.items)
    assert failures and "non-finite" in failures[0]


def test_summary_far_from_exact_is_flagged(smoke_outputs):
    workload, outdir, _ = smoke_outputs["mc_transcript"]
    summary, failures = checks.check_summary(
        outdir / "summary.json", workload._exact, workload.items
    )
    assert failures == []
    _, failures = checks.check_summary(
        outdir / "summary.json", workload._exact + 6 * summary["std_error"], workload.items
    )
    assert failures and "standard errors" in failures[0]


@pytest.mark.parametrize("cut", ["last_row", "mid_row"])
def test_truncated_transcript_is_flagged(smoke_outputs, tmp_path, cut):
    workload, outdir, _ = smoke_outputs["mc_transcript"]
    mean = json.loads((outdir / "summary.json").read_text())["mean"]
    source = outdir / "transcript.csv"
    assert checks.check_transcript(source, workload.items, mean) == []
    text = source.read_text()
    cut_at = text.rstrip("\n").rfind("\n") + 1 if cut == "last_row" else len(text) - 7
    truncated = tmp_path / "transcript.csv"
    truncated.write_text(text[:cut_at])
    assert checks.check_transcript(truncated, workload.items, mean)


def test_sweep_row_off_by_1e_6_is_flagged(smoke_outputs, tmp_path):
    workload, outdir, _ = smoke_outputs["sweep_grid"]
    with open(outdir / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("qrs_payoff")
    rows[7][column] = repr(float(rows[7][column]) + 1e-6)
    with open(tmp_path / "sweep.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    shutil.copy(outdir / "sweep_config.json", tmp_path)
    failures = checks.check_sweep(
        tmp_path / "sweep.csv", tmp_path / "sweep_config.json", workload.w_grid, workload.r_grid
    )
    assert len(failures) == 1 and "qrs_payoff" in failures[0] and "row 7" in failures[0]


def test_verify_report_with_skipped_check_is_flagged(smoke_outputs):
    _, _, stdout = smoke_outputs["verify_default"]
    report = json.loads(stdout)
    assert checks.check_verify(stdout)[1] == []
    report["checks"]["hidden_state_suite"] = {"passed": True, "skipped": True, "reason": "x"}
    failures = checks.check_verify(json.dumps(report))[1]
    assert failures == ["verify check hidden_state_suite was skipped"]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / run.BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload", "mc_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_child_peak_rss_excludes_the_benchmark_process(tmp_path):
    ballast = np.ones(20 * 2**20)  # 160 MB resident in this process
    with run.Launcher(tmp_path) as launcher:
        _, _, rss_mb, code = launcher.run([sys.executable, "-c", "pass"])
    del ballast
    assert code == 0 and 0 < rss_mb < 100
