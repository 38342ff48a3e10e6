"""The paired-run script ``tools/bench_pairs.py``: what it refuses and how it counts
wins, checked without starting a benchmark, and one real two-pair run, which
the ``bench_smoke`` marker keeps out of the default selection."""

import importlib.util
import json
import math
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "bench_pairs.py"
if not SCRIPT.is_file():
    pytest.skip("tools/bench_pairs.py is not in this checkout", allow_module_level=True)

_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

needs_git = pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(), reason="needs a git checkout"
)


def _line(metrics, **extra):
    return json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics, **extra})


def test_the_last_line_gives_the_metrics():
    stdout = "sweep_grid: 3 invocations\nprovenance {}\n" + _line(
        {"cpu_s": {"value": 0.2, "unit": "s"}, "peak_rss_mb": {"value": 31, "unit": "MB"}}
    )
    values = bench_pairs.parse_run(stdout, ["cpu_s"])
    assert values == {"cpu_s": 0.2, "peak_rss_mb": 31.0, "attempted": 3, "failed": 0}


@pytest.mark.parametrize(
    "stdout",
    [
        "",
        "cpu_s 0.2",
        _line({"cpu_s": {"value": 0.2}}) + "\ntrailing words",
        json.dumps({"correct": True, "metrics": {"cpu_s": {"value": 0.2}}}),
        _line([0.2]),
        _line({"cpu_s": 0.2}),
        _line({"cpu_s": {"value": "0.2"}}),
        _line({"cpu_s": {"value": True}}),
        _line({"cpu_s": {"value": float("nan")}}),
        _line({"wall_s": {"value": 0.2}}),
    ],
    ids=["empty", "not-json", "not-last", "no-counts", "list", "bare-number", "string",
         "bool", "nan", "cpu-missing"],
)
def test_a_malformed_last_line_is_refused(stdout):
    with pytest.raises(bench_pairs.PairsError):
        bench_pairs.parse_run(stdout, ["cpu_s"])


@needs_git
def test_a_malformed_line_exits_two(tmp_path, monkeypatch, capsys):
    def export(commit, dest):  # a tree whose benchmark prints no result
        (dest / "bench").mkdir(parents=True)
        (dest / "bench" / "run.py").write_text("print('no result here')\n")
        shutil.copy(ROOT / "BENCHMARK.json", dest)

    monkeypatch.setattr(bench_pairs, "export", export)
    emit = tmp_path / "pairs.json"
    argv = ["--against", "HEAD", "--workload", "sweep_grid", "--pairs", "1", "--emit", str(emit)]
    assert bench_pairs.main(argv) == 2
    assert "is not JSON" in capsys.readouterr().err
    assert not emit.exists()


@needs_git
def test_an_unknown_revision_exits_two(tmp_path, capsys):
    emit = tmp_path / "pairs.json"
    argv = ["--against", "no-such-revision-0", "--workload", "verify_default", "--emit", str(emit)]
    assert bench_pairs.main(argv) == 2
    assert "unknown revision 'no-such-revision-0'" in capsys.readouterr().err
    assert not emit.exists()


def test_wins_follow_each_metric_direction_and_the_gain_rule():
    parent = [{"cpu_s": c, "items_per_s": 1 / c} for c in (0.20, 0.21, 0.22, 0.21)]
    change = [{"cpu_s": c, "items_per_s": 1 / c} for c in (0.18, 0.19, 0.22, 0.18)]
    summary = bench_pairs.summarize(
        {"change": change, "parent": parent}, {"cpu_s": "lower", "items_per_s": "higher"}
    )
    for name in ("cpu_s", "items_per_s"):
        wins = summary["wins"][name]
        assert (wins["change"], wins["parent"], wins["ties"]) == (3, 0, 1)
        assert wins["gain_rule_met"] is False  # 3 of 4 pairs is under nine tenths
    assert summary["sides"]["parent"]["cpu_s"] == pytest.approx(
        {"median": 0.21, "q1": 0.2075, "q3": 0.2125}
    )
    change[2] = {"cpu_s": 0.19, "items_per_s": 1 / 0.19}
    summary = bench_pairs.summarize(
        {"change": change, "parent": parent}, {"cpu_s": "lower", "items_per_s": "higher"}
    )
    assert summary["wins"]["cpu_s"]["gain_rule_met"] is True


def test_a_run_adds_import_cpu_s_and_no_work_cpu_s(tmp_path, monkeypatch):
    stdout = 'provenance {"python": "3"}\n' + _line({"cpu_s": {"value": 0.2, "unit": "s"}})
    done = subprocess.CompletedProcess([], 0, stdout, "")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *args, **kwargs: done)
    monkeypatch.setattr(bench_pairs, "import_cpu_s", lambda tree: 0.15)
    metrics, provenance = bench_pairs.bench_once(tmp_path, "verify_default", 0, 1.0, ["cpu_s"])
    assert metrics == {"cpu_s": 0.2, "import_cpu_s": 0.15, "attempted": 3, "failed": 0}
    assert provenance == {"python": "3"}
    better = bench_pairs._better(ROOT)
    assert better["import_cpu_s"] == "lower" and "work_cpu_s" not in better


def _stub_export(traced_stdout):
    """An ``export`` whose bench/run.py prints a result with every end-to-end
    metric, or ``traced_stdout`` when run with ``--trace 1``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = _line({m["name"]: {"value": 1.0} for m in spec["end_to_end"]})

    def export(commit, dest):
        (dest / "bench").mkdir(parents=True)
        (dest / "bench" / "run.py").write_text(
            f"import sys\nprint({traced_stdout!r} if sys.argv[-1] == '1' else {plain!r})\n"
        )
        shutil.copy(ROOT / "BENCHMARK.json", dest)

    return export


def _per_layer_names():
    return [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


@needs_git
def test_the_traced_pass_gives_each_side_its_per_layer_metrics(tmp_path, monkeypatch):
    per_layer = {name: float(i) for i, name in enumerate(_per_layer_names())}
    traced = _line({name: {"value": value} for name, value in per_layer.items()})
    monkeypatch.setattr(bench_pairs, "export", _stub_export(traced))
    monkeypatch.setattr(bench_pairs, "import_cpu_s", lambda tree: 0.15)
    emit = tmp_path / "pairs.json"
    argv = ["--against", "HEAD", "--workload", "mc_transcript", "--pairs", "1",
            "--seconds", "0", "--emit", str(emit)]
    assert bench_pairs.main(argv) == 0
    sides = json.loads(emit.read_text())["sides"]
    for side in bench_pairs.SIDES:
        assert sides[side]["per_layer"] == {**per_layer, "attempted": 3, "failed": 0}
        assert sides[side]["runs"][0]["cpu_s"] == 1.0


@needs_git
@pytest.mark.parametrize("missing", [False, True], ids=["not-json", "metric-missing"])
def test_a_malformed_traced_line_exits_two(missing, tmp_path, monkeypatch, capsys):
    if missing:
        traced = _line({name: {"value": 0.0} for name in _per_layer_names()[1:]})
    else:
        traced = "trace 0.2"
    monkeypatch.setattr(bench_pairs, "export", _stub_export(traced))
    monkeypatch.setattr(bench_pairs, "import_cpu_s", lambda tree: 0.15)
    emit = tmp_path / "pairs.json"
    argv = ["--against", "HEAD", "--workload", "mc_transcript", "--pairs", "1",
            "--seconds", "0", "--emit", str(emit)]
    assert bench_pairs.main(argv) == 2
    err = capsys.readouterr().err
    assert (f"did not report {_per_layer_names()[0]}" if missing else "is not JSON") in err
    assert not emit.exists()


@needs_git
@pytest.mark.bench_smoke
def test_two_real_pairs_report_every_metric_and_the_gain_rule(tmp_path, capsys):
    """``bench/run.py --workload sweep_grid --seconds 1`` twice in each tree,
    this one against HEAD: both sides, every end-to-end metric, the wins and
    the gain-rule verdict reach the table and the emitted document."""
    emit = tmp_path / "pairs.json"
    argv = ["--against", "HEAD", "--workload", "sweep_grid", "--pairs", "2",
            "--seconds", "1", "--emit", str(emit)]
    assert bench_pairs.main(argv) == 0
    table = capsys.readouterr().out
    document = json.loads(emit.read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]] + list(bench_pairs.DERIVED)
    assert set(document["sides"]) == set(bench_pairs.SIDES)
    for side in bench_pairs.SIDES:
        recorded = document["sides"][side]
        assert len(recorded["runs"]) == 2
        assert set(_per_layer_names()) <= set(recorded["per_layer"])
        for name in metrics:
            assert all(math.isfinite(run[name]) for run in recorded["runs"]), (side, name)
            assert set(recorded["summary"][name]) == {"median", "q1", "q3"}
    rows = {line.split()[0]: line for line in table.splitlines()[1:]}
    for name in metrics:
        wins = document["wins"][name]
        assert wins["change"] + wins["parent"] + wins["ties"] == 2
        assert isinstance(wins["gain_rule_met"], bool)
        assert f"  {wins['change']}/2" in rows[name]
        assert rows[name].endswith("gain rule met") == wins["gain_rule_met"]
