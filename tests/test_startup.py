"""Fresh-interpreter start-up: no command loads jsonschema, ``run`` never
loads the oracle, ``verify`` and ``sweep`` never load the simulator, and
at its defaults ``verify`` never loads numpy.random either, importing the
package starts no BLAS threads, the console entry writes what ``main``
writes, and how the validating paths fail.

Each test runs a child interpreter, because ``sys.modules`` of the test
process already holds whatever earlier tests imported.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import qrgames
from qrgames.cli import main


def _child(args, cwd, openblas_threads=None):
    """Run the interpreter with OPENBLAS_NUM_THREADS unset, or set as given."""
    # the child imports the same qrgames package this test imported
    src = str(Path(qrgames.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=env, cwd=cwd,
    )


def test_no_command_imports_jsonschema_and_run_never_imports_the_oracle(tmp_path):
    (tmp_path / "strategy.json").write_text(json.dumps(
        {"type": "no_state_cheat", "estimator": {"m": [0.5, 0.5, 0.5], "mu": 0.5},
         "alice_rule": {"list": [1, -1]}}
    ))
    (tmp_path / "config.json").write_text(json.dumps({"rounds": 100, "werner": 0.9}))
    (tmp_path / "bad.json").write_text(json.dumps({"rounds": 0}))
    script = textwrap.dedent("""
        import sys
        import qrgames.cli
        from qrgames.cli import main

        assert "jsonschema" not in sys.modules, "import qrgames.cli"
        runs = [
            (["run", "--strategy", "honest", "--werner", "0.9", "--rounds", "100",
              "--out", "run"], 0),
            (["run", "--strategy", "strategy.json", "--rounds", "100", "--out", "a"], 0),
            (["run", "--config", "config.json", "--channel",
              '{"kind": "depolarizing", "parameter": 0.3}', "--out", "b"], 0),
            (["run", "--config", "bad.json", "--out", "c"], 2),
            (["schema"], 0),
        ]
        for argv, code in runs:
            assert main(argv) == code, argv
            assert "qrgames.oracle" not in sys.modules, argv
            assert "jsonschema" not in sys.modules, argv
        others = [
            ["sweep", "--w-step", "0.25", "--out", "sweep"],
            ["verify", "--lhs-trials", "6", "--grid-resolution", "10", "--scan-step", "0.05"],
        ]
        for argv in others:
            assert main(argv) == 0, argv
            assert "jsonschema" not in sys.modules, argv
    """)
    proc = _child(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    for out in ("run", "a", "b"):
        assert (tmp_path / out / "summary.json").exists()
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert not (tmp_path / "c").exists()


def test_verify_at_its_defaults_and_sweep_never_load_numpy_random(tmp_path):
    # verify bounds every hidden-state model by the certificate and checks the
    # channels on a fixed basis; only run's Philox stream needs numpy.random
    proc = _child(["-c", textwrap.dedent("""
        import sys
        import numpy
        if "numpy.random" in sys.modules:
            sys.exit("numpy loads numpy.random itself")
        from qrgames.cli import main

        for argv in (["verify", "--out", "v"], ["sweep", "--w-step", "0.25", "--out", "s"]):
            assert main(argv) == 0, argv
            assert "numpy.random" not in sys.modules, argv
        assert main(["run", "--werner", "0.9", "--rounds", "100", "--out", "r"]) == 0
        assert "numpy.random" in sys.modules
    """)], tmp_path)
    if proc.stderr.strip() == "numpy loads numpy.random itself":
        pytest.skip(proc.stderr.strip())  # numpy 1.x imports it eagerly
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "v" / "verify_report.json").read_text())
    assert report["passed"] is True
    assert report["checks"]["hidden_state_suite"]["trials"] == 0


def test_only_run_loads_the_simulator_and_main_freezes_nothing(tmp_path):
    proc = _child(["-c", textwrap.dedent("""
        import gc
        import sys
        from qrgames.cli import main

        assert "qrgames.simulator" not in sys.modules, "import qrgames.cli"
        for argv in (["verify", "--out", "v"], ["sweep", "--w-step", "0.25", "--out", "s"]):
            assert main(argv) == 0, argv
            assert "qrgames.simulator" not in sys.modules, argv
        assert main(["run", "--werner", "0.9", "--rounds", "100", "--out", "r"]) == 0
        assert "qrgames.simulator" in sys.modules
        # only the console entry freezes: a library caller keeps its collector
        assert gc.get_freeze_count() == 0
    """)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_the_simulator_names_load_it_on_first_use(tmp_path):
    proc = _child(["-c", textwrap.dedent("""
        import sys
        import qrgames

        assert "qrgames.simulator" not in sys.modules
        from qrgames import RunConfig, run_game
        from qrgames import simulator

        assert (RunConfig, run_game) == (simulator.RunConfig, simulator.run_game)
        assert all(getattr(qrgames, name) is not None for name in qrgames.__all__)
        assert not hasattr(qrgames, "Transcript")
    """)], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--werner", "0.98", "--r", "1.081", "--seed", "7", "--rounds", "25000"],
        ["verify"],
        ["sweep", "--w-step", "0.05", "--r-stop", "1.02"],
    ],
    ids=["run", "verify", "sweep"],
)
def test_the_console_entry_writes_what_main_writes(tmp_path, monkeypatch, capsys, argv):
    # the console entry freezes the heap before the command: every byte still reaches disk
    for side in ("entry", "main"):
        (tmp_path / side).mkdir()
    proc = _child(["-m", "qrgames.cli", *argv, "--out", "out"], tmp_path / "entry")
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path / "main")
    assert main([*argv, "--out", "out"]) == 0
    assert proc.stdout == capsys.readouterr().out
    written = {p.name: p.read_bytes() for p in (tmp_path / "entry" / "out").iterdir()}
    assert written == {p.name: p.read_bytes() for p in (tmp_path / "main" / "out").iterdir()}
    assert written


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run", "--config", "config.json"], "config file rejected by schema at $.rounds"),
        (["run", "--strategy", "strategy.json"], "strategy rejected by schema at $"),
        (["run", "--werner", "0.9", "--channel", "[1]"], "--channel rejected by schema at $"),
        (["verify", "--lhs-trials", "-1"], "verify flags rejected by schema at $.lhs_trials"),
    ],
    ids=["config", "strategy-file", "channel", "verify-flags"],
)
def test_schema_rejections_exit_two_with_one_line(tmp_path, argv, prefix):
    (tmp_path / "config.json").write_text(json.dumps({"rounds": "many"}))
    (tmp_path / "strategy.json").write_text(json.dumps(
        {"type": "no_state_cheat", "estimator": {"m": [1, 0], "mu": 0.5}}
    ))
    proc = _child(["-m", "qrgames.cli", *argv, "--out", "out"], tmp_path)
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"config error: {prefix}: ")
    assert not (tmp_path / "out").exists()



def _printed(script, cwd, openblas_threads=None):
    proc = _child(["-c", textwrap.dedent(script)], cwd, openblas_threads)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
def test_importing_the_cli_starts_no_blas_threads(tmp_path):
    out = _printed("""
        import os
        import qrgames.cli
        print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
    """, tmp_path)
    assert out == ["1", "1"]


def test_a_preset_thread_count_is_left_as_it_is(tmp_path):
    script = """
        import os
        import qrgames
        print(os.environ["OPENBLAS_NUM_THREADS"])
    """
    assert _printed(script, tmp_path, openblas_threads="2") == ["2"]


def test_numpy_loaded_first_keeps_its_thread_pool(tmp_path):
    # OpenBLAS read the environment when numpy loaded; setting it later would only mislead
    out = _printed("""
        import os
        import numpy
        import qrgames
        print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"))
    """, tmp_path)
    assert out == ["unset"]
