"""Fresh-interpreter start-up: which commands load jsonschema, and how the
validating paths fail.

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


def _child(args, cwd):
    # the child imports the same qrgames package this test imported
    src = str(Path(qrgames.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=120,
        env=env, cwd=cwd,
    )


def test_commands_that_validate_nothing_never_import_jsonschema(tmp_path):
    script = textwrap.dedent("""
        import sys
        import qrgames.cli
        from qrgames.cli import main

        assert "jsonschema" not in sys.modules, "import qrgames.cli"
        commands = [
            ["sweep", "--w-step", "0.25", "--out", "sweep"],
            ["run", "--strategy", "honest", "--werner", "0.9", "--rounds", "100",
             "--out", "run"],
            ["schema"],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
            assert "jsonschema" not in sys.modules, argv
    """)
    proc = _child(["-c", script], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep" / "sweep.csv").exists()
    assert (tmp_path / "run" / "summary.json").exists()


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["run", "--config", "config.json"], "config file rejected by schema at $.rounds"),
        (["run", "--strategy", "strategy.json"], "strategy rejected by schema at $"),
        (["run", "--werner", "0.9", "--channel", "[1]"], "--channel rejected by schema at $"),
        (["verify", "--lhs-trials", "0"], "verify flags rejected by schema at $.lhs_trials"),
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
