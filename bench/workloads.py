"""The four benchmark workloads: the CLI arguments they send and how their output is checked.

Each workload is one ``qrgames`` subcommand at a fixed size; the
benchmark seed becomes the command's ``--seed``.  ``items`` is the work
one invocation is asked for (rounds, sweep rows, or one verify report),
which the check confirms the output contains; ``items_per_s`` divides it
by the invocation's wall time.

Why these four: ``mc_transcript`` spends its time building round records
and writing the transcript; ``mc_stream`` is Philox draws, sampling and
aggregation with no I/O, on the answer-list path; ``verify_default``
stresses the oracle and ``qcore`` validation and never samples;
``sweep_grid`` is the exact engine at scale and never enters the
simulator.  An optimisation of one layer thus has a workload that uses it
and one that bypasses it.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

import checks

#: The no-state cheat of ``mc_stream``: best estimator, preagreed answer list.
NOSTATE_LIST_STRATEGY = {
    "type": "no_state_cheat",
    "estimator": {"m": [1.0 / math.sqrt(3.0)] * 3, "mu": 0.5},
    "alice_rule": {"list": [1, -1, -1, 1, 1, -1, 1]},
}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class MonteCarloRun:
    """``qrgames run``: checked against the exact payoff of the same game.

    The digest covers ``summary.json`` and ``transcript.csv``, so repeated
    invocations with one seed must reproduce both byte for byte.
    """

    item = "rounds"

    def __init__(self, rounds, transcript, strategy=None, werner=None, r=None):
        self.items = rounds
        self.transcript = transcript
        self.strategy = strategy
        self.werner = werner
        self.r = r
        self._strategy_arg = "honest"
        self._exact = None
        self._transcripts_checked = set()

    def prepare(self, workdir: Path) -> None:
        from qrgames.games import SteeringGameSpec, qrs_payoff_exact
        from qrgames.qcore import werner_state
        from qrgames.serialize import strategy_from_json
        from qrgames.strategies import honest_strategy

        spec = SteeringGameSpec.ideal(r=1.0 if self.r is None else self.r)
        if self.strategy is None:
            strategy = honest_strategy()
            shared = werner_state(self.werner)
        else:
            path = workdir / "strategy.json"
            path.write_text(json.dumps(self.strategy, indent=2) + "\n")
            self._strategy_arg = str(path)
            strategy = strategy_from_json(self.strategy)
            shared = None
        self._exact = qrs_payoff_exact(spec, strategy, shared)

    def argv(self, seed: int, outdir: Path) -> list:
        argv = ["run", "--strategy", self._strategy_arg]
        if self.werner is not None:
            argv += ["--werner", repr(self.werner)]
        if self.r is not None:
            argv += ["--r", repr(self.r)]
        argv += ["--rounds", str(self.items), "--seed", str(seed), "--out", str(outdir)]
        if not self.transcript:
            argv.append("--no-transcript")
        return argv

    def check(self, outdir: Path, stdout: str):
        """Returns (failures, digest) for one invocation's output."""
        summary_path = outdir / "summary.json"
        summary, failures = checks.check_summary(summary_path, self._exact, self.items)
        if summary is None:
            return failures, None
        digest = (_sha256(summary_path),)
        transcript_path = outdir / "transcript.csv"
        if self.transcript:
            if not transcript_path.exists():
                return failures + ["transcript.csv missing"], digest
            digest += (_sha256(transcript_path),)
            # identical bytes pass identical checks, so each distinct
            # transcript is parsed once
            if digest not in self._transcripts_checked:
                bad = checks.check_transcript(transcript_path, self.items, summary["mean"])
                if not bad:
                    self._transcripts_checked.add(digest)
                failures += bad
        elif transcript_path.exists():
            failures.append("transcript.csv written despite --no-transcript")
        return failures, digest


class VerifyDefault:
    """``qrgames verify`` at its defaults: the report must pass with no check skipped."""

    item = "reports"
    items = 1

    def __init__(self, extra=()):
        self.extra = list(extra)

    def prepare(self, workdir: Path) -> None:
        pass

    def argv(self, seed: int, outdir: Path) -> list:
        return ["verify", "--seed", str(seed)] + self.extra

    def check(self, outdir: Path, stdout: str):
        _, failures = checks.check_verify(stdout)
        return failures, None


class SweepGrid:
    """``qrgames sweep`` over a 2-D (W, r) grid, checked row by row against closed forms."""

    item = "rows"

    def __init__(self, w_step, r_stop):
        self.w_step = w_step
        self.r_stop = r_stop
        # built the way the sweep command builds its grids
        self.w_grid = np.arange(0.0, 1.0 + 0.5 * w_step, w_step)
        self.r_grid = np.arange(1.0, r_stop + 0.5 * 0.01, 0.01)
        self.items = self.w_grid.size * self.r_grid.size

    def prepare(self, workdir: Path) -> None:
        pass

    def argv(self, seed: int, outdir: Path) -> list:
        return [
            "sweep",
            "--w-start", "0", "--w-stop", "1", "--w-step", repr(self.w_step),
            "--r-start", "1.0", "--r-stop", repr(self.r_stop), "--r-step", "0.01",
            "--out", str(outdir),
        ]

    def check(self, outdir: Path, stdout: str):
        failures = checks.check_sweep(
            outdir / "sweep.csv", outdir / "sweep_config.json", self.w_grid, self.r_grid
        )
        return failures, None


def make(name: str, smoke: bool = False):
    """A fresh workload by name; ``smoke`` shrinks it to a fraction of a second."""
    if name == "mc_transcript":
        return MonteCarloRun(2_000 if smoke else 1_000_000, True, werner=0.98, r=1.081)
    if name == "mc_stream":
        return MonteCarloRun(
            5_000 if smoke else 4_000_000, False, strategy=NOSTATE_LIST_STRATEGY
        )
    if name == "verify_default":
        smoke_args = ["--lhs-trials", "6", "--grid-resolution", "10", "--scan-step", "0.05"]
        return VerifyDefault(smoke_args if smoke else ())
    if name == "sweep_grid":
        return SweepGrid(0.1 if smoke else 0.01, 1.02 if smoke else 1.2)
    raise KeyError(name)


NAMES = ("mc_transcript", "mc_stream", "verify_default", "sweep_grid")
