"""Output checks for the benchmark workloads.

Every check reads the files one CLI invocation wrote and returns a list
of failure messages; an empty list means the output is correct.  A check
never raises on bad output, so a corrupt artifact counts as one failed
invocation instead of aborting the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TRANSCRIPT_HEADER = "round,j,s,a,b,payoff"
SWEEP_HEADER = ["w", "r", "witness2", "steering2", "steering3", "chsh", "qrs_payoff"]

#: Absolute tolerance of a sweep value against its closed form.
SWEEP_TOL = 1e-9
#: Relative tolerance of the transcript payoff mean against summary.json.
TRANSCRIPT_MEAN_RTOL = 1e-9
#: Allowed distance of a Monte Carlo mean from the exact payoff.
MAX_STD_ERRORS = 5.0

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} is not strict JSON")


def load_strict_json(text: str):
    """Parse JSON, rejecting the NaN and Infinity extensions of Python's json."""
    return json.loads(text, parse_constant=_reject_constant)


def check_summary(path, exact: float, rounds: int) -> tuple[dict | None, list]:
    """Check ``summary.json``: strict JSON, counts, and the 5-sigma payoff test.

    Returns the parsed summary (None when it cannot be read) and the failures.
    """
    try:
        summary = load_strict_json(Path(path).read_text())
        mean = float(summary["mean"])
        std_error = float(summary["std_error"])
        counts = summary["counts"]
        n = summary["rounds"]
        total = sum(int(c) for c in counts.values())
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return None, [f"summary.json unreadable: {exc!r}"]
    failures = []
    if n != rounds:
        failures.append(f"summary.json reports {n!r} rounds, expected {rounds}")
    if total != rounds:
        failures.append(f"summary.json counts sum to {total}, expected {rounds}")
    if not abs(mean - exact) <= MAX_STD_ERRORS * std_error:
        failures.append(
            f"mean {mean!r} is more than {MAX_STD_ERRORS} standard errors "
            f"({std_error!r}) from the exact payoff {exact!r}"
        )
    return summary, failures


def check_transcript(path, rounds: int, mean: float) -> list:
    """Check ``transcript.csv``: header, one row per round, payoff mean."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"transcript.csv unreadable: {exc!r}"]
    if header != TRANSCRIPT_HEADER:
        return [f"transcript.csv header is {header!r}"]
    if data.shape != (rounds, 6):
        return [f"transcript.csv has shape {data.shape}, expected ({rounds}, 6)"]
    failures = []
    if not np.array_equal(data[:, 0], np.arange(rounds)):
        failures.append("transcript.csv round column is not 0..rounds-1")
    payoff_mean = math.fsum(data[:, 5]) / rounds
    if not math.isclose(payoff_mean, mean, rel_tol=TRANSCRIPT_MEAN_RTOL, abs_tol=0.0):
        failures.append(
            f"transcript payoff mean {payoff_mean!r} differs from summary mean {mean!r}"
        )
    return failures


def check_verify(text: str) -> tuple[dict | None, list]:
    """Check a ``verify`` report: it passed, and no check was skipped."""
    try:
        report = load_strict_json(text)
        checks = dict(report["checks"])
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"verify report unreadable: {exc!r}"]
    failures = []
    if report.get("passed") is not True:
        failures.append("verify report does not say passed: true")
    for name, check in checks.items():
        if not isinstance(check, dict):
            failures.append(f"verify check {name} is not an object")
        elif check.get("skipped"):
            failures.append(f"verify check {name} was skipped")
        elif check.get("passed") is not True:
            failures.append(f"verify check {name} did not pass")
    return report, failures


def check_sweep(csv_path, config_path, w_grid, r_grid) -> list:
    """Check ``sweep.csv`` against the grid and the closed forms.

    Rows run over r in the outer loop and W in the inner loop.  Each row
    must satisfy qrs_payoff = 3W - r*sqrt(3), steering3 = 3W,
    steering2 = witness2 = 2W and chsh = 2*sqrt(2)*W to ``SWEEP_TOL``.
    """
    n_w, n_r = len(w_grid), len(r_grid)
    try:
        config = load_strict_json(Path(config_path).read_text())
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        values = np.array([[float(x) for x in row] for row in rows[1:]], dtype=float)
    except (OSError, ValueError, IndexError) as exc:
        return [f"sweep output unreadable: {exc!r}"]
    if rows[0] != SWEEP_HEADER:
        return [f"sweep.csv header is {rows[0]!r}"]
    if values.shape != (n_w * n_r, len(SWEEP_HEADER)):
        return [f"sweep.csv has shape {values.shape}, expected ({n_w * n_r}, 7)"]
    failures = []
    if (config.get("n_w"), config.get("n_r")) != (n_w, n_r):
        failures.append(f"sweep_config.json grid size {config!r} is not {n_w} x {n_r}")
    w, r = values[:, 0], values[:, 1]
    if np.max(np.abs(w - np.tile(w_grid, n_r))) > 1e-12:
        failures.append("sweep.csv W column does not follow the requested grid")
    if np.max(np.abs(r - np.repeat(r_grid, n_w))) > 1e-12:
        failures.append("sweep.csv r column does not follow the requested grid")
    closed = {
        "witness2": 2.0 * w,
        "steering2": 2.0 * w,
        "steering3": 3.0 * w,
        "chsh": 2.0 * _SQRT2 * w,
        "qrs_payoff": 3.0 * w - r * _SQRT3,
    }
    for name, want in closed.items():
        got = values[:, SWEEP_HEADER.index(name)]
        dev = np.abs(got - want)
        worst = int(np.argmax(dev))
        if not dev[worst] <= SWEEP_TOL:
            failures.append(
                f"sweep {name} off its closed form by {dev[worst]:.3e} at row {worst + 1}"
            )
    return failures
