#!/usr/bin/env python3
"""Paired before/after runs of the benchmark: this tree against another revision.

    python3 tools/bench_pairs.py --against HEAD~1 --workload verify_default \\
        --pairs 10 --seconds 5 --seed 3 --emit BENCH_n.json

Both sides are exported with ``git archive`` into sibling directories of
a fresh temporary directory (``TMPDIR``), so their paths have the same
length (peak RSS moves with it) and neither holds a ``__pycache__``.
The change side is ``HEAD`` with the working tree's changes to tracked
files (``git stash create``, which touches neither the tree nor the
stash list); the other side is ``--against``.

Each pair runs ``bench/run.py --workload W --seed S --seconds T --trace 0``
once in each tree, alternating which side goes first, and reads the JSON
line each run prints last.  Beside each run, ``import_cpu_s`` is the median
user plus system CPU (from ``os.wait4``) of fresh ``import qrgames.cli``
processes in that tree: what loading the CLI costs.  It is not subtracted
from ``cpu_s``, because import processes timed apart from the run vary
more than a short command's work does.

After the pairs, ``bench/run.py`` runs once more in each tree with
``--trace 1`` and the same workload, seed and seconds: the per-layer
metrics of its median traced pass, every name ``BENCHMARK.json`` lists
under ``per_layer``.  Of these, ``simulator.run_game.peak_mb`` traces
``run_game`` without a transcript path, so it follows the sampler's
memory but not the transcript writer's, even on ``mc_transcript``.

``--emit`` writes, for each side, every pair's metrics, the median and
quartiles of each metric, the traced pass's metrics (``per_layer``) and
the provenance ``bench/run.py`` prints, with ``PYTHONDONTWRITEBYTECODE``
added; and, for each metric, the pairs each side won and whether the
change meets the gain rule of ROADMAP aim 1 (it wins at least nine tenths
of the pairs, and the medians differ by more than the interquartile range
of the other side).  An unknown revision, a failed ``bench/run.py`` or a
malformed last line, traced or not, exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh ``import qrgames.cli`` processes timed in each tree per pair.
IMPORT_REPEATS = 5
IMPORT_CMD = [sys.executable, "-c", "import qrgames.cli"]
#: Metrics, in seconds, this script adds to those ``bench/run.py`` reports; lower is better.
DERIVED = ("import_cpu_s",)
SIDES = ("change", "parent")


class PairsError(Exception):
    """The paired run cannot go on (exit code 2)."""


def _git(*args) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise PairsError(f"git {' '.join(args)}: {proc.stderr.strip()}")
    return proc.stdout.strip()


def resolve(rev: str) -> str:
    """The commit ``rev`` names, or PairsError."""
    try:
        return _git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
    except PairsError:
        raise PairsError(f"unknown revision {rev!r}") from None


def export(commit: str, dest: Path) -> None:
    """The committed files of ``commit``, unpacked into ``dest``."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", commit], capture_output=True, check=True
    ).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def parse_run(stdout: str, required=()) -> dict:
    """``{metric: value}`` from the JSON line ``bench/run.py`` prints last.

    Refuses a line that is not that object: a missing or non-JSON line,
    missing keys or ``required`` metrics, or a metric without a finite number.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise PairsError("bench/run.py printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise PairsError(f"last line of bench/run.py is not JSON: {exc}") from None
    keys = {"correct", "attempted", "failed", "metrics"}
    if not (isinstance(result, dict) and keys <= set(result)) or not isinstance(
        result["metrics"], dict
    ):
        raise PairsError(f"last line of bench/run.py is not a result: {lines[-1][:200]}")
    values = {}
    for name, entry in result["metrics"].items():
        value = entry.get("value") if isinstance(entry, dict) else None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise PairsError(f"metric {name!r} has no number: {entry!r}")
        if not math.isfinite(value):
            raise PairsError(f"metric {name!r} is not finite: {entry!r}")
        values[name] = float(value)
    missing = set(required) - set(values)
    if missing:
        raise PairsError(f"bench/run.py did not report {', '.join(sorted(missing))}")
    values["attempted"], values["failed"] = result["attempted"], result["failed"]
    return values


def parse_provenance(stdout: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith("provenance "):
            return json.loads(line[len("provenance "):])
    return {}


def _env(tree: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(tree / "src")
    return env


def import_cpu_s(tree: Path) -> float:
    """Median child CPU, from ``os.wait4``, of fresh ``import qrgames.cli`` processes."""
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.Popen(
            IMPORT_CMD, cwd=tree, env=_env(tree),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise PairsError(f"import qrgames.cli failed in {tree}")
        times.append(usage.ru_utime + usage.ru_stime)
    return statistics.median(times)


def _bench_run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> str:
    """Standard output of one ``bench/run.py`` run in ``tree``."""
    cmd = [
        sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree.parent, env=_env(tree), capture_output=True, text=True)
    if proc.returncode != 0:
        raise PairsError(f"bench/run.py exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def bench_once(tree: Path, workload: str, seed: int, seconds: float, required) -> tuple:
    """(metrics, provenance) of one ``bench/run.py`` run in ``tree``, plus import CPU."""
    stdout = _bench_run(tree, workload, seed, seconds, 0)
    metrics = parse_run(stdout, required)
    metrics["import_cpu_s"] = import_cpu_s(tree)
    return metrics, parse_provenance(stdout)


def traced_once(tree: Path, workload: str, seed: int, seconds: float, required) -> dict:
    """Per-layer metrics of one ``bench/run.py --trace 1`` run in ``tree``."""
    return parse_run(_bench_run(tree, workload, seed, seconds, 1), required)


def _spread(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict, better: dict) -> dict:
    """Each side's median and quartiles per metric, and the pairs each side won.

    ``runs`` maps each side to its list of per-pair metrics, ``better`` maps
    each metric to "lower" or "higher".
    """
    sides = {side: {} for side in SIDES}
    wins = {}
    for name, direction in better.items():
        change = [run[name] for run in runs["change"]]
        parent = [run[name] for run in runs["parent"]]
        for side, values in (("change", change), ("parent", parent)):
            sides[side][name] = _spread(values)
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (p - c) > 0 for c, p in zip(change, parent))
        lost = sum(sign * (c - p) > 0 for c, p in zip(change, parent))
        gap = sign * (sides["parent"][name]["median"] - sides["change"][name]["median"])
        iqr = sides["parent"][name]["q3"] - sides["parent"][name]["q1"]
        wins[name] = {
            "change": won,
            "parent": lost,
            "ties": len(change) - won - lost,
            "gain_rule_met": won >= 0.9 * len(change) and gap > iqr,
        }
    return {"sides": sides, "wins": wins}


def _spec(tree: Path) -> dict:
    return json.loads((tree / "BENCHMARK.json").read_text())


def _better(tree: Path) -> dict:
    better = {m["name"]: m["better"] for m in _spec(tree)["end_to_end"]}
    better.update(dict.fromkeys(DERIVED, "lower"))
    return better


def _print_table(summary: dict, pairs: int) -> None:
    print(f"{'metric':<14} {'parent median (q1-q3)':>30} {'change median (q1-q3)':>30}  wins")
    for name, win in summary["wins"].items():
        cells = [
            "{median:.4g} ({q1:.4g}-{q3:.4g})".format(**summary["sides"][side][name])
            for side in ("parent", "change")
        ]
        rule = "  gain rule met" if win["gain_rule_met"] else ""
        print(f"{name:<14} {cells[0]:>30} {cells[1]:>30}  {win['change']}/{pairs}{rule}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="the revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--emit", type=Path, help="write the result here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0 or args.seed < 0:
        parser.error("--pairs must be positive, --seconds and --seed non-negative")
    try:
        head, parent = resolve("HEAD"), resolve(args.against)
        commits = {"change": _git("stash", "create") or head, "parent": parent}
        base = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
        try:
            trees = {"change": base / "new", "parent": base / "old"}
            for side in SIDES:
                export(commits[side], trees[side])
            better = _better(trees["change"])
            per_layer = [m["name"] for m in _spec(trees["change"])["per_layer"]]
            measured = [name for name in better if name not in DERIVED]
            runs = {side: [] for side in SIDES}
            provenance = {}
            for pair in range(args.pairs):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    metrics, provenance[side] = bench_once(
                        trees[side], args.workload, args.seed, args.seconds, measured
                    )
                    metrics["first"] = side == order[0]
                    runs[side].append(metrics)
                print(f"pair {pair + 1}/{args.pairs}: cpu_s "
                      f"parent {runs['parent'][-1]['cpu_s']:.4f} "
                      f"change {runs['change'][-1]['cpu_s']:.4f}", file=sys.stderr)
            traced = {
                side: traced_once(trees[side], args.workload, args.seed, args.seconds, per_layer)
                for side in SIDES
            }
        finally:
            shutil.rmtree(base, ignore_errors=True)
    except (PairsError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    summary = summarize(runs, better)
    _print_table(summary, args.pairs)
    if args.emit is not None:
        dirty = commits["change"] != head
        revs = {"change": ("HEAD and working tree" if dirty else "HEAD", head),
                "parent": (args.against, parent)}
        for side, (rev, commit) in revs.items():
            provenance[side].update(
                rev=rev,
                commit=commit,
                PYTHONDONTWRITEBYTECODE=os.environ.get("PYTHONDONTWRITEBYTECODE"),
            )
        document = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "pairs": args.pairs,
            "better": better,
            "wins": summary["wins"],
            "sides": {
                side: {
                    "summary": summary["sides"][side],
                    "runs": runs[side],
                    "per_layer": traced[side],
                    "provenance": provenance[side],
                }
                for side in SIDES
            },
        }
        args.emit.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
