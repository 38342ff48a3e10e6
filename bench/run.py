#!/usr/bin/env python3
"""Benchmark of the qrgames command line, end to end and layer by layer.

    python3 bench/run.py --workload mc_stream --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` the benchmark runs the ``qrgames`` CLI the way a user
does: one child process at a time (a closed loop with one client), for
``--seconds`` seconds and at least three invocations.  It reports each
invocation's wall time and the child's own peak RSS (from ``os.wait4``
in ``launcher.py``, not the running maximum of ``RUSAGE_CHILDREN``), its
user plus system
CPU time, the work per second, and ``setup_s``, the median time of a
fresh ``import qrgames.cli``, timed between invocations.  Wall time on a
shared machine drifts with other tenants' load; CPU time drifts far
less, so ``cpu_s`` is the steadier gate and ``wall_s`` what a user waits.
Every output is checked; a non-zero exit or a failed check counts as a
failed invocation.

With ``--trace 1`` the same command runs in process through
``cli.main(argv)``, alternately untraced and with every layer wrapped
(see ``tracing.py``), and the per-layer metrics are reported.

The program is run from the ``src/`` tree next to this directory.
Output files go to ``.bench_out/`` at the root of the checkout; the last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Fewest fresh imports timed for setup_s; one more, untimed, writes bytecode first.
SETUP_REPEATS = 11
MIN_INVOCATIONS = 3
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
)

# The console script ``qrgames`` calls cli.entry_point; this runs the same.
CLI_CMD = [
    sys.executable,
    "-c",
    "import sys; from qrgames.cli import entry_point; sys.argv[0] = 'qrgames'; entry_point()",
]
IMPORT_CMD = [sys.executable, "-c", "import qrgames.cli"]


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list
    digest: tuple | None = None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """A ``launcher.py`` process that runs children one at a time in ``workdir``.

    Each child's standard output and error go to ``stdout.txt`` and
    ``stderr.txt`` in ``workdir``.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=_child_env(),
            cwd=ROOT,
        )

    def run(self, cmd):
        """Run one child; returns (wall s, CPU s, peak RSS in MB, exit code)."""
        request = {
            "cmd": cmd,
            "stdout": str(self.workdir / "stdout.txt"),
            "stderr": str(self.workdir / "stderr.txt"),
            "timeout": CHILD_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchError("the launcher process exited")
        reply = json.loads(line)
        return reply["wall_s"], reply["cpu_s"], reply["maxrss_kb"] / 1024.0, reply["exit_code"]

    def stderr_tail(self) -> str:
        text = (self.workdir / "stderr.txt").read_text(errors="replace")
        return " | ".join(text.strip().splitlines()[-3:])

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def time_import(launcher: Launcher) -> float:
    """Wall time of one fresh ``import qrgames.cli`` process."""
    wall_s, _, _, code = launcher.run(IMPORT_CMD)
    if code != 0:
        raise BenchError(f"import qrgames.cli failed: {launcher.stderr_tail()}")
    return wall_s


def _fresh_outdir(workdir: Path) -> Path:
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir()
    return outdir


def invoke(launcher: Launcher, workload, seed: int) -> Sample:
    """One CLI invocation of the workload, with its output checked."""
    outdir = _fresh_outdir(launcher.workdir)
    wall_s, cpu_s, rss_mb, code = launcher.run(CLI_CMD + workload.argv(seed, outdir))
    if code != 0:
        return Sample(wall_s, cpu_s, rss_mb, [f"exit code {code}: {launcher.stderr_tail()}"])
    stdout = (launcher.workdir / "stdout.txt").read_text()
    failures, digest = workload.check(outdir, stdout)
    return Sample(wall_s, cpu_s, rss_mb, failures, digest)


def invoke_repeatedly(launcher: Launcher, workload, seed: int, seconds: float, setup=None):
    """Invocations until ``seconds`` have passed; all must reproduce the first's outputs.

    With a ``setup`` list, one fresh import is timed before each invocation
    and appended to it, so set-up samples spread over the whole run.
    """
    samples = []
    start = perf_counter()
    while len(samples) < MIN_INVOCATIONS or perf_counter() - start < seconds:
        if setup is not None:
            setup.append(time_import(launcher))
        sample = invoke(launcher, workload, seed)
        if sample.digest is not None and samples and samples[0].digest is not None:
            if sample.digest != samples[0].digest:
                sample.failures.append("outputs differ from the first invocation with this seed")
        samples.append(sample)
    return samples


def tail_percentile(values):
    """(percentile, value) of the highest percentile with at least ten samples beyond it."""
    rank = len(values) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(values), sorted(values)[rank - 1]


def end_to_end(workload, seed: int, seconds: float, workdir: Path) -> dict:
    with Launcher(workdir) as launcher:
        time_import(launcher)  # untimed: the first import writes the bytecode cache
        setup = []
        samples = invoke_repeatedly(launcher, workload, seed, seconds, setup)
        while len(setup) < SETUP_REPEATS:
            setup.append(time_import(launcher))
    walls = [s.wall_s for s in samples]
    series = {
        "wall_s": walls,
        "cpu_s": [s.cpu_s for s in samples],
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "items_per_s": [workload.items / w for w in walls],
        "setup_s": setup,
    }
    return {
        "attempted": len(samples),
        "failed": sum(1 for s in samples if s.failures),
        "failures": [f for s in samples for f in s.failures],
        "metrics": {name: statistics.median(series[name]) for name, _, _ in END_TO_END},
        "units": {name: unit for name, unit, _ in END_TO_END},
        "samples": series,
        "tails": {name: tail_percentile(v) for name, v in series.items()},
    }


def _in_process(cli, workload, seed: int, workdir: Path):
    """Run ``cli.main`` once in this process; returns (seconds, failures)."""
    outdir = _fresh_outdir(workdir)
    argv = workload.argv(seed, outdir)
    buf = io.StringIO()
    gc.collect()  # start every pass from the same heap, not the last pass's garbage
    with contextlib.redirect_stdout(buf):
        start = perf_counter()
        code = cli.main(argv)
        elapsed = perf_counter() - start
    if code != 0:
        return elapsed, [f"cli.main returned {code}"]
    return elapsed, workload.check(outdir, buf.getvalue())[0]


def _run_game_peak_mb(config) -> float:
    """Peak traced Python allocation of one simulator.run_game call, in MB."""
    from qrgames import simulator

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        simulator.run_game(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def traced(workload, seed: int, seconds: float, workdir: Path, trace_path: Path) -> dict:
    """Alternate untraced and traced in-process runs for ``seconds``.

    Reports the pass whose traced ``cli.main`` time is the median, so its
    layers' self times still sum to its ``trace.main_s``.  The spans of
    every pass go to ``trace_path``, tagged with the pass number.
    """
    from qrgames import cli

    _in_process(cli, workload, seed, workdir)  # untimed: lazy set-up happens here
    passes = []
    failures = []
    attempted = failed = 0
    start = perf_counter()
    with open(trace_path, "w") as spans_file:
        spans_file.write(tracing.SPANS_HEADER)
        while not passes or perf_counter() - start < seconds:
            untraced_s, bad = _in_process(cli, workload, seed, workdir)
            tracer = tracing.Tracer()
            with tracer.installed():
                _, bad_traced = _in_process(cli, workload, seed, workdir)
            attempted += 2
            failed += bool(bad) + bool(bad_traced)
            failures += bad + bad_traced
            config = tracer.run_config
            peak_mb = 0.0 if config is None else _run_game_peak_mb(config)
            tracer.write_spans(spans_file, len(passes))
            passes.append((tracer.metrics(untraced_s, peak_mb), tracer.function_stats()))
    order = sorted(range(len(passes)), key=lambda i: passes[i][0]["trace.main_s"])
    median_pass = order[(len(order) - 1) // 2]
    metrics, functions = passes[median_pass]
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "units": {name: unit for name, unit, _, _ in tracing.PER_LAYER},
        "median_pass": median_pass,
        "functions": functions,
        "passes": [p[0] for p in passes],
        "trace_file": str(trace_path),
    }


def _src_fingerprint():
    """(line count, sha256) of the Python sources under src/."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return lines, digest.hexdigest()


def _git_hash():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(seed: int) -> dict:
    lines, sha = _src_fingerprint()
    return {
        "git_hash": _git_hash(),
        "src_sha256": sha,
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = workloads.make(name)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload.prepare(workdir)
        if trace:
            (OUT / "traces").mkdir(exist_ok=True)
            trace_path = OUT / "traces" / f"{name}-seed{seed}.spans.csv"
            result = traced(workload, seed, seconds, workdir, trace_path)
        else:
            result = end_to_end(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["workload"] = name
    result["item"] = workload.item
    result["items"] = workload.items
    return result


def _report(result: dict) -> None:
    """Human-readable lines; the JSON line comes last, after these."""
    n, failed = result["attempted"], result["failed"]
    print(
        f"{result['workload']}: {n} invocations, {failed} failed, "
        f"failed_frac {failed / n:.3g}; items = {result['items']} {result['item']}"
    )
    for message in result["failures"][:10]:
        print(f"  failed: {message}", file=sys.stderr)
    tails = result.get("tails", {})
    for name, value in result["metrics"].items():
        line = f"  {name:<42} {value:>16.6g} {result['units'][name]}"
        if name in tails:
            count = len(result["samples"][name])
            tail = tails[name]
            extra = "" if tail is None else f", p{tail[0]:.0f} {tail[1]:.6g}"
            line += f"  (median of {count}{extra})"
        print(line)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "qrgames" / "cli.py").is_file():
        print(f"error: no qrgames sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    (OUT / "results").mkdir(exist_ok=True)
    for result in results:
        _report(result)
        result["provenance"] = prov
        path = OUT / "results" / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2, default=str) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}." if prefix else "") + name: {"value": value, "unit": r["units"][name]}
        for r in results
        for name, value in r["metrics"].items()
    }
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
