"""Batch command-line front end.

Subcommands: ``run`` simulates a game and writes transcript/summary
artifacts, ``verify`` executes the oracle suites and reports a JSON
verdict, ``sweep`` tabulates functionals over Werner/penalty grids for
plotting, and ``schema`` prints the published JSON schemas.  Exit codes
are stable: 0 success, 1 runtime or verification failure, 2 invalid
configuration or arguments.  Options given on the command line override
the JSON config file.  Input is checked against the published schemas by
the package's own draft-07 checker, which the paths that check something
import on first use; ``run`` never imports :mod:`oracle`, which only
``verify`` and ``sweep`` need.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import serialize, simulator
from .games import (
    SQRT2,
    SQRT3,
    SteeringGameSpec,
    ideal_signal_ensemble,
    single_axis_ensemble,
)
from .qcore import (
    amplitude_damping_channel,
    depolarizing_channel,
    identity_channel,
    werner_state,
)
from .strategies import (
    CommCheat,
    NoStateCheat,
    best_estimator,
    honest_strategy,
    partial_bell_povm,
)

_CHANNEL_CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "kind": {"enum": ["identity", "depolarizing", "amplitude_damping"]},
        "parameter": {"type": "number", "minimum": 0.0, "maximum": 1.0},
    },
    "required": ["kind"],
    "additionalProperties": False,
}

RUN_CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qrgames run configuration",
    "type": "object",
    "properties": {
        "strategy": {
            "oneOf": [{"type": "string"}, serialize.STRATEGY_SCHEMA],
            "description": "a built-in name, a path to a strategy JSON file, "
            "or an inline strategy document",
        },
        "werner": {"type": "number", "minimum": -1.0 / 3.0, "maximum": 1.0},
        "r": {"type": "number", "minimum": 1.0},
        "payoff_bound": {"type": "number", "exclusiveMinimum": 0.0},
        "rounds": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer", "minimum": 0, "maximum": 18446744073709551615},
        "channel": _CHANNEL_CONFIG_SCHEMA,
        "preparation": {"enum": ["ideal", "single_axis"]},
        "keep_transcript": {"type": "boolean"},
    },
    "additionalProperties": False,
}

VERIFY_CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qrgames verify configuration",
    "type": "object",
    "properties": {
        "r": {"type": "number", "minimum": 1.0},
        "payoff_bound": {"type": "number", "exclusiveMinimum": 0.0},
        "preparation": {"enum": ["ideal", "single_axis"]},
        # opt-in random hidden-state models; every failing one is serialised
        "lhs_trials": {"type": "integer", "minimum": 0, "maximum": 10000},
        # accepted and echoed for existing configs, but it drives nothing: the
        # certificates need no grid.  bench/workloads.py's verify smoke run
        # passes --grid-resolution, so the key stays until that run drops it
        "grid_resolution": {"type": "integer", "minimum": 10, "maximum": 64},
        "scan_step": {"type": "number", "exclusiveMinimum": 0.0, "maximum": 0.1},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

SWEEP_CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qrgames sweep configuration",
    "type": "object",
    "properties": {
        "w_start": {"type": "number"},
        "w_stop": {"type": "number"},
        "w_step": {"type": "number", "exclusiveMinimum": 0.0},
        "r_start": {"type": "number", "minimum": 1.0},
        "r_stop": {"type": "number", "minimum": 1.0},
        "r_step": {"type": "number", "exclusiveMinimum": 0.0},
    },
    "additionalProperties": False,
}

CONFIG_SCHEMAS = {
    "run": RUN_CONFIG_SCHEMA,
    "verify": VERIFY_CONFIG_SCHEMA,
    "sweep": SWEEP_CONFIG_SCHEMA,
}

_STRATEGY_NAMES = ("honest", "cheat-nostate", "cheat-comm-ab", "cheat-comm-ba")

#: Largest (W, r) grid ``sweep`` accepts, in rows of sweep.csv; also the
#: largest Werner grid ``verify`` scans.
SWEEP_MAX_ROWS = 1_000_000


class _ConfigError(Exception):
    """Anything wrong with the requested configuration (exit code 2)."""


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise _ConfigError(f"cannot read {what}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _validate(obj, schema, what: str) -> None:
    """Check ``obj`` against a JSON schema; a violation is a one-line config error."""
    from ._schema_check import SchemaViolation, validate  # deferred: only checking paths

    try:
        validate(obj, schema)
    except SchemaViolation as exc:
        raise _ConfigError(
            f"{what} rejected by schema at {exc.json_path}: {exc.message}"
        ) from exc


def _load_config(path, schema) -> dict:
    if path is None:
        return {}
    obj = _read_json(path, "config file")
    _validate(obj, schema, "config file")
    return obj


def _pick(flag_value, cfg: dict, key: str, default):
    if flag_value is not None:
        return flag_value
    return cfg.get(key, default)


def _resolve_strategy(value):
    """A built-in name, a path to a strategy JSON file, or an inline document."""
    if not isinstance(value, dict):
        name = str(value)
        if name == "honest":
            return honest_strategy()
        if name == "cheat-nostate":
            return NoStateCheat(best_estimator(), "constant")
        if name == "cheat-comm-ab":
            return CommCheat("alice_to_bob")
        if name == "cheat-comm-ba":
            return CommCheat("bob_to_alice", best_estimator())
        path = Path(name)
        if not (path.suffix == ".json" or path.exists()):
            raise _ConfigError(
                f"unknown strategy {name!r}; use one of {', '.join(_STRATEGY_NAMES)} "
                "or a path to a strategy JSON file"
            )
        value = _read_json(path, "strategy file")
    _validate(value, serialize.STRATEGY_SCHEMA, "strategy")
    return serialize.strategy_from_json(value)


def _resolve_channel(obj):
    if obj is None:
        return None
    kind = obj["kind"]
    if kind == "identity":
        if "parameter" in obj:
            raise _ConfigError("channel kind 'identity' takes no 'parameter'")
        return identity_channel()
    if "parameter" not in obj:
        raise _ConfigError(f"channel kind {kind!r} needs a 'parameter'")
    if kind == "depolarizing":
        return depolarizing_channel(obj["parameter"])
    return amplitude_damping_channel(obj["parameter"])


def _build_spec(r, payoff_bound, preparation) -> SteeringGameSpec:
    ensemble = (
        single_axis_ensemble() if preparation == "single_axis" else ideal_signal_ensemble()
    )
    return SteeringGameSpec(signal_ensemble=ensemble, r=r, payoff_bound=payoff_bound)


def cmd_run(args) -> int:
    cfg = _load_config(args.config, RUN_CONFIG_SCHEMA)
    try:
        strategy_value = _pick(args.strategy, cfg, "strategy", "honest")
        strategy = _resolve_strategy(strategy_value)
        r = float(_pick(args.r, cfg, "r", 1.0))
        bound = float(_pick(args.payoff_bound, cfg, "payoff_bound", SQRT3))
        rounds = int(_pick(args.rounds, cfg, "rounds", 100_000))
        seed = int(_pick(args.seed, cfg, "seed", 0))
        preparation = _pick(args.preparation, cfg, "preparation", "ideal")
        werner = _pick(args.werner, cfg, "werner", None)
        keep_transcript = (
            False if args.no_transcript else bool(cfg.get("keep_transcript", True))
        )
        channel_cfg = cfg.get("channel")
        if args.channel is not None:
            try:
                channel_cfg = json.loads(args.channel)
            except json.JSONDecodeError as exc:
                raise _ConfigError(f"--channel is not valid JSON: {exc}") from exc
            _validate(channel_cfg, _CHANNEL_CONFIG_SCHEMA, "--channel")
        channel = _resolve_channel(channel_cfg)

        needs_state = strategy.needs_shared_state
        if needs_state and werner is None:
            raise _ConfigError("this strategy needs a shared state; pass --werner")
        if not needs_state and werner is not None:
            raise _ConfigError("this strategy does not take a Werner state")
        shared = werner_state(float(werner)) if needs_state else None

        spec = _build_spec(r, bound, preparation)
        run_config = simulator.RunConfig(
            spec=spec,
            strategy=strategy,
            rounds=rounds,
            rng_seed=seed,
            shared_state=shared,
            channel=channel,
            keep_transcript=keep_transcript,
        )
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc

    estimate, transcript = simulator.run_game(run_config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    summary_path = outdir / "summary.json"
    simulator.write_summary_json(summary_path, estimate, run_config)
    transcript_path = outdir / "transcript.csv"
    if transcript is not None:
        simulator.write_transcript_csv(transcript_path, transcript)
    else:
        # a transcript of an earlier run would not match this summary
        transcript_path.unlink(missing_ok=True)
    print(
        f"rounds={estimate.rounds} mean={estimate.mean:.6f} "
        f"std_error={estimate.std_error:.6f} seed={estimate.seed}"
    )
    print(f"wrote {summary_path}")
    return 0


def cmd_verify(args) -> int:
    from . import oracle

    cfg = _load_config(args.config, VERIFY_CONFIG_SCHEMA)
    try:
        r = float(_pick(args.r, cfg, "r", 1.0))
        bound = float(_pick(args.payoff_bound, cfg, "payoff_bound", SQRT3))
        preparation = _pick(args.preparation, cfg, "preparation", "ideal")
        trials = int(_pick(args.lhs_trials, cfg, "lhs_trials", 0))
        grid_res = int(_pick(args.grid_resolution, cfg, "grid_resolution", 40))
        step = float(_pick(args.scan_step, cfg, "scan_step", 0.005))
        seed = int(_pick(args.seed, cfg, "seed", 0))
        resolved = {
            "r": r,
            "payoff_bound": bound,
            "preparation": preparation,
            "lhs_trials": trials,
            "grid_resolution": grid_res,
            "scan_step": step,
            "seed": seed,
        }
        # flags must meet a config file's bounds, a step of 0 failing before the division
        _validate(resolved, VERIFY_CONFIG_SCHEMA, "verify flags")
        n_w = _arange_size(0.0, 1.0 + 0.5 * step, step)
        if n_w > SWEEP_MAX_ROWS:
            raise ValueError(
                f"{_grid_count(n_w)}-point Werner scan grid exceeds {SWEEP_MAX_ROWS} rows"
            )
        spec = _build_spec(r, bound, preparation)
        # every eigenvalue of Z(alpha) has |lambda| <= sum_k |s alpha_j - c| <= 6 (1 + c),
        # so 4 |lambda| and the no-state value 2 Tr[Z_+] stay within 24 (1 + c)
        if not math.isfinite(24.0 * (1.0 + spec.penalty_coefficient)):
            raise ValueError(f"payoffs overflow a float: c = {spec.penalty_coefficient:g}")
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc

    checks = {}

    enum = oracle.enumerate_chsh_deterministic()
    checks["chsh_enumeration"] = {
        "passed": enum.max_value == 2.0 and enum.n_maximizers == 8,
        "max_value": enum.max_value,
        "n_maximizers": enum.n_maximizers,
    }

    cert = oracle.cheat_certificates(spec)
    checks["cheat_certificates"] = {
        # 4 max(lambda*, 0) bounds the payoff of every cheat without a quantum state
        "passed": 4.0 * cert.lambda_max <= 1e-9,
        "lambda_max": cert.lambda_max,
        "no_state": {"max_payoff": cert.no_state, "alpha": list(cert.alpha)},
    }

    suite = oracle.random_lhs_suite(trials, rng_seed=seed, spec=spec)
    checks["hidden_state_suite"] = {"passed": suite.passed, **suite.to_json()}

    bell = partial_bell_povm()
    channel_reports = {}
    for name, channel in (
        ("depolarizing_0.3", depolarizing_channel(0.3)),
        ("amplitude_damping_0.4", amplitude_damping_channel(0.4)),
    ):
        rep = simulator.noisy_equivalence_check(channel, bell)
        channel_reports[name] = {
            "passed": rep.passed,
            "max_deviation": rep.max_deviation,
        }
    checks["channel_equivalence"] = {
        "passed": all(v["passed"] for v in channel_reports.values()),
        "channels": channel_reports,
    }

    w_grid = np.arange(0.0, 1.0 + 0.5 * step, step)
    # a step that does not divide 1 overshoots it; werner_state would reject those points
    columns = oracle.werner_columns(w_grid[w_grid <= 1.0 + 1e-12])
    scan = oracle.threshold_scan(columns, r=r)
    expected = {
        "witness2": 0.5,
        "steering2": 1.0 / SQRT2,
        "steering3": 1.0 / SQRT3,
        "chsh": 1.0 / SQRT2,
        "qrs_payoff": r / SQRT3,
    }
    crossing_checks = {}
    scan_ok = True
    for name, want in expected.items():
        if want > scan.rows[-1]["w"]:
            want = None
        got = scan.crossings[name]
        ok = (got is None and want is None) or (
            got is not None and want is not None and abs(got - want) <= step + 1e-9
        )
        crossing_checks[name] = {"passed": ok, "crossing": got, "expected": want}
        scan_ok = scan_ok and ok
    checks["threshold_scan"] = {
        "passed": scan_ok,
        "step": step,
        "crossings": crossing_checks,
    }

    passed = all(c["passed"] for c in checks.values())
    report = {
        "passed": passed,
        "config": resolved,
        "checks": checks,
    }
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if args.out is not None:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "verify_report.json").write_text(text + "\n")
    return 0 if passed else 1


_SWEEP_FIELDS = ("w", "r", "witness2", "steering2", "steering3", "chsh", "qrs_payoff")


def _grid_count(n: int) -> str:
    """A grid size for an error line: exact up to the row cap, else 3 digits."""
    return str(n) if n <= SWEEP_MAX_ROWS else f"{n:.3g}"


def _arange_size(start: float, stop: float, step: float) -> int:
    """The length np.arange(start, stop, step) would have, without building it."""
    length = (stop - start) / step
    if not math.isfinite(length):
        raise ValueError("grid bounds and steps must be finite")
    return max(0, math.ceil(length))


def cmd_sweep(args) -> int:
    from . import oracle

    cfg = _load_config(args.config, SWEEP_CONFIG_SCHEMA)
    try:
        w_start = float(_pick(args.w_start, cfg, "w_start", 0.0))
        w_stop = float(_pick(args.w_stop, cfg, "w_stop", 1.0))
        w_step = float(_pick(args.w_step, cfg, "w_step", 0.01))
        r_start = float(_pick(args.r_start, cfg, "r_start", 1.0))
        r_stop = _pick(args.r_stop, cfg, "r_stop", None)
        r_step = float(_pick(args.r_step, cfg, "r_step", 0.01))
        resolved = {
            "w_start": w_start,
            "w_stop": w_stop,
            "w_step": w_step,
            "r_start": r_start,
            "r_step": r_step,
        }
        if r_stop is not None:
            resolved["r_stop"] = float(r_stop)
        # flags must meet a config file's bounds, a step of 0 failing before the
        # division; r_stop is filled from r_start only after, so an error names a key set
        _validate(resolved, SWEEP_CONFIG_SCHEMA, "sweep flags")
        r_stop = resolved.setdefault("r_stop", r_start)
        n_w = _arange_size(w_start, w_stop + 0.5 * w_step, w_step)
        n_r = _arange_size(r_start, r_stop + 0.5 * r_step, r_step)
        if n_w == 0 or n_r == 0:
            raise ValueError("empty sweep grid")
        if n_w * n_r > SWEEP_MAX_ROWS:
            raise ValueError(
                f"{_grid_count(n_w)} W x {_grid_count(n_r)} r sweep grid "
                f"exceeds {SWEEP_MAX_ROWS} rows"
            )
        w_grid = np.arange(w_start, w_stop + 0.5 * w_step, w_step)
        r_grid = np.arange(r_start, r_stop + 0.5 * r_step, r_step)
        if w_grid[0] < -1.0 / 3.0 - 1e-12 or w_grid[-1] > 1.0 + 1e-12:
            raise ValueError("Werner grid must stay inside [-1/3, 1]")
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc

    resolved["n_w"] = int(w_grid.size)
    resolved["n_r"] = int(r_grid.size)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "sweep.csv"
    # the W-dependent work, built once and reused for every r
    columns = oracle.werner_columns(w_grid)
    n_rows = 0
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_FIELDS)
        for r in r_grid:
            scan = oracle.threshold_scan(columns, r=float(r))
            for row in scan.rows:
                writer.writerow(
                    [repr(row["w"]), repr(float(r))]
                    + [repr(row[name]) for name in _SWEEP_FIELDS[2:]]
                )
                n_rows += 1
    (outdir / "sweep_config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    print(f"wrote {csv_path} ({n_rows} rows)")
    return 0


def cmd_schema(args) -> int:
    print(
        json.dumps(
            {"config": CONFIG_SCHEMAS, "strategy": serialize.STRATEGY_SCHEMA},
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrgames",
        description="Simulate and verify the quantum-refereed steering game.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate a game and write artifacts")
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument(
        "--strategy",
        help="honest | cheat-nostate | cheat-comm-ab | cheat-comm-ba | strategy JSON file",
    )
    run.add_argument("--werner", type=float, help="Werner weight of the shared state")
    run.add_argument("--r", type=float, help="preparation-quality penalty factor (>= 1)")
    run.add_argument("--payoff-bound", type=float, dest="payoff_bound")
    run.add_argument("--rounds", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument(
        "--channel", help='inline JSON, e.g. \'{"kind": "depolarizing", "parameter": 0.3}\''
    )
    run.add_argument("--preparation", choices=["ideal", "single_axis"])
    run.add_argument(
        "--no-transcript", action="store_true", help="skip writing transcript.csv"
    )
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run the oracle suites and report")
    verify.add_argument("--config")
    verify.add_argument("--r", type=float)
    verify.add_argument("--payoff-bound", type=float, dest="payoff_bound")
    verify.add_argument("--preparation", choices=["ideal", "single_axis"])
    verify.add_argument(
        "--lhs-trials",
        type=int,
        dest="lhs_trials",
        help="random hidden-state models to try beside the five probes (default 0: "
        "the no-state certificate already bounds every such model)",
    )
    verify.add_argument(
        "--grid-resolution",
        type=int,
        dest="grid_resolution",
        help="accepted (10-64) and echoed in the report's config, but unused: "
        "the cheat checks are exact certificates, not a grid search",
    )
    verify.add_argument("--scan-step", type=float, dest="scan_step")
    verify.add_argument("--seed", type=int)
    verify.add_argument("--out", help="also write verify_report.json here")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="tabulate functionals over (W, r) grids")
    sweep.add_argument("--config")
    sweep.add_argument("--w-start", type=float, dest="w_start")
    sweep.add_argument("--w-stop", type=float, dest="w_stop")
    sweep.add_argument("--w-step", type=float, dest="w_step")
    sweep.add_argument("--r-start", type=float, dest="r_start")
    sweep.add_argument("--r-stop", type=float, dest="r_stop")
    sweep.add_argument("--r-step", type=float, dest="r_step")
    sweep.add_argument("--out", default=".", help="output directory (default: .)")
    sweep.set_defaults(func=cmd_sweep)

    schema = sub.add_parser("schema", help="print the config and strategy JSON schemas")
    schema.set_defaults(func=cmd_schema)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    try:
        return args.func(args)
    except _ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
