"""Batch command-line front end.

Subcommands: ``run`` simulates a game and writes transcript/summary
artifacts, ``verify`` executes the oracle suites and reports a JSON
verdict, ``sweep`` tabulates functionals over Werner/penalty grids for
plotting, and ``schema`` prints the published JSON schemas.  Exit codes
are stable: 0 success, 1 runtime or verification failure, 2 invalid
configuration or arguments.  Options given on the command line override
the JSON config file, which overrides the defaults of the command's
published schema.  That schema declares each setting once: its flag (one
per number, integer or enum key), its bounds, its default and its help.
A command's flags and its config file are checked against it by the
package's own draft-07 checker, imported on first use; ``run`` never
imports :mod:`oracle`, which only ``verify`` and ``sweep`` need.
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
            "default": "honest",
        },
        "werner": {
            "type": "number",
            "minimum": -1.0 / 3.0,
            "maximum": 1.0,
            "description": "Werner weight of the shared state",
        },
        "r": {
            "type": "number",
            "minimum": 1.0,
            "description": "preparation-quality penalty factor (>= 1)",
            "default": 1.0,
        },
        "payoff_bound": {"type": "number", "exclusiveMinimum": 0.0, "default": SQRT3},
        "rounds": {"type": "integer", "minimum": 1, "default": 100_000},
        "seed": {"type": "integer", "minimum": 0, "maximum": 18446744073709551615, "default": 0},
        "channel": _CHANNEL_CONFIG_SCHEMA,
        "preparation": {"enum": ["ideal", "single_axis"], "default": "ideal"},
        "keep_transcript": {"type": "boolean", "default": True},
    },
    "additionalProperties": False,
}

VERIFY_CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qrgames verify configuration",
    "type": "object",
    "properties": {
        "r": {"type": "number", "minimum": 1.0, "default": 1.0},
        "payoff_bound": {"type": "number", "exclusiveMinimum": 0.0, "default": SQRT3},
        "preparation": {"enum": ["ideal", "single_axis"], "default": "ideal"},
        "lhs_trials": {
            "type": "integer",
            "minimum": 0,
            "maximum": 10000,
            "description": "random hidden-state models to try beside the five probes, "
            "each failing one reported; opt-in, as lambda* already bounds every such model",
            "default": 0,
        },
        # bench/workloads.py's verify smoke run passes --grid-resolution, so the
        # key stays until that run drops it
        "grid_resolution": {
            "type": "integer",
            "minimum": 10,
            "maximum": 64,
            "description": "accepted and echoed in the report's config, but unused: "
            "the cheat checks are exact certificates, not a grid search",
            "default": 40,
        },
        "scan_step": {"type": "number", "exclusiveMinimum": 0.0, "maximum": 0.1, "default": 0.005},
        "seed": {"type": "integer", "minimum": 0, "default": 0},
    },
    "additionalProperties": False,
}

SWEEP_CONFIG_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "qrgames sweep configuration",
    "type": "object",
    "properties": {
        "w_start": {"type": "number", "default": 0.0},
        "w_stop": {"type": "number", "default": 1.0},
        "w_step": {"type": "number", "exclusiveMinimum": 0.0, "default": 0.01},
        "r_start": {"type": "number", "minimum": 1.0, "default": 1.0},
        # no default: sweep fills it from r_start after checking the keys set, so
        # a bad --r-start alone is named, not the r_stop filled from it
        "r_stop": {"type": "number", "minimum": 1.0},
        "r_step": {"type": "number", "exclusiveMinimum": 0.0, "default": 0.01},
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


_CASTS = {"number": float, "integer": int}


def _settings(args) -> dict:
    """A command's settings: its flags over its ``--config`` file over the
    defaults of its schema, each checked against that schema and cast by the
    type the schema declares."""
    schema = CONFIG_SCHEMAS[args.command]
    properties = schema["properties"]
    settings = {key: sub["default"] for key, sub in properties.items() if "default" in sub}
    if args.config is not None:
        cfg = _read_json(args.config, "config file")
        _validate(cfg, schema, "config file")
        settings.update(cfg)
    given = vars(args)
    flags = {key: given[key] for key in properties if given.get(key) is not None}
    # flags must meet a config file's bounds, a step of 0 failing before any division
    _validate(flags, schema, f"{args.command} flags")
    settings.update(flags)
    for key, value in settings.items():
        cast = _CASTS.get(properties[key].get("type"))
        if cast is not None:
            settings[key] = cast(value)
    return settings


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
    # parsed first, under its own name in any error, then resolved as any flag is
    if args.channel is not None:
        try:
            args.channel = json.loads(args.channel)
        except json.JSONDecodeError as exc:
            raise _ConfigError(f"--channel is not valid JSON: {exc}") from exc
        _validate(args.channel, _CHANNEL_CONFIG_SCHEMA, "--channel")
    settings = _settings(args)
    try:
        strategy = _resolve_strategy(settings["strategy"])
        channel = _resolve_channel(settings.get("channel"))
        werner = settings.get("werner")
        needs_state = strategy.needs_shared_state
        if needs_state and werner is None:
            raise _ConfigError("this strategy needs a shared state; pass --werner")
        if not needs_state and werner is not None:
            raise _ConfigError("this strategy does not take a Werner state")
        shared = werner_state(werner) if needs_state else None

        spec = _build_spec(settings["r"], settings["payoff_bound"], settings["preparation"])
        run_config = simulator.RunConfig(
            spec=spec,
            strategy=strategy,
            rounds=settings["rounds"],
            rng_seed=settings["seed"],
            shared_state=shared,
            channel=channel,
            keep_transcript=settings["keep_transcript"],
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

    settings = _settings(args)
    r, step = settings["r"], settings["scan_step"]
    try:
        n_w = _arange_size(0.0, 1.0 + 0.5 * step, step)
        if n_w > SWEEP_MAX_ROWS:
            raise ValueError(
                f"{_grid_count(n_w)}-point Werner scan grid exceeds {SWEEP_MAX_ROWS} rows"
            )
        spec = _build_spec(r, settings["payoff_bound"], settings["preparation"])
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

    suite = oracle.random_lhs_suite(settings["lhs_trials"], rng_seed=settings["seed"], spec=spec)
    checks["hidden_state_suite"] = suite.to_json()

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
        "config": settings,
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


def _grid_size(start: float, stop: float, step: float) -> int:
    """The length of the grid :func:`_grid` builds, without building it."""
    n = _arange_size(start, stop + 0.5 * step, step)
    return 1 if n == 0 and stop >= start else n


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    """``np.arange(start, stop + step/2, step)``, or ``[start]`` where that is empty
    although ``stop >= start``, because ``stop + step/2`` rounds back to ``stop``
    (at a step of 0.01, from 2**46, about 7e13).  The caller refuses ``stop < start``."""
    grid = np.arange(start, stop + 0.5 * step, step)
    return grid if grid.size else np.array([start])


def cmd_sweep(args) -> int:
    from . import oracle

    settings = _settings(args)
    settings.setdefault("r_stop", settings["r_start"])
    try:
        w_axis = (settings["w_start"], settings["w_stop"], settings["w_step"])
        r_axis = (settings["r_start"], settings["r_stop"], settings["r_step"])
        n_w, n_r = _grid_size(*w_axis), _grid_size(*r_axis)
        if n_w == 0 or n_r == 0:
            raise ValueError("empty sweep grid")
        if n_w * n_r > SWEEP_MAX_ROWS:
            raise ValueError(
                f"{_grid_count(n_w)} W x {_grid_count(n_r)} r sweep grid "
                f"exceeds {SWEEP_MAX_ROWS} rows"
            )
        w_grid, r_grid = _grid(*w_axis), _grid(*r_axis)
        if w_grid[0] < -1.0 / 3.0 - 1e-12 or w_grid[-1] > 1.0 + 1e-12:
            raise ValueError("Werner grid must stay inside [-1/3, 1]")
    except ValueError as exc:
        raise _ConfigError(str(exc)) from exc

    settings["n_w"] = int(w_grid.size)
    settings["n_r"] = int(r_grid.size)
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
        json.dumps(settings, indent=2, sort_keys=True, allow_nan=False) + "\n"
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


def _add_schema_flags(parser, schema: dict) -> None:
    """One flag per number, integer or enum setting of ``schema``."""
    for key, sub in schema["properties"].items():
        if sub.get("type") in _CASTS or "enum" in sub:
            parser.add_argument(
                "--" + key.replace("_", "-"),
                type=_CASTS.get(sub.get("type")),
                choices=sub.get("enum"),
                help=sub.get("description"),
            )


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
    _add_schema_flags(run, RUN_CONFIG_SCHEMA)
    run.add_argument(
        "--channel", help='inline JSON, e.g. \'{"kind": "depolarizing", "parameter": 0.3}\''
    )
    run.add_argument(
        "--no-transcript",
        dest="keep_transcript",
        action="store_const",
        const=False,
        help="skip writing transcript.csv",
    )
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run the oracle suites and report")
    verify.add_argument("--config")
    _add_schema_flags(verify, VERIFY_CONFIG_SCHEMA)
    verify.add_argument("--out", help="also write verify_report.json here")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", help="tabulate functionals over (W, r) grids")
    sweep.add_argument("--config")
    _add_schema_flags(sweep, SWEEP_CONFIG_SCHEMA)
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
