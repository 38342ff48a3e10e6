"""Span tracing of the qrgames layers, installed from outside the package.

The layers are the package modules.  :meth:`Tracer.installed` replaces
every public function and public method defined in a layer module (and
every dataclass ``__post_init__``) with a wrapper that records a span:
name, start, end and the span that called it.  ``games``, ``strategies``
and ``simulator`` bind ``qcore`` functions such as ``tensor`` at import,
so each module's binding of a wrapped function is replaced, not only the
defining module's.  Methods are replaced on their classes, never the
classes themselves, because ``isinstance`` checks depend on the class
objects.  Everything is restored on exit.

A span's self time is its duration minus the durations of the spans it
called, so the self times of all spans under ``cli.main`` sum to the
duration of ``cli.main``.  Time spent in private helpers, numpy,
argparse or jsonschema counts as self time of the layer that called it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

SPANS_HEADER = "pass,id,name,start_s,end_s,parent\n"

LAYERS = ("cli", "simulator", "strategies", "games", "oracle", "qcore", "serialize")

GAMES_FUNCTIONALS = frozenset(
    f"games.{name}"
    for name in (
        "correlator",
        "witness2_value",
        "steering2_value",
        "steering3_value",
        "chsh_value",
        "chsh_from_state",
        "classical_witness_payoff",
    )
)

QCORE_VALIDATE = frozenset(
    ("qcore.DensityOperator.__post_init__", "qcore.Povm.__post_init__")
)

#: Per-layer metrics: (name, unit, better, the end-to-end metric it should
#: move on which workload).  "Bypassed" workloads should show no change.
PER_LAYER = (
    ("cli.self_s", "s", "lower",
     "items_per_s on sweep_grid: inline CSV formatting, argparse, jsonschema"),
    ("simulator.self_s", "s", "lower", "wall_s on mc_transcript and mc_stream"),
    ("strategies.self_s", "s", "lower", "wall_s on verify_default, items_per_s on sweep_grid"),
    ("games.self_s", "s", "lower", "items_per_s on sweep_grid"),
    ("oracle.self_s", "s", "lower", "wall_s on verify_default"),
    ("qcore.self_s", "s", "lower", "items_per_s on sweep_grid, wall_s on verify_default"),
    ("serialize.self_s", "s", "lower",
     "wall_s on mc_transcript and mc_stream (the config echo)"),
    ("simulator.run_game.self_s", "s", "lower",
     "items_per_s and peak_rss_mb on mc_stream; 0 on verify_default and sweep_grid"),
    ("simulator.run_game.ns_per_round", "ns", "lower",
     "items_per_s on mc_stream; 0 on verify_default and sweep_grid"),
    ("simulator.run_game.peak_mb", "MB", "lower",
     "peak_rss_mb on mc_stream; 0 on verify_default and sweep_grid"),
    ("simulator.write_transcript_csv.s", "s", "lower",
     "wall_s on mc_transcript; 0 on mc_stream"),
    ("simulator.transcript_bytes", "bytes", "lower",
     "wall_s on mc_transcript; 0 on mc_stream"),
    ("simulator.write_summary_json.s", "s", "lower", "wall_s on mc_transcript and mc_stream"),
    ("simulator.noisy_equivalence_check.s", "s", "lower", "wall_s on verify_default"),
    ("strategies.outcome_distribution.calls", "count", "lower",
     "items_per_s on sweep_grid, wall_s on verify_default; 6 to 12 calls on mc_*"),
    ("strategies.outcome_distribution.self_s", "s", "lower",
     "items_per_s on sweep_grid, wall_s on verify_default; no change on mc_*"),
    ("strategies.lhs_payoff_routes.self_s", "s", "lower", "wall_s on verify_default"),
    ("games.qrs_payoff_exact.calls", "count", "lower", "items_per_s on sweep_grid"),
    ("games.qrs_payoff_exact.self_s", "s", "lower", "items_per_s on sweep_grid"),
    ("games.functionals.self_s", "s", "lower",
     "items_per_s on sweep_grid: correlator, witness2, steering, chsh"),
    ("oracle.random_lhs_suite.self_s", "s", "lower", "wall_s on verify_default"),
    ("oracle.lhs_models", "count", "higher", "wall_s on verify_default"),
    ("oracle.grid_max_cheat.s", "s", "lower", "wall_s on verify_default"),
    ("oracle.grid_points", "count", "higher", "wall_s on verify_default"),
    ("oracle.threshold_scan.self_s", "s", "lower",
     "wall_s on verify_default, items_per_s on sweep_grid"),
    ("oracle.scan_points", "count", "higher",
     "wall_s on verify_default, items_per_s on sweep_grid"),
    ("qcore.tensor.calls", "count", "lower",
     "items_per_s on sweep_grid, wall_s on verify_default"),
    ("qcore.tensor.s", "s", "lower", "items_per_s on sweep_grid, wall_s on verify_default"),
    ("qcore.validations", "count", "lower",
     "items_per_s on sweep_grid, wall_s on verify_default"),
    ("qcore.validate.s", "s", "lower", "items_per_s on sweep_grid, wall_s on verify_default"),
    ("trace.main_s", "s", "lower", "traced cli.main time; wall_s on every workload"),
    ("trace.untraced_main_s", "s", "lower", "in-process cli.main time; wall_s on every workload"),
    ("trace_overhead_s", "s", "lower", "none: the cost of tracing itself"),
)


class Tracer:
    """Spans and counts of one traced call, kept in memory until :meth:`write_spans`."""

    def __init__(self):
        #: [name, start, end, parent index or -1]
        self.spans = []
        #: name -> [calls, inclusive seconds, self seconds]
        self.stats = {}
        self.counts = Counter()
        #: the RunConfig of the last simulator.run_game call
        self.run_config = None
        self._stack = []  # [span index, seconds covered by child spans]
        self._observers = {
            "simulator.run_game": self._observe_run_game,
            "simulator.write_transcript_csv": self._observe_transcript,
            "oracle.random_lhs_suite": self._observe_lhs_suite,
            "oracle.grid_max_cheat": self._observe_grid,
            "oracle.threshold_scan": self._observe_scan,
        }

    # -- counts taken from arguments and results at layer boundaries --

    def _observe_run_game(self, args, kwargs, result):
        config = args[0] if args else kwargs["config"]
        self.counts["simulator.run_game.rounds"] += config.rounds
        self.run_config = config

    def _observe_transcript(self, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        self.counts["simulator.transcript_bytes"] += os.path.getsize(path)

    def _observe_lhs_suite(self, args, kwargs, result):
        self.counts["oracle.lhs_models"] += result.trials + result.probes

    def _observe_grid(self, args, kwargs, result):
        self.counts["oracle.grid_points"] += result.n_points

    def _observe_scan(self, args, kwargs, result):
        self.counts["oracle.scan_points"] += len(result.rows)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            start = perf_counter()
            spans.append([name, start, start, stack[-1][0] if stack else -1])
            stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                spans[index][2] = end
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - stack.pop()[1]
                if stack:
                    stack[-1][1] += duration
            if observe is not None:
                # the observer's own time falls to the caller's span
                observe(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer's public functions and methods while the block runs."""
        patches = []
        wrappers = {}  # id(original function) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"qrgames.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    patches += self._method_patches(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qrgames" and not mod_name.startswith("qrgames."):
                continue
            for attr, obj in vars(module).items():
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    patches.append((module, attr, obj, entry[1]))
        for owner, attr, _, new in patches:
            setattr(owner, attr, new)
        try:
            yield self
        finally:
            for owner, attr, old, _ in reversed(patches):
                setattr(owner, attr, old)

    def _method_patches(self, layer, cls):
        patches = []
        for attr, obj in vars(cls).items():
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self.wrap(name, obj.__func__))
            elif inspect.isfunction(obj):
                new = self.wrap(name, obj)
            else:
                continue
            patches.append((cls, attr, obj, new))
        return patches

    # -- results --

    def _sum(self, select):
        calls = 0
        total = own = 0.0
        for name, (n, inclusive, self_s) in self.stats.items():
            if select(name):
                calls += n
                total += inclusive
                own += self_s
        return calls, total, own

    def _function(self, layer, function):
        return self._sum(
            lambda name: name.startswith(layer + ".") and name.rsplit(".", 1)[1] == function
        )

    def layer_self_times(self) -> dict:
        return {
            layer: self._sum(lambda name, p=layer + ".": name.startswith(p))[2]
            for layer in LAYERS
        }

    def metrics(self, untraced_main_s: float, peak_mb: float) -> dict:
        """Every metric of :data:`PER_LAYER`; a layer that was bypassed reads 0."""
        main_calls, main_s, _ = self._function("cli", "main")
        if main_calls != 1:
            raise RuntimeError(f"expected one traced cli.main call, saw {main_calls}")
        out = {f"{layer}.self_s": s for layer, s in self.layer_self_times().items()}
        _, run_game_s, run_game_self = self._function("simulator", "run_game")
        rounds = self.counts["simulator.run_game.rounds"]
        out["simulator.run_game.self_s"] = run_game_self
        out["simulator.run_game.ns_per_round"] = 1e9 * run_game_s / rounds if rounds else 0.0
        out["simulator.run_game.peak_mb"] = peak_mb
        for function in ("write_transcript_csv", "write_summary_json", "noisy_equivalence_check"):
            out[f"simulator.{function}.s"] = self._function("simulator", function)[1]
        calls, _, own = self._function("strategies", "outcome_distribution")
        out["strategies.outcome_distribution.calls"] = calls
        out["strategies.outcome_distribution.self_s"] = own
        out["strategies.lhs_payoff_routes.self_s"] = self._function(
            "strategies", "lhs_payoff_routes"
        )[2]
        calls, _, own = self._function("games", "qrs_payoff_exact")
        out["games.qrs_payoff_exact.calls"] = calls
        out["games.qrs_payoff_exact.self_s"] = own
        out["games.functionals.self_s"] = self._sum(GAMES_FUNCTIONALS.__contains__)[2]
        out["oracle.random_lhs_suite.self_s"] = self._function("oracle", "random_lhs_suite")[2]
        out["oracle.grid_max_cheat.s"] = self._function("oracle", "grid_max_cheat")[1]
        out["oracle.threshold_scan.self_s"] = self._function("oracle", "threshold_scan")[2]
        for count in ("simulator.transcript_bytes", "oracle.lhs_models",
                      "oracle.grid_points", "oracle.scan_points"):
            out[count] = self.counts[count]
        calls, total, _ = self._function("qcore", "tensor")
        out["qcore.tensor.calls"] = calls
        out["qcore.tensor.s"] = total
        calls, total, _ = self._sum(QCORE_VALIDATE.__contains__)
        out["qcore.validations"] = calls
        out["qcore.validate.s"] = total
        out["trace.main_s"] = main_s
        out["trace.untraced_main_s"] = untraced_main_s
        out["trace_overhead_s"] = main_s - untraced_main_s
        return out

    def function_stats(self) -> dict:
        """Calls, inclusive and self seconds of every function that ran."""
        return {
            name: {"calls": n, "inclusive_s": total, "self_s": own}
            for name, (n, total, own) in sorted(self.stats.items())
            if n
        }

    def write_spans(self, fh, pass_id: int) -> None:
        """Append the spans as CSV rows, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            fh.write(f"{pass_id},{i},{name},{start - origin!r},{end - origin!r},{parent}\n")
