"""Span recorder installed from outside the program.

``Tracer.install()`` replaces each traced public function with a wrapper, on
every relaygame module that holds a reference to it, so that a call made
through ``report.run_simulation`` is caught as well as one through
``sim.run_simulation``.  ``uninstall()`` restores the originals, so untraced
operations run the program's own function objects.  Spans (name, start, end,
parent, operation id) are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

#: Traced functions by module.  Private helpers are left to their caller's
#: self time.
TRACED = {
    "cli": ("main",),
    "scenario": ("load_scenario", "scenario_from_dict", "scenario_to_dict",
                 "scenario_hash", "presets"),
    "game": ("solve_equilibrium", "verify_equilibrium", "diagnostic_attack_strategy"),
    "channel": ("outage_closed_form", "outage_sr_link", "ber_direct", "ber_diversity",
                "ber_end_to_end", "packet_success", "outage_monte_carlo"),
    "throughput": ("throughput_for_mode", "throughput_general", "throughput_sr",
                   "throughput_gbn", "optimize_messages", "min_auth_probability",
                   "compromising_probability"),
    "sim": ("run_simulation", "estimate_compromise_curve", "policy_auth_probs"),
    "report": ("build_solve_report", "build_sweep_n_report", "build_sweep_auth_report",
               "build_simulation_report", "build_outage_crosscheck",
               "bundle_to_json", "bundle_to_csv"),
}


@dataclass
class Span:
    id: int
    name: str           # "<module>.<function>", or "op" for a benchmark operation
    start_ns: int
    end_ns: int = 0
    parent: int | None = None
    op: int = 0
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


def _sim_info(args, kwargs, result) -> dict:
    sim = kwargs.get("sim", args[1] if len(args) > 1 else None)
    per_episode = 2 + 2 * sim.packets_per_episode + 3       # computed, not counted
    if sim.refined_detection:
        per_episode += sim.packets_per_episode
    return {"episodes": sim.episodes, "rng_draws": sim.episodes * per_episode}


def _mc_info(args, kwargs, result) -> dict:
    trials = kwargs.get("trials", args[1] if len(args) > 1 else None)
    return {"draws": 3 * trials}                            # computed, not counted


def _json_info(args, kwargs, result) -> dict:
    return {"bytes": len(result)}


_INFO = {
    "sim.run_simulation": _sim_info,
    "channel.outage_monte_carlo": _mc_info,
    "report.bundle_to_json": _json_info,
}


PACKAGE = "relaygame"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), name, time.perf_counter_ns(),
                    parent=self._stack[-1].id if self._stack else None, op=self.op)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        info = _INFO.get(name)
        peak = name == "sim.run_simulation"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            if peak:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if peak:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.end(span)
            if info is not None:
                span.info.update(info(args, kwargs, result))
            return result
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for short, funcs in TRACED.items():
            home = modules[f"{PACKAGE}.{short}"]
            for fname in funcs:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------------

    def self_ms(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.ms for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.ms
        return own

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "op": s.op, "start_ns": s.start_ns,
                                     "end_ns": s.end_ns, **s.info}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the recorded spans: name -> (value, unit)."""
    spans = tracer.spans
    own = tracer.self_ms()

    def self_ms(*names: str) -> float:
        return sum(own[s.id] for s in spans if s.name in names)

    def count(*names: str) -> int:
        return sum(1 for s in spans if s.name in names)

    def total(name: str, key: str) -> int:
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    def outermost(*names: str) -> int:
        return sum(1 for s in spans if s.name in names
                   and (s.parent is None or spans[s.parent].name not in names))

    closed_form = ("channel.outage_closed_form", "channel.outage_sr_link",
                   "channel.ber_direct", "channel.ber_diversity",
                   "channel.ber_end_to_end", "channel.packet_success")
    evals = ("throughput.throughput_general", "throughput.throughput_sr",
             "throughput.throughput_gbn")
    report_build = tuple(f"report.{f}" for f in TRACED["report"]
                         if f != "bundle_to_json")
    peak = max((s.info.get("peak_bytes", 0) for s in spans
                if s.name == "sim.run_simulation"), default=0)
    return {
        "sim.run_ms": (self_ms("sim.run_simulation"), "ms"),
        "sim.runs": (count("sim.run_simulation"), "count"),
        "sim.episodes": (total("sim.run_simulation", "episodes"), "count"),
        "sim.rng_draws": (total("sim.run_simulation", "rng_draws"), "count"),
        "sim.traced_peak_mb": (peak / 2 ** 20, "MB"),
        "channel.outage_mc_ms": (self_ms("channel.outage_monte_carlo"), "ms"),
        "channel.outage_mc_draws": (total("channel.outage_monte_carlo", "draws"), "count"),
        "channel.closed_form_ms": (self_ms(*closed_form), "ms"),
        "channel.closed_form_calls": (count(*closed_form), "count"),
        "game.solve_ms": (self_ms("game.solve_equilibrium"), "ms"),
        "game.solves": (count("game.solve_equilibrium"), "count"),
        "game.verify_ms": (self_ms("game.verify_equilibrium"), "ms"),
        "throughput.eval_ms": (self_ms("throughput.throughput_for_mode", *evals), "ms"),
        "throughput.evals": (count(*evals), "count"),
        "throughput.optimize_ms": (self_ms("throughput.optimize_messages"), "ms"),
        "scenario.load_ms": (self_ms("scenario.load_scenario", "scenario.scenario_from_dict",
                                     "scenario.presets"), "ms"),
        "scenario.loads": (outermost("scenario.load_scenario",
                                     "scenario.scenario_from_dict"), "count"),
        "scenario.to_dict_ms": (self_ms("scenario.scenario_to_dict",
                                        "scenario.scenario_hash"), "ms"),
        "report.self_ms": (self_ms(*report_build), "ms"),
        "report.json_ms": (self_ms("report.bundle_to_json"), "ms"),
        "report.bundle_bytes": (total("report.bundle_to_json", "bytes"), "bytes"),
        "cli.self_ms": (self_ms("cli.main"), "ms"),
        "cli.calls": (count("cli.main"), "count"),
    }
