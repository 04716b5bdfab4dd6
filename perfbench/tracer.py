"""Spans around netepi's public functions, installed from outside the package.

Every span name maps to one or two functions of a netepi module.  Modules that
imported that function by name hold their own reference to it, so the
wrapper is installed on every ``netepi.*`` module attribute that is the same
function object, not only on the defining module.  Model classes are
wrapped on ``rhs_full``.  A site that a later version of the package no
longer has is skipped, and its counters stay at zero.

The tracer keeps, per span name, the number of calls, the total time and the
time covered by child spans, so self time = total - child.  Workloads run
serially (threads=1), so one call stack describes the whole process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from importlib import import_module

# (span name, defining module, function name)
FUNCTIONS = (
    ("cli.execute", "netepi.cli", "execute"),
    ("config.parse", "netepi.config", "parse_config"),
    ("config.build_model", "netepi.config", "build_spec_model"),
    ("config.run_trajectory", "netepi.config", "run_trajectory"),
    ("degree.build", "netepi.degree", "truncated_power_law"),
    ("degree.build", "netepi.degree", "from_weights"),
    ("degree.sample", "netepi.degree", "sample_degrees"),
    ("mixing.hazard", "netepi.mixing", "hazard_profile"),
    ("mixing.hazard_two", "netepi.mixing", "hazard_profile_two"),
    ("ode.integrate", "netepi.ode", "integrate"),
    ("abm.run_ensemble", "netepi.abm", "run_ensemble"),
    ("abm.simulate", "netepi.abm", "simulate_epidemic"),
    ("abm.generate_network", "netepi.abm", "generate_network"),
    ("abm.summarize", "netepi.abm", "summarize_trajectories"),
    ("analysis.sobol", "netepi.analysis", "sobol_first_order"),
    ("analysis.compare", "netepi.analysis", "compare_ode_abm"),
    ("analysis.phase", "netepi.analysis", "phase_series"),
    ("analysis.fit", "netepi.analysis", "fit_parameters"),
)

# functions whose first argument is a model runner; each runner call is one
# model evaluation
RUNNER_TAKERS = ("analysis.sobol", "analysis.fit")


class Tracer:
    """Aggregated spans: calls, total seconds and child seconds per name."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.extra: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def _record(self, name, fn, args, kwargs):
        start = time.perf_counter()
        frame = [0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += frame[0]
            if self._stack:
                self._stack[-1][0] += elapsed

    def wrap(self, name, fn):
        if name in RUNNER_TAKERS:
            @functools.wraps(fn)
            def span(runner, *args, **kwargs):
                def evaluation(*a, **k):
                    return self._record("analysis.model_eval", runner, a, k)
                return self._record(name, fn, (evaluation, *args), kwargs)
        elif name == "abm.simulate":
            signature = inspect.signature(fn)

            @functools.wraps(fn)
            def span(*args, **kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                self.add("abm.node_steps", int(bound["n"]) * int(bound["steps"]))
                self.add("abm.replica_steps", int(bound["steps"]))
                return self._record(name, fn, args, kwargs)
        elif name == "ode.integrate":
            @functools.wraps(fn)
            def span(*args, **kwargs):
                traj = self._record(name, fn, args, kwargs)
                self.add("ode.steps", len(traj.times) - 1)
                return traj
        else:
            @functools.wraps(fn)
            def span(*args, **kwargs):
                return self._record(name, fn, args, kwargs)
        return span

    def add(self, name, amount):
        self.extra[name] = self.extra.get(name, 0) + amount

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total(self, name) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name) -> float:
        entry = self.stats.get(name, [0, 0.0, 0.0])
        return entry[1] - entry[2]


def install(tracer: Tracer) -> list[str]:
    """Wrap every import site of the traced functions; return the sites."""
    import_module("netepi.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "netepi" or name.startswith("netepi."))]
    sites = []
    for span_name, module_name, attr in FUNCTIONS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            continue
        wrapper = tracer.wrap(span_name, original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                sites.append(f"{module.__name__}.{attr}")
    for module in modules:
        for cls in vars(module).values():
            if (inspect.isclass(cls) and cls.__module__ == module.__name__
                    and "rhs_full" in vars(cls)):
                cls.rhs_full = tracer.wrap("ode.rhs", cls.rhs_full)
                sites.append(f"{module.__name__}.{cls.__name__}.rhs_full")
    return sites


def layer_metrics(tracer: Tracer, bytes_written: int) -> dict:
    """Per-layer figures of one traced process (setup and execute)."""
    t = tracer
    replica_steps = t.extra.get("abm.replica_steps", 0)
    simulate_s = t.total("abm.simulate")
    return {
        "mixing.hazard_two_calls": t.calls("mixing.hazard_two"),
        "mixing.hazard_two_s": t.total("mixing.hazard_two"),
        "mixing.hazard_calls": t.calls("mixing.hazard"),
        "mixing.hazard_s": t.total("mixing.hazard"),
        "ode.integrate_calls": t.calls("ode.integrate"),
        "ode.steps": t.extra.get("ode.steps", 0),
        "ode.rhs_calls": t.calls("ode.rhs"),
        "ode.rhs_self_s": t.self_time("ode.rhs"),
        "ode.integrate_self_s": t.self_time("ode.integrate"),
        "abm.replicas": t.calls("abm.simulate"),
        "abm.node_steps": t.extra.get("abm.node_steps", 0),
        "abm.simulate_s": simulate_s,
        "abm.step_ms": 1e3 * simulate_s / replica_steps if replica_steps else 0.0,
        "abm.generate_network_s": t.total("abm.generate_network"),
        "abm.summarize_s": t.total("abm.summarize"),
        "config.parse_s": t.total("config.parse"),
        "config.build_model_calls": t.calls("config.build_model"),
        "config.build_model_s": t.total("config.build_model"),
        "degree.build_calls": t.calls("degree.build"),
        "degree.build_s": t.total("degree.build"),
        "degree.sample_s": t.total("degree.sample"),
        "analysis.model_evals": t.calls("analysis.model_eval"),
        "analysis.sobol_self_s": t.self_time("analysis.sobol"),
        "analysis.compare_s": t.total("analysis.compare"),
        "cli.execute_s": t.total("cli.execute"),
        "cli.self_s": t.self_time("cli.execute"),
        "cli.bytes_written": bytes_written,
    }
