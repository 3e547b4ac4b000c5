"""Spans around the public functions of difftrace's layers, and a profile
grouped by source file.

The tracer replaces each public function of a layer, in every difftrace
module namespace that binds it, with a wrapper that records a span: name,
start, end, parent span, and the reduction steps of the ambient StepBudget
at entry and at exit.  A layer's self time is the time of its spans minus
the time of their child spans.  Polynomial arithmetic (the ``poly`` layer)
and Fraction arithmetic run once per term; a span on each call would cost
more than the work, so their time is measured by the separate cProfile pass
instead (see ``profile_by_file``).
"""

from __future__ import annotations

import cProfile
import functools
import inspect
import json
import pstats
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# The layers that get spans, innermost last.
LAYERS = ("cli", "ringfile", "simplicial", "constructions", "traces",
          "rings", "modsyz", "groebner")

# Public helpers that run once per term, pair or reduction step.  A span on
# each would cost more than the call; their time counts in the caller.
# step_budget is a context manager; StepRecorder wraps it on its own.
PER_TERM = frozenset({
    "groebner.step_budget", "groebner.current_budget", "groebner.default_order",
    "groebner.leading_monomial", "groebner.leading_coefficient", "groebner.monic",
    "groebner.StepBudget.tick", "groebner.WeightedGrevlex.key",
    "groebner.BlockOrder.key",
    "modsyz.Vector.lead", "modsyz.Vector.lead_coefficient", "modsyz.Vector.scale",
    "modsyz.Vector.sub_scaled",
})

# Files whose self time the profiled pass reports, by metric prefix.
PROFILED_FILES = {"poly": "difftrace/poly.py", "fractions": "fractions.py"}


def _namespaces():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "difftrace" or name.startswith("difftrace."))]


def _rebind(original, replacement):
    """Bind replacement wherever a difftrace module binds original."""
    for module in _namespaces():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def public_callables(layer_module):
    """(qualified name, owner, attribute, function) for every public function
    of the module and every public method of its public classes."""
    layer = layer_module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(layer_module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != layer_module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", layer_module, name, obj))
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    out.append((f"{layer}.{name}.{attr}", obj, attr, member))
    return [entry for entry in out if entry[0] not in PER_TERM]


class StepRecorder:
    """Records every StepBudget that the public step_budget yields.

    The steps of an item are the ticks on the budgets opened while it ran:
    the one a workload opens around a library call, or the one cli.main
    opens for each command.
    """

    def __init__(self):
        import difftrace.groebner as groebner

        self.budgets = []
        original = groebner.step_budget
        recorder = self

        @contextmanager
        def step_budget(limit):
            with original(limit) as budget:
                recorder.budgets.append(budget)
                yield budget

        _rebind(original, step_budget)

    def take(self) -> int:
        """Steps ticked on the budgets opened since the last take()."""
        used = sum(b.used for b in self.budgets)
        self.budgets.clear()
        return used


class Tracer:
    """Span recorder for the public functions of LAYERS."""

    def __init__(self):
        import difftrace.groebner as groebner

        self._budget = groebner.current_budget
        self.spans: list[tuple] = []      # name, start, end, parent, steps in, steps out
        self._stack: list[int] = []
        self._active = [True]
        self.counters: dict[str, int] = {}
        self.maxima: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def install(self):
        import importlib

        for layer in LAYERS:
            module = importlib.import_module(f"difftrace.{layer}")
            for qualname, owner, attr, fn in public_callables(module):
                wrapper = self._wrap(qualname, fn)
                if inspect.isclass(owner):
                    setattr(owner, attr, wrapper)
                else:
                    _rebind(fn, wrapper)

    def _wrap(self, qualname, fn):
        observe = _OBSERVERS.get(qualname)
        spans, stack, budget = self.spans, self._stack, self._budget
        active, clock = self._active, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if observe is not None:
                args, kwargs, after = observe(self, args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            steps_in = budget().used
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (qualname, start, end, parent, steps_in, budget().used)
            if observe is not None:
                after(result)
            return result

        return wrapper

    def count(self, key: str, n: int = 1):
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, value: int):
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    @contextmanager
    def paused(self):
        """Run the enclosed calls without spans (the benchmark's own checks)."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    @contextmanager
    def root(self, name: str):
        """A span for benchmark code around a call into the layers."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        steps_in = self._budget().used
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, steps_in, self._budget().used)

    # -- reporting ---------------------------------------------------------

    def self_times(self):
        """Per span name: calls, self seconds, self steps and total seconds."""
        child_time = [0.0] * len(self.spans)
        child_steps = [0] * len(self.spans)
        for name, start, end, parent, s_in, s_out in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                # a child under another budget (cli.main opens its own) did
                # not tick its parent's budget
                child_steps[parent] += max(s_out - s_in, 0)
        table: dict[str, list] = {}
        for i, (name, start, end, parent, s_in, s_out) in enumerate(self.spans):
            row = table.setdefault(name, [0, 0.0, 0, 0.0])
            row[0] += 1
            row[1] += end - start - child_time[i]
            row[2] += max(s_out - s_in, 0) - child_steps[i]
            row[3] += end - start
        return table

    def metrics(self) -> dict:
        table = self.self_times()
        out = {}
        for layer in LAYERS:
            rows = [row for name, row in table.items()
                    if name.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = (sum(r[1] for r in rows), "s")
            out[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
            if layer in ("modsyz", "groebner"):
                out[f"{layer}.steps"] = (sum(r[2] for r in rows), "count")
        for name, fields in _FUNCTION_METRICS.items():
            calls, self_s, _, total_s = table.get(name, (0, 0.0, 0, 0.0))
            for field in fields:
                key = f"{name}.{field}"
                if field == "self_s":
                    out[key] = (self_s, "s")
                elif field == "total_s":
                    out[key] = (total_s, "s")
                elif field == "calls":
                    out[key] = (calls, "count")
                elif field.endswith("_max"):
                    out[key] = (self.maxima.get(key, 0), "count")
                else:
                    out[key] = (self.counters.get(key, 0), "count")
        return out

    def dump(self, path: Path):
        """Write the spans as JSON lines: name, start, end, parent, steps."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, s_in, s_out in self.spans:
                handle.write(json.dumps([name, round(start, 7), round(end, 7),
                                         parent, s_in, s_out]) + "\n")


# -- per-function observers: counts taken at the call boundary ---------------

def _observe_module_groebner(tracer, args, kwargs):
    gens = list(args[0])
    rank = 1 + max((max(g.comps) for g in gens if g.comps), default=-1)
    tracer.count("modsyz.module_groebner.gens_in", len(gens))
    tracer.peak("modsyz.module_groebner.rank_max", rank)

    def after(basis):
        tracer.count("modsyz.module_groebner.basis_out", len(basis))
    return (gens,) + tuple(args[1:]), kwargs, after


def _observe_exterior_power(tracer, args, kwargs):
    def after(presentation):
        tracer.count("modsyz.exterior_power_presentation.relations_out",
                     len(presentation.columns))
        tracer.peak("modsyz.exterior_power_presentation.rank_max",
                    presentation.target_rank)
    return args, kwargs, after


def _observe_buchberger(tracer, args, kwargs):
    gens = list(args[0])
    tracer.count("groebner.buchberger.gens_in", len(gens))

    def after(basis):
        tracer.count("groebner.buchberger.basis_out", len(basis))
    return (gens,) + tuple(args[1:]), kwargs, after


def _observe_diff_trace(tracer, args, kwargs):
    algebra = args[0] if args else kwargs["S"]
    power = args[1] if len(args) > 1 else kwargs["power"]
    if power in algebra._trace_cache:
        tracer.count("traces.diff_trace.cache_hits")
    return args, kwargs, lambda result: None


_OBSERVERS = {
    "modsyz.module_groebner": _observe_module_groebner,
    "modsyz.exterior_power_presentation": _observe_exterior_power,
    "groebner.buchberger": _observe_buchberger,
    "traces.diff_trace": _observe_diff_trace,
}

# Single functions reported on their own, with the fields each reports.
_FUNCTION_METRICS = {
    "modsyz.module_groebner": ("self_s", "total_s", "calls", "gens_in", "basis_out",
                               "rank_max"),
    "modsyz.exterior_power_presentation": ("rank_max", "relations_out"),
    "groebner.buchberger": ("self_s", "total_s", "calls", "gens_in", "basis_out"),
    "groebner.minimalize_homogeneous": ("self_s", "total_s", "calls"),
    "traces.diff_trace": ("calls", "cache_hits"),
    "simplicial.iso_classes": ("self_s",),
}


# -- profiled pass -----------------------------------------------------------------

def profile_by_file(profile: cProfile.Profile) -> dict:
    """Self seconds of the functions defined in each file of PROFILED_FILES,
    and the total self seconds the profile saw."""
    stats = pstats.Stats(profile).stats
    out = {key: 0.0 for key in PROFILED_FILES}
    total = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in stats.items():
        total += tottime
        for key, suffix in PROFILED_FILES.items():
            if filename.endswith("/" + suffix):
                out[key] += tottime
    return {"by_file": out, "total": total}
