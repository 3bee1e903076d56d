"""Per-layer timing by wrapping the package's public functions from
outside. Nothing in `src/` changes.

Every public function defined in one of the layer modules is replaced,
in every loaded `mwkmeans` module that holds it by name, with a wrapper
that records its self time (its duration minus that of the wrapped calls
it makes). Self times therefore partition the time spent inside
`mwkmeans.cli.main`. A few wrappers also count the work a call did
(cells, rows, runs, iterations); those counts repeat exactly for a given
seed.

A function that a refactor has removed or renamed yields a null metric
with a note, not a crash.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "data", "engine", "geometry", "core", "weighting", "theory", "verify")

# metric -> functions ("module.function") whose self times it sums
FUNCTION_TIMES = {
    "data.load_csv_s": ["data.load_csv"],
    "data.generate_s": ["data.generate"],
    "data.range_normalise_s": ["data.range_normalise"],
    "engine.assign_s": ["engine.assign_points"],
    "engine.centroids.self_s": ["engine.update_centroids"],
    "engine.run.self_s": ["engine.run"],
    "geometry.center_s": ["geometry.minkowski_center_columns"],
    "core.dispersions_s": ["core.compute_dispersions"],
    "weighting.update_weights_s": ["weighting.update_weights"],
    "theory.bounds_s": ["theory.objective_bounds"],
    "theory.objective_s": [
        "theory.objective_via_dispersions",
        "theory.objective_via_power_means",
        "theory.normalised_objective",
    ],
    "theory.means_s": ["theory.power_mean", "theory.geometric_mean"],
}

CELL_P = {1.1: "cell_s.p1.1", 1.5: "cell_s.p1.5", 2.0: "cell_s.p2", 5.0: "cell_s.p5"}

# metric -> the function whose calls it counts
COUNTS = {
    "data.load_csv.cells": "data.load_csv",
    "engine.assign.cells": "engine.assign_points",
    "engine.runs": "engine.run",
    "engine.iterations": "engine.run",
    "engine.max_iter_stops": "engine.run",
    "engine.repair_iterations": "engine.run",
    "geometry.center.calls": "geometry.minkowski_center_columns",
    "geometry.center.cells": "geometry.minkowski_center_columns",
    "weighting.update_weights.rows": "weighting.update_weights",
    **{metric: "engine.run_restarts" for metric in CELL_P.values()},
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _shape(a):
    return getattr(a, "values", a).shape


def _load_csv(counts, args, kwargs, result, elapsed):
    counts["data.load_csv.cells"] += result.values.size


def _assign(counts, args, kwargs, result, elapsed):
    n, m = _shape(_arg(args, kwargs, 0, "dataset"))
    k = len(_arg(args, kwargs, 1, "centroids"))
    counts["engine.assign.cells"] += n * k * m


def _center(counts, args, kwargs, result, elapsed):
    counts["geometry.center.calls"] += 1
    counts["geometry.center.cells"] += _arg(args, kwargs, 0, "matrix").size


def _update_weights(counts, args, kwargs, result, elapsed):
    counts["weighting.update_weights.rows"] += result.shape[0]


def _run(counts, args, kwargs, result, elapsed):
    counts["engine.runs"] += 1
    counts["engine.iterations"] += result.iterations
    counts["engine.max_iter_stops"] += not result.converged
    counts["engine.repair_iterations"] += len(result.repair_iterations)


def _run_restarts(counts, args, kwargs, result, elapsed):
    p = _arg(args, kwargs, 1, "config").p
    if p in CELL_P:
        counts[CELL_P[p]] += elapsed


HOOKS = {
    "data.load_csv": _load_csv,
    "engine.assign_points": _assign,
    "geometry.minkowski_center_columns": _center,
    "weighting.update_weights": _update_weights,
    "engine.run": _run,
    "engine.run_restarts": _run_restarts,
}


class Tracer:
    """Installs the wrappers and accumulates self times and counts."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.notes: list[str] = []
        self.wrapped: set[str] = set()
        self._stack: list[float] = []

    def _wrap(self, qualname, fn):
        hook = HOOKS.get(qualname)
        stack = self._stack
        self_s, counts, notes = self.self_s, self.counts, self.notes

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[qualname] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                try:
                    hook(counts, args, kwargs, result, elapsed)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    notes.append(f"count hook for {qualname} failed: {exc!r}")
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"mwkmeans.{layer}")
            except ImportError:
                self.notes.append(f"module mwkmeans.{layer} not found; its metrics are null")
                continue
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    qualname = f"{layer}.{name}"
                    wrappers[id(fn)] = self._wrap(qualname, fn)
                    self.wrapped.add(qualname)
        _replace_everywhere(wrappers)
        needed = {q for functions in FUNCTION_TIMES.values() for q in functions}
        for qualname in sorted((needed | set(COUNTS.values())) - self.wrapped):
            self.notes.append(f"mwkmeans.{qualname} not found; its layer metrics are null")

    def metrics(self) -> dict:
        """Per-layer metric values; None where the layer is missing."""
        out = {}
        for layer in LAYERS:
            present = any(q.startswith(layer + ".") for q in self.wrapped)
            total = sum(v for q, v in self.self_s.items() if q.startswith(layer + "."))
            out[f"{layer}.self_s"] = total if present else None
        for metric, functions in FUNCTION_TIMES.items():
            if all(q in self.wrapped for q in functions):
                out[metric] = sum(self.self_s.get(q, 0.0) for q in functions)
            else:
                out[metric] = None
        for metric, qualname in COUNTS.items():
            out[metric] = self.counts.get(metric, 0) if qualname in self.wrapped else None
        out["engine.assign.ns_per_cell"] = _ns_per(out["engine.assign_s"], out["engine.assign.cells"])
        out["geometry.center.ns_per_cell"] = _ns_per(out["geometry.center_s"], out["geometry.center.cells"])
        out["trace.self_total_s"] = sum(self.self_s.values())
        return out


def _replace_everywhere(wrappers):
    """Replaces each wrapped function (keyed by id) in every loaded
    `mwkmeans` module that holds it by name."""
    for modname, module in list(sys.modules.items()):
        if modname == "mwkmeans" or modname.startswith("mwkmeans."):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, name, wrappers[id(obj)])


class IterationCounter:
    """Counts engine iterations in untraced runs, as the work done by a
    clustering request. Wraps `engine.run_restarts` wherever it is held
    by name and sums `iterations` over the reports it returns: one call
    per request, no timing. `iterations` is None once the count fails,
    with the reason in `note`."""

    def __init__(self):
        self.iterations: int | None = 0
        self.note: str | None = None

    def install(self):
        import mwkmeans.engine as engine

        fn = getattr(engine, "run_restarts", None)
        if not inspect.isfunction(fn):
            self.iterations, self.note = None, "mwkmeans.engine.run_restarts not found; iterations are not counted"
            return

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.iterations is not None:
                try:
                    self.iterations += sum(r.iterations for r in result[1])
                except (AttributeError, IndexError, TypeError) as exc:
                    self.iterations, self.note = None, f"iterations not counted: {exc!r}"
            return result

        _replace_everywhere({id(fn): wrapper})


def _ns_per(seconds, cells):
    if seconds is None or cells is None:
        return None
    return seconds * 1e9 / cells if cells else 0.0
