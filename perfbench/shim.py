"""Per-layer tracing from outside the program: wrap the public functions of
each ``sdegraph`` module and record calls, self time and call durations.

``cli`` and ``metrics`` bind names with ``from .x import y``, so a function
is replaced in every ``sdegraph`` module namespace that binds it, and
:func:`install` fails if any binding of a traced function is left
unwrapped afterwards. Self time is a call's duration minus the time spent
in traced calls it made.
"""
from __future__ import annotations

import json
import sys
import time
from array import array

import numpy as np

TRACED = {
    "io": ("parse_graph6", "parse_weighted_edge_list", "write_records_csv"),
    "graph": ("classify", "connected_components", "degree_sequence", "add_link"),
    "spectral": ("spectral_radius", "full_spectrum"),
    "solver": ("sde", "solve_bisection", "f1", "bounds"),
    "metrics": ("metric_suite", "local_efficiency", "bfs_distances", "count_bridges",
                "mean_local_clustering", "assortativity"),
    "families": ("er_graph", "ba_graph", "family_q"),
}
COMMANDS = ("compute", "batch", "correlate", "ensemble", "nonmonotonic", "asymptotics")


class Stat:
    def __init__(self):
        self.self_ns = 0
        self.durations = array("q")
        self.errors: dict[str, int] = {}
        self.classified = 0
        self.iterations = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child_ns = [0]  # stack: traced time inside the open call

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        stack = self._child_ns
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                stat.errors[kind] = stat.errors.get(kind, 0) + 1
                raise
            finally:
                dt = clock() - t0
                stat.self_ns += dt - stack.pop()
                stack[-1] += dt
                stat.durations.append(dt)
            if name == "solver.sde":
                stat.classified += result.method == "classified"
            elif name == "solver.solve_bisection":
                stat.iterations += result.iterations
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def dump(self, path: str) -> None:
        """Write counts and totals as JSON and durations as ``<path>.npz``."""
        summary = {name: {"calls": len(s.durations), "self_ns": s.self_ns,
                          "errors": s.errors, "classified": s.classified,
                          "iterations": s.iterations}
                   for name, s in self.stats.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        np.savez(path + ".npz", **{name: np.frombuffer(s.durations, dtype=np.int64)
                                   for name, s in self.stats.items()})


def _patch_everywhere(original, wrapper, modules) -> int:
    patched = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                patched += 1
    return patched


def install() -> Tracer:
    """Wrap every traced function and CLI command in all loaded sdegraph
    modules; raise RuntimeError if a binding would escape the trace."""
    import sdegraph.cli as cli
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "sdegraph" or name.startswith("sdegraph."))]
    tracer = Tracer()
    originals = []
    for layer, names in TRACED.items():
        mod = sys.modules[f"sdegraph.{layer}"]
        for fn_name in names:
            original = getattr(mod, fn_name)
            originals.append(original)
            _patch_everywhere(original, tracer.wrap(f"{layer}.{fn_name}", original), modules)
    for command in COMMANDS:
        original = getattr(cli, f"cmd_{command}")
        originals.append(original)
        _patch_everywhere(original, tracer.wrap(f"cli.{command}", original), modules)
    ids = {id(f) for f in originals}
    for mod in modules:
        for attr, value in vars(mod).items():
            if id(value) in ids:
                raise RuntimeError(f"{mod.__name__}.{attr} still binds an untraced function")
            if isinstance(value, (dict, list, tuple)) and any(
                    id(v) in ids for v in (value.values() if isinstance(value, dict) else value)):
                raise RuntimeError(f"{mod.__name__}.{attr} holds an untraced function")
    return tracer
