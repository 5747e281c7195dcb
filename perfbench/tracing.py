"""In-memory span recorder around the public functions of each layer.

Every public function a layer module defines is wrapped in every spinchain
namespace that binds it (`cli` and `verify` import `solve_level` by name,
and calls inside a module go through its globals), so calls between layers
and inside a layer are both recorded. Wrappers exist only between
`install()` and `uninstall()`; untraced ops run the original functions.
Spans are kept in flat arrays and summarised, or written, at the end.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "bethe", "mathieu", "classical", "stereo", "verify")


def _observe_solve_level(counters, args, kwargs, result):
    counters["bethe.branches_returned"] += len(result)
    counters["bethe.branches_expected"] += args[0] + 1


def _observe_mathieu_solve(counters, args, kwargs, result):
    counters["mathieu.truncation_sum"] += result.problem.truncation


def _observe_integrate_static(counters, args, kwargs, result):
    counters["classical.rk4_steps"] += len(result.z_grid) - 1


# work counts read off return values at the layer boundary
OBSERVERS = {
    "bethe.solve_level": _observe_solve_level,
    "mathieu.solve": _observe_mathieu_solve,
    "classical.integrate_static": _observe_integrate_static,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, object]] = []
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == "spinchain" or name.startswith("spinchain.")
        }
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"spinchain.{layer}"]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod in modules.values():
            for attr, value in vars(mod).items():
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._patches.append((mod, attr, value, wrapped[id(value)][1]))

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        stack, name_of, parent, t0, t1 = self._stack, self.name_of, self.parent, self.t0, self.t1
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(t0)
            name_of.append(name_id)
            parent.append(stack[-1])
            t1.append(0.0)
            stack.append(idx)
            t0.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                t1[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    def summary(self) -> dict[str, float]:
        """Totals over all recorded spans, keyed `<layer>[.<function>].<what>`.

        A span's self time is its duration minus its direct children's
        durations; a layer's time counts only spans whose parent lies in
        another layer, so nested calls inside a layer are not counted twice.
        """
        n = len(self.t0)
        dur = [self.t1[i] - self.t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[self.name_of[i]]
            layer = layer_of[self.name_of[i]]
            ms = dur[i] * 1e3
            out[f"{name}.calls"] += 1
            out[f"{name}.ms"] += ms
            out[f"{name}.self_ms"] += (dur[i] - child[i]) * 1e3
            out[f"{name}.max_ms"] = max(out[f"{name}.max_ms"], ms)
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_ms"] += (dur[i] - child[i]) * 1e3
            p = self.parent[i]
            if p < 0 or layer_of[self.name_of[p]] != layer:
                out[f"{layer}.ms"] += ms
        out.update(self.counters)
        return out

    def dump(self, path: str) -> None:
        """Write every span as (name, parent index, t0, t1) to an .npz file."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_of=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=np.float64),
            t1=np.frombuffer(self.t1, dtype=np.float64),
        )
