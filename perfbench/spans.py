"""Span tracing of fedcollab from outside the package.

``install`` wraps every public module-level function of the loaded
fedcollab modules and the public methods of ``UsageGraph``, rebinding
each wrapped name in every module that imported it, and returns a
function that restores the originals. Each call records a span (name,
start, end, parent) in flat arrays that are kept in memory and written
out by ``Tracer.save``; self time is the span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Called once per output token; wrapping it would cost more than it
# measures and would inflate the self time of every serializer.
SKIP = {"formats.node_label"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # (method, task seed, scores) of every fedtrain.train call
        self.train_results: list[tuple[str, object, bytes]] = []
        self._stack: list[list] = []  # [span index, start, child seconds]

    def enter(self, name: str) -> None:
        idx = len(self.start)
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        self.name.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        self._stack.append([idx, now, 0.0])

    def exit(self) -> None:
        now = time.perf_counter()
        idx, began, children = self._stack.pop()
        self.end[idx] = now
        duration = now - began
        name = self.names[self.name[idx]]
        self.self_s[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def duplicate_train_calls(self) -> int:
        """Non-local train calls whose scores equal those of the latest
        local call with the same task seed (both presets share seeds)."""
        latest_local, count = {}, 0
        for method, seed, scores in self.train_results:
            if method == "local":
                latest_local[seed] = scores
            elif latest_local.get(seed) == scores:
                count += 1
        return count

    def save(self, path) -> None:
        """Write every span as flat arrays: span k is named names[name[k]],
        runs from start[k] to end[k] (perf_counter seconds) and was called
        from span parent[k] (-1 for a root)."""
        np.savez(path, names=np.array(self.names), start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end), name=np.frombuffer(self.name, dtype=np.int64),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced


def _wrap_train(tracer: Tracer, fn):
    """fedtrain.train gets one span name per method, and its scores are kept
    to count trainings that only repeat ``local``."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        method = args[1] if len(args) > 1 else kwargs["method"]
        tracer.enter(f"fedtrain.train.{method}")
        try:
            scores = fn(*args, **kwargs)
        finally:
            tracer.exit()
        tracer.train_results.append((method, kwargs.get("seed"), scores.tobytes()))
        return scores
    return traced


def install(tracer: Tracer):
    modules = {name: mod for name, mod in list(sys.modules.items())
               if mod is not None and (name == "fedcollab" or name.startswith("fedcollab."))
               and not name.startswith("fedcollab._kernels")}
    wrappers = {}
    for mod_name, mod in modules.items():
        short = mod_name.removeprefix("fedcollab.")
        for attr, fn in vars(mod).items():
            qual = f"{short}.{attr}"
            if (attr.startswith("_") or qual in SKIP or not inspect.isfunction(fn)
                    or fn.__module__ != mod_name or inspect.isgeneratorfunction(fn)):
                continue
            wrappers[fn] = _wrap_train(tracer, fn) if qual == "fedtrain.train" else _wrap(tracer, qual, fn)

    patches = []
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((mod, attr, value))
                setattr(mod, attr, wrappers[value])
    usage_graph = modules["fedcollab.graphs"].UsageGraph
    for attr, fn in list(vars(usage_graph).items()):
        if not attr.startswith("_") and inspect.isfunction(fn):
            patches.append((usage_graph, attr, fn))
            setattr(usage_graph, attr, _wrap(tracer, f"graphs.UsageGraph.{attr}", fn))

    def uninstall() -> None:
        for owner, attr, original in patches:
            setattr(owner, attr, original)
    return uninstall
