"""Span tracer that times eameval's layers from outside the package.

install() rebinds every public function of every loaded eameval module,
in each eameval module namespace that holds it, and wraps the public
methods and properties of the classes those modules define. Each call
records a span (operation, name, start, end, parent span) in memory;
dump() writes them out once, at the end of a run, and aggregate() turns
them into per-function self time and call counts. A span's self time is
its duration minus the durations of the spans it directly caused.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "eameval"


def _fit_iterations(args, kwargs, result):
    return "model.fit_blr.iterations", result.iterations


def _svg_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return "svg.render_curves.bytes", os.path.getsize(path)


# Counters read off a traced call's arguments or result, by span name.
COUNTERS = {"model.fit_blr": _fit_iterations, "svg.render_curves": _svg_bytes}


class Tracer:
    def __init__(self) -> None:
        self.op = "setup"
        self.spans: list[list] = []  # [op, name, start, end, parent index]
        self.counters: list[list] = []  # [op, name, value]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def span(self, name: str, start: float, end: float) -> None:
        """Record a span measured by the caller, such as an import."""
        self.spans.append([self.op, name, start, end, -1])

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = [self.op, name, start, end, parent]
            if counter is not None:
                self.counters.append([self.op, *counter(args, kwargs, result)])
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and key.startswith(PACKAGE + ".")
        ]
        namespaces = modules + [sys.modules[PACKAGE]]
        for module in modules:
            layer = module.__name__[len(PACKAGE) + 1:]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    traced = self._wrap(f"{layer}.{attr}", obj)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, key, traced)
                elif inspect.isclass(obj):
                    self._install_class(f"{layer}.{attr}", obj)

    def _install_class(self, prefix: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if inspect.isfunction(member):
                self._patch(cls, attr, self._wrap(name, member))
            elif isinstance(member, property) and member.fget is not None:
                wrapped = property(self._wrap(name, member.fget), member.fset, member.fdel, member.__doc__)
                self._patch(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        Path(path).write_text(
            json.dumps({"spans": self.spans, "counters": self.counters}), encoding="utf-8"
        )


def aggregate(trace: dict) -> dict[str, dict[str, float]]:
    """Per operation: {metric name: value} with <name>.self_s, <name>.calls and counters."""
    spans = trace["spans"]
    ops: dict = defaultdict(lambda: defaultdict(float))
    for op, name, start, end, parent in spans:
        duration = end - start
        ops[op][f"{name}.self_s"] += duration
        ops[op][f"{name}.calls"] += 1
        if parent >= 0:
            ops[op][f"{spans[parent][1]}.self_s"] -= duration
    for op, name, value in trace["counters"]:
        ops[op][name] += value
    return {op: dict(values) for op, values in ops.items()}
