"""Span tracer that wraps the public functions of every ``qndspin`` layer.

Each public function defined in a layer module is replaced by a wrapper at
every place the name is bound inside the package (its own module and every
module that imported it with ``from .x import f``), so calls between
modules are caught as well as calls from the benchmark.  A call records one
span ``(name, layer, start, end, parent)``.  Spans stay in memory until
the run ends; ``uninstall`` puts every original function back.

Only the benchmark's files are touched; the program itself is not edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

# Layer of each module; ``config`` belongs to the ``cli`` layer.
LAYER_OF_MODULE = {
    "rotations": "rotations",
    "hyperfine": "hyperfine",
    "measurement": "measurement",
    "control": "control",
    "cascade": "cascade",
    "stability": "stability",
    "trajectory": "trajectory",
    "nv": "nv",
    "cli": "cli",
    "config": "cli",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF_MODULE.values()))
PACKAGE = "qndspin"


class Tracer:
    """Installs span-recording wrappers and collects the spans in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, layer: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in LAYER_OF_MODULE
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            layer = LAYER_OF_MODULE[short]
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}", layer)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def summarize(spans) -> dict:
    """Calls, self time and inclusive time per layer and per function.

    A span's self time is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.  A function's
    inclusive time counts only its outermost calls, so recursion through the
    same name is not counted twice.  ``root_s`` is the summed duration of
    the spans that have no parent.
    """
    child_time = [0.0] * len(spans)
    for name, layer, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_self = defaultdict(float)
    layer_calls = defaultdict(int)
    fn_total = defaultdict(float)
    fn_calls = defaultdict(int)
    root_s = 0.0
    for i, (name, layer, start, end, parent) in enumerate(spans):
        duration = end - start
        layer_self[layer] += duration - child_time[i]
        layer_calls[layer] += 1
        fn_calls[name] += 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][4]
        if ancestor < 0:
            fn_total[name] += duration
        if parent < 0:
            root_s += duration
    return {
        "layer_self": dict(layer_self),
        "layer_calls": dict(layer_calls),
        "fn_total": dict(fn_total),
        "fn_calls": dict(fn_calls),
        "root_s": root_s,
        "spans": len(spans),
    }
