"""Spans at the boundaries between divflag's modules, recorded from outside.

``Tracer.install(lib)`` replaces every function that a divflag module binds
at module level, its own and those it imports from another divflag module,
with a wrapper labelled by the module that defines the function.  Modules
read these bindings at call time, so calls made inside the program go
through the wrappers too.  A call opens a span only when it crosses into
another layer; a call within its own layer passes through and is only
counted.  Field arithmetic methods (``QQ.add`` and the like) are not
wrapped: their cost stays with the layer that calls them.

A layer's self time is its spans' durations minus the time covered by
their child spans.  Spans are kept in memory as (name, start, end, parent)
and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import time
import types

LAYERS = (
    "exactalg",
    "intpoly",
    "arrangement",
    "lattice",
    "multi",
    "freeness",
    "jsonio",
    "catalog",
    "cli",
)

# The certificate checkers are methods, which module-level wrapping misses.
METHODS = (
    ("freeness", "DivisionalFlag", "verify"),
    ("freeness", "IFCertificate", "verify"),
)

BENCH = "bench"


class Tracer:
    """Counts and spans of one traced stretch of work (one round or the set-up)."""

    def __init__(self, keep_spans: bool = True):
        self.keep_spans = keep_spans
        self.calls: dict[str, int] = {}  # "layer.function" -> calls, crossing or not
        self.edges: dict[tuple[str, str], int] = {}  # (caller layer, callee) -> spans
        self.inclusive_s: dict[str, float] = {}  # "layer.function" -> time in its spans
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.quantities: dict[str, int] = {}  # filled by hooks from arguments and results
        self.spans: list = []  # (name, start, end, parent index); None while open
        self.span_count = 0
        # open frames: [layer, name, start, time covered by children, span index]
        self._stack: list[list] = [[BENCH, BENCH, 0.0, 0.0, -1]]
        self._hooks: dict[str, object] = {}

    def hook(self, qualname: str, fn) -> None:
        """Run ``fn(tracer, args, result)`` after each call of ``qualname``."""
        self._hooks[qualname] = fn

    def add(self, key: str, amount: int) -> None:
        self.quantities[key] = self.quantities.get(key, 0) + amount

    def install(self, lib) -> None:
        """Wrap the module-level functions of a freshly imported ``divflag``."""
        wrapped: dict[object, object] = {}
        for layer in LAYERS:
            module = getattr(lib, layer)
            for name, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if obj.__module__.startswith("divflag.") and owner in LAYERS:
                    if obj not in wrapped:
                        wrapped[obj] = self._wrap(owner, obj.__name__, obj)
                    setattr(module, name, wrapped[obj])
        for layer, cls_name, method in METHODS:
            cls = getattr(getattr(lib, layer), cls_name)
            setattr(cls, method, self._wrap(layer, f"{cls_name}.{method}", getattr(cls, method)))

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span for one operation of the benchmark."""
        frame = self._open(BENCH, f"{BENCH}.{name}")
        try:
            yield
        finally:
            self._close(frame)

    def _open(self, layer: str, qualname: str) -> list:
        index = -1
        if self.keep_spans:
            index = len(self.spans)
            self.spans.append(None)
        frame = [layer, qualname, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        caller = self._stack[-1]
        layer, qualname, start, child, index = frame
        duration = end - start
        caller[3] += duration
        self.span_count += 1
        if layer != BENCH:
            self.self_s[layer] += duration - child
            self.inclusive_s[qualname] = self.inclusive_s.get(qualname, 0.0) + duration
            edge = (caller[0], qualname)
            self.edges[edge] = self.edges.get(edge, 0) + 1
        if index >= 0:
            self.spans[index] = (qualname, start, end, caller[4])

    def _wrap(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        stack, calls, hooks = self._stack, self.calls, self._hooks

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qualname] = calls.get(qualname, 0) + 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = self._open(layer, qualname)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(frame)
            hook = hooks.get(qualname)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

def per_call_cost(repeat: int = 5, n: int = 20000) -> tuple[float, float]:
    """Seconds a wrapper adds to one call that passes through, and to one
    call that opens a span, each the median of ``repeat`` timed loops."""

    def bare(x):
        return x

    def timed(fn, outer: Tracer | None) -> float:
        samples = []
        for _ in range(repeat):
            start = time.perf_counter()
            if outer is None:
                for i in range(n):
                    fn(i)
            else:
                with outer.operation("calibrate"):
                    for i in range(n):
                        fn(i)
            samples.append((time.perf_counter() - start) / n)
        samples.sort()
        return samples[len(samples) // 2]

    base = timed(bare, None)
    tracer = Tracer(keep_spans=False)
    through = tracer._wrap(BENCH, "calibrate", bare)  # same layer as the root span
    crossing = tracer._wrap("exactalg", "calibrate", bare)
    return (max(timed(through, tracer) - base, 0.0), max(timed(crossing, tracer) - base, 0.0))
