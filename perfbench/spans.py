"""Outside-in tracing of the hogstream package, aggregated per function.

``Tracer.install`` wraps every function that a layer module defines: its
module-level functions and the methods, properties, class methods and static
methods of the classes it defines (dataclass-generated methods included, since
they report the defining module). The wrapper replaces the original wherever
the package binds it, so a name bound by ``from .x import y`` in another
module is wrapped too. The tracer names no function of the program, so
functions can be added, moved or deleted without editing it; a metric about
one function reads zero once that function is gone.

A span stack gives each call its self time: its duration minus the time of
the traced calls it made. A generator function is timed per ``next()``: each
resumption is one span, and ``items`` counts the values it yielded. Spans are
folded into per-function totals as they close; none are stored.
"""

from __future__ import annotations

import inspect
import sys
import types
from dataclasses import dataclass
from time import perf_counter

# the modules that form the pipeline's layers; ``trainer`` (input generation
# only) and ``cli`` (not used by the benchmark) are no layers
LAYERS = ("fixedpoint", "stream", "gradient", "histogram", "normalize",
          "svm", "detector", "oracle", "pnm")
PACKAGE = "hogstream"


@dataclass
class FnStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class Tracer:
    """Wraps the package's functions in place; ``uninstall`` restores them."""

    def __init__(self) -> None:
        self.stats: dict[str, FnStats] = {}   # "<layer>.<qualname>" -> totals
        self._stack: list[float] = []         # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        for s in self.stats.values():
            s.calls = 0
            s.total_s = s.self_s = 0.0
            s.items = 0

    def fn(self, layer: str, qualname: str) -> FnStats:
        """Totals of one function; zeros if the package no longer has it."""
        return self.stats.get(f"{layer}.{qualname}", FnStats())

    def layer_totals(self) -> dict[str, FnStats]:
        """Calls and self time summed per layer (totals would count nesting twice)."""
        out = {layer: FnStats() for layer in LAYERS}
        for key, s in self.stats.items():
            agg = out[key.split(".", 1)[0]]
            agg.calls += s.calls
            agg.self_s += s.self_s
        return out

    # -- wrapping ---------------------------------------------------------

    def _wrap_function(self, fn, layer: str):
        stats = self.stats.setdefault(f"{layer}.{fn.__qualname__}", FnStats())
        stack = self._stack

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter() - t0
                        child = stack.pop()
                        stats.calls += 1
                        stats.total_s += dt
                        stats.self_s += dt - child
                        if stack:
                            stack[-1] += dt
                    stats.items += 1
                    yield item

            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    child = stack.pop()
                    stats.calls += 1
                    stats.total_s += dt
                    stats.self_s += dt - child
                    if stack:
                        stack[-1] += dt

            wrapper = traced
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_member(self, member, module_name: str, layer: str):
        """Wrapped form of one class attribute, or None if it is no function
        of this module."""
        def own(f) -> bool:
            return isinstance(f, types.FunctionType) and f.__module__ == module_name

        if own(member):
            return self._wrap_function(member, layer)
        if isinstance(member, (staticmethod, classmethod)) and own(member.__func__):
            return type(member)(self._wrap_function(member.__func__, layer))
        if isinstance(member, property) and any(
                own(f) for f in (member.fget, member.fset, member.fdel)):
            parts = [self._wrap_function(f, layer) if own(f) else f
                     for f in (member.fget, member.fset, member.fdel)]
            return property(*parts, doc=member.__doc__)
        return None

    def _patch(self, owner, name: str, new) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        modules = {name: m for name, m in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = modules[f"{PACKAGE}.{layer}"]
            for obj in list(vars(mod).values()):
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap_function(obj, layer)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for name, member in list(vars(obj).items()):
                        wrapped = self._wrap_member(member, mod.__name__, layer)
                        if wrapped is not None:
                            self._patch(obj, name, wrapped)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, name, replaced[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
