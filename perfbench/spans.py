"""Spans around calls into hodgespec's public functions, installed from outside.

``install`` wraps every function named in a layer module's ``__all__`` and
the public methods of ``WeightedSpectrum``.  It then replaces every attribute
of a loaded hodgespec module that *is* one of the original functions, so aliases such as ``cli.sphere_spectrum`` or the
``enumerate_norms`` bound inside ``torus`` are traced too.  Names missing from
a module are skipped.

Spans are aggregated per (caller, function) as calls, inclusive seconds and
self seconds (inclusive minus child spans), so hot tiny calls such as
``sqrt_upper_bound`` stay cheap to keep.  A few hooks read arguments and
results after a span closes, to count points, repeats and keys walked; their
time is excluded from every span.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from bisect import bisect_left

LAYERS = ("rationals", "linalg", "lattice", "torus", "sphere", "multiset", "isospec", "cli")


def _pairs(table):
    return table.counts if hasattr(table, "counts") else table.entries


class Tracer:
    """Aggregated spans and counters; records only while ``active`` is true."""

    def __init__(self) -> None:
        self.active = False
        self.stack: list[list] = []  # [name, seconds spent in child spans]
        self.edges: dict[tuple[str, str], list] = {}  # (caller, name) -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.wrapped: list[str] = []
        self._dual_seen: set = set()
        self._enum_seen: set = set()

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name) or HOOKS.get(name.split(".")[0])
        stack, edges, clock = self.stack, self.edges, time.perf_counter
        self.wrapped.append(name)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            caller = stack[-1][0] if stack else "job"
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                edge = edges.get((caller, name))
                if edge is None:
                    edge = edges[(caller, name)] = [0, 0.0, 0.0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook_start = clock()
                hook(self, name, caller, args, result)
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def snapshot(self) -> dict:
        return {
            "edges": {f"{c}>{n}": list(v) for (c, n), v in self.edges.items()},
            "counts": dict(self.counts),
            "wrapped": sorted(set(self.wrapped)),
        }


def merge_snapshots(snapshots) -> dict:
    edges: dict[str, list] = {}
    counts: dict[str, int] = {}
    wrapped: set = set()
    for snap in snapshots:
        for key, (calls, total, own) in snap["edges"].items():
            edge = edges.setdefault(key, [0, 0.0, 0.0])
            edge[0] += calls
            edge[1] += total
            edge[2] += own
        for key, value in snap["counts"].items():
            counts[key] = counts.get(key, 0) + value
        wrapped.update(snap["wrapped"])
    return {"edges": edges, "counts": counts, "wrapped": sorted(wrapped)}


# -- hooks: (tracer, name, caller, args, result) -------------------------------


def _dual(tracer, name, caller, args, result):
    key = args[0]
    if key in tracer._dual_seen:
        tracer.count("lattice.dual.repeats")
    tracer._dual_seen.add(key)


def _enumerate(tracer, name, caller, args, result):
    key = args[0].lattice
    if key in tracer._enum_seen:
        tracer.count("lattice.enumerate_norms.repeats")
    tracer._enum_seen.add(key)
    tracer.count("lattice.enumerate_norms.points", sum(c for _, c in _pairs(result)))
    if any(frame[0] == "torus.eigenvalue_multiplicity" for frame in tracer.stack):
        tracer.count("torus.query_enumerations")


def _floor_sqrt(value) -> int:
    # floor(sqrt(a/b)) = isqrt(a*b) // b for a rational a/b >= 0
    return math.isqrt(value.numerator * value.denominator) // value.denominator


def _box(tracer, name, caller, args, result):
    dual_data, bound = args[0], args[1]
    cells = 1
    for i in range(len(dual_data.gram)):
        cells *= 2 * _floor_sqrt(bound * dual_data.gram[i][i]) + 1
    tracer.count("lattice.box.cells", cells)
    tracer.count("lattice.box.points", sum(c for _, c in _pairs(result)))


def _first_divergence(tracer, name, caller, args, result):
    left, right, bound = args[0], args[1], args[2]
    keys = sorted({k for k, _ in left.entries if k <= bound} | {k for k, _ in right.entries if k <= bound})
    walked = len(keys) if result is None else bisect_left(keys, result[0]) + 1
    tracer.count("isospec.first_divergence.keys_walked", walked)


def _sphere(tracer, name, caller, args, result):
    if not caller.startswith("sphere."):
        parts = result if isinstance(result, tuple) else (result,)
        tracer.count("sphere.entries", sum(len(part.entries) for part in parts))


def _multiset(tracer, name, caller, args, result):
    if not caller.startswith("multiset.") and hasattr(result, "entries") and hasattr(result, "cutoff"):
        tracer.count("multiset.entries_built", len(result.entries))


HOOKS = {
    "lattice.dual": _dual,
    "lattice.enumerate_norms": _enumerate,
    "lattice.brute_force_enumerate": _box,
    "isospec.first_divergence": _first_divergence,
    "sphere.spectrum": _sphere,
    "sphere.spectrum_parts": _sphere,
    "multiset": _multiset,
}


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions and swap every alias of them."""
    originals = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hodgespec.{layer}")
        for attr in getattr(module, "__all__", ()):
            value = getattr(module, attr, None)
            if inspect.isfunction(value) and value not in originals:
                originals[value] = tracer.wrap(f"{layer}.{attr}", value)
    spectrum_cls = getattr(importlib.import_module("hodgespec.multiset"), "WeightedSpectrum", None)
    for attr, raw in list(vars(spectrum_cls).items()) if spectrum_cls else ():
        if attr.startswith("_"):
            continue
        if isinstance(raw, classmethod):
            setattr(spectrum_cls, attr, classmethod(tracer.wrap(f"multiset.{attr}", raw.__func__)))
        elif inspect.isfunction(raw):
            setattr(spectrum_cls, attr, tracer.wrap(f"multiset.{attr}", raw))
    spaces = [vars(m) for name, m in list(sys.modules.items())
              if name == "hodgespec" or name.startswith("hodgespec.")]
    for space in spaces:
        for attr, value in list(space.items()):
            if inspect.isfunction(value) and value in originals:
                space[attr] = originals[value]
