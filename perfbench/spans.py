"""Outside-in span tracer for the clonerestore layers.

The tracer replaces every public function of the package's layer modules
with a thin wrapper that records one span per call: name, start, end and
the span that was open when the call began. Spans stay in memory; the
caller writes them out when the run ends. Nothing inside the package is
edited: the wrappers are installed by rebinding names, and ``uninstall``
puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("cli", "verify", "protocol", "cloning", "core", "linalg")
PACKAGE = "clonerestore"


class Tracer:
    """Collects spans in four parallel columns: name id, parent, start, end.

    A span's index is its position in the columns; the root has parent
    -1. Every span of one tracer belongs to the run ``run_id``. The
    columns are typed arrays, so recording a span allocates no Python
    object for the garbage collector to scan. ``counters`` accumulates
    the work counts reported by the optional counters given to ``wrap``,
    keyed ``<span name>.<counter name>``.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._restore: list = []

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` wrapped so each call records a span called ``name``.

        ``counter`` is a pair (counter name, function); the function
        returns the work count of one call from the call's arguments.
        """
        name_id = len(self.names)
        self.names.append(name)
        stack, clock, counters = self._stack, self.clock, self.counters
        add_name, add_parent = self.name_ids.append, self.parents.append
        add_start, add_end, ends = self.starts.append, self.ends.append, self.ends
        if counter is not None:
            key, count = f"{name}.{counter[0]}", counter[1]
            counters[key] = 0

        def traced(*args, **kwargs):
            if counter is not None:
                counters[key] += count(*args, **kwargs)
            idx = len(ends)
            add_name(name_id)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        functools.update_wrapper(traced, fn)
        return traced

    def install(self, counters: dict | None = None) -> list[str]:
        """Wrap every public function and classmethod of each layer.

        A function is rebound in every module of the package that holds
        it, so names imported with ``from .core import make_pure`` are
        traced too. ``counters`` maps a span name to the ``counter`` pair
        that ``wrap`` takes. Returns the span names installed.
        """
        counters = counters or {}
        modules = {n: m for n, m in sys.modules.items()
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))}
        replacements = {}
        for layer in LAYERS:
            module = modules[f"{PACKAGE}.{layer}"]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj):
                    for meth, raw in list(vars(obj).items()):
                        if meth.startswith("_") or not isinstance(raw, classmethod):
                            continue
                        name = f"{layer}.{attr}.{meth}"
                        wrapped = classmethod(self.wrap(name, raw.__func__, counters.get(name)))
                        self._restore.append((obj, meth, raw))
                        setattr(obj, meth, wrapped)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    replacements[id(obj)] = self.wrap(name, obj, counters.get(name))
        # Keyed by id: module namespaces also hold unhashable values.
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacements:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, replacements[id(obj)])
        return list(self.names)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def records(self) -> list[tuple[str, int, float, float]]:
        """Finished spans as (name, parent_index, start, end)."""
        names = self.names
        return [(names[n], p, s, e)
                for n, p, s, e in zip(self.name_ids, self.parents, self.starts, self.ends)]


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part its children cover.

    ``spans`` is a sequence of (name, parent_index, start, end). Child
    intervals are merged and clipped to the parent before they are
    subtracted, so overlapping or overhanging children count once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, parent, start, end) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for cs, ce in sorted(children.get(idx, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def aggregate(spans, names, counters=None) -> dict[str, float]:
    """Per-function and per-layer metrics from finished spans.

    For every span name ``n`` in ``names``: ``n.calls``, ``n.self_s``,
    ``n.total_s`` (sum of span durations; no function of the package
    calls itself, so this is inclusive time) and ``n.cold_s`` (duration
    of the first call). For every layer: ``<layer>.self_s``, the sum of
    its functions' self times. ``counters`` entries are copied as they are.
    """
    out: dict[str, float] = {}
    for n in names:
        out[f"{n}.calls"] = 0
        out[f"{n}.self_s"] = 0.0
        out[f"{n}.total_s"] = 0.0
        out[f"{n}.cold_s"] = 0.0
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for (name, parent, start, end), self_s in zip(spans, self_times(spans)):
        if out[f"{name}.calls"] == 0:
            out[f"{name}.cold_s"] = end - start
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += self_s
        out[f"{name}.total_s"] += end - start
        out[f"{name.split('.', 1)[0]}.self_s"] += self_s
    out.update(counters or {})
    return out
