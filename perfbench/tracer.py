"""Runtime layer tracer: wraps the public functions of each flbreuil module.

Nothing under ``src/`` is edited.  ``Tracer.install`` replaces every public
module-level function and public method of each layer module with a wrapper,
in every flbreuil namespace that holds a reference to it (so names bound by
``from .pd import gamma_multiply`` are wrapped too), and ``uninstall``
restores the originals.

Each wrapper is a span.  Spans nest on one stack; when a span ends, its
duration is added to its parent's child time, and its self time is its
duration minus the time its child spans covered.  Code that is not wrapped
(private helpers, closures) therefore counts as self time of the nearest
wrapped caller.  Statistics are aggregated as the spans close, so memory
stays constant however many calls a run makes.

The two hottest constructors, ``WittScalar.__init__`` and
``PDElement.__init__``, are counted only, with no span.
"""

from __future__ import annotations

import sys
import time
import types

LAYERS = ("ambient", "witt", "series", "pd", "matrix", "fl", "kisin", "breuil",
          "functors", "serialize", "campaign", "cli")

# wrapped besides the public methods: the arithmetic operators
_DUNDERS = ("__add__", "__sub__", "__neg__", "__mul__", "__pow__", "__matmul__")

# constructors that are counted without a span, and the one that gets a span
_COUNT_ONLY = {("witt", "WittScalar"), ("pd", "PDElement")}
_SPAN_INIT = {("ambient", "AmbientParams")}

# spans whose outermost calls are also timed inclusively, as a group
GROUPS = {
    "ambient.AmbientParams.c_pow": "ambient.tables",
    "ambient.AmbientParams.u_pow": "ambient.tables",
    "ambient.AmbientParams.fact_unit_inv": "ambient.tables",
    "ambient.AmbientParams.pa_div_fact": "ambient.tables",
    "matrix.RingMatrix.det": "matrix.det_adjugate",
    "matrix.RingMatrix.adjugate": "matrix.det_adjugate",
}


class Tracer:
    """Span and counter aggregation for one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}      # key -> [calls, self seconds]
        self.counts: dict[str, int] = {}      # extra counters
        self.groups: dict[str, float] = {}    # inclusive seconds, outermost calls
        self._depth: dict[str, list] = {}     # open calls per group
        self._stack = [0.0]                   # child time of each open span
        self._patches: list = []              # (namespace, name, original)

    # --- wrappers ---

    def span(self, key: str, fn, post=None):
        """Wrap ``fn`` as span ``key``; ``post(args, result)`` runs after it."""
        stat = self.stats.setdefault(key, [0, 0.0])
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if post is not None:
                    post(args, out)
                return out
            finally:
                dur = clock() - t0
                stat[0] += 1
                stat[1] += dur - stack.pop()
                stack[-1] += dur

        return traced

    def counted(self, key: str, fn):
        """Wrap ``fn`` to count its calls, with no span."""
        self.counts.setdefault(key, 0)
        counts = self.counts

        def counter(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counter

    def grouped(self, group: str, fn, suffix=None):
        """Add the inclusive time of the outermost calls in ``group`` to
        ``groups[group]``, or to ``groups[group + "." + suffix(args)]``."""
        depth = self._depth.setdefault(group, [0])
        groups = self.groups
        clock = self.clock

        def timed(*args, **kwargs):
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
                if depth[0] == 0:
                    g = group if suffix is None else f"{group}.{suffix(args)}"
                    groups[g] = groups.get(g, 0.0) + clock() - t0

        return timed

    # --- reading the aggregate ---

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0, 0.0))[0]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0, 0.0))[1]

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v[1] for k, v in self.stats.items() if k.startswith(prefix))

    # --- installing into flbreuil ---

    def install(self, package) -> None:
        mods = {name: sys.modules[f"{package.__name__}.{name}"] for name in LAYERS}
        namespaces = [vars(package)] + [vars(m) for m in mods.values()]
        for layer, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    new = self._decorate(layer, name, obj)
                    for ns in namespaces:
                        if ns.get(name) is obj:
                            self._patch(ns, name, new)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        ns = cls.__dict__
        for name, obj in list(ns.items()):
            key = f"{layer}.{cls.__name__}.{name}"
            if name == "__init__":
                if (layer, cls.__name__) in _COUNT_ONLY:
                    self._patch(cls, name, self.counted(key, obj))
                elif (layer, cls.__name__) in _SPAN_INIT:
                    self._patch(cls, name, self.span(key, obj))
            elif name.startswith("_") and name not in _DUNDERS:
                continue
            elif isinstance(obj, staticmethod):
                self._patch(cls, name, staticmethod(self.span(key, obj.__func__)))
            elif isinstance(obj, types.FunctionType):
                new = self.span(key, obj)
                if key in GROUPS:
                    new = self.grouped(GROUPS[key], new)
                self._patch(cls, name, new)

    def _decorate(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        if key == "pd.gamma_multiply":
            self.counts.setdefault("pd.gamma_multiply.const_operand", 0)

            def const_operand(args, _out):
                if min(args[0].support(), args[1].support()) <= 1:
                    self.counts["pd.gamma_multiply.const_operand"] += 1

            return self.span(key, fn, const_operand)
        if key == "functors.section_compute":
            self.counts.setdefault("functors.section.iterations", 0)

            def iterations(_args, out):
                self.counts["functors.section.iterations"] += out.iterations

            return self.span(key, fn, iterations)
        if key == "campaign.run_suite_seed":
            return self.grouped("campaign.suite_s", self.span(key, fn),
                                suffix=lambda args: args[1])
        return self.span(key, fn)

    def _patch(self, target, name: str, new) -> None:
        if isinstance(target, dict):
            self._patches.append((target, name, target[name]))
            target[name] = new
        else:
            self._patches.append((target, name, target.__dict__[name]))
            setattr(target, name, new)

    def uninstall(self) -> None:
        for target, name, old in reversed(self._patches):
            if isinstance(target, dict):
                target[name] = old
            else:
                setattr(target, name, old)
        self._patches.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
