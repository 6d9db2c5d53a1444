"""Per-layer spans for the traced run.

A :class:`Tracer` replaces the public functions of each graphkms layer with
wrappers that time a span around every call.  A function is replaced in every
graphkms module that binds it (``from .graph import parse_graph`` in ``cli``
binds a second name), so no call path goes uncounted.  A layer's self time
is the duration of its spans minus the spans of wrapped calls made inside
them; time inside a job that no layer claims is kept as ``unattributed``.

Only the traced run installs wrappers, and only inside
:meth:`Tracer.installed`; the original functions are back outside it, so
untraced passes of the same process run the program unmodified.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# Layer name -> (module, public function) pairs whose calls it counts.
LAYERS = {
    "graph.parse": [("graph", "parse_graph")],
    "graph.seneta": [("graph", "seneta_order")],
    "graph.saturation": [("graph", "saturation")],
    "spectral.perron": [("spectral", "analyze_irreducible")],
    "spectral.radius": [("spectral", "spectral_radius")],
    "spectral.solve": [("spectral", "resolvent_solve"), ("spectral", "y_vector")],
    "spectral.series": [("spectral", "resolvent_series")],
    "kms.criticals": [("kms", "critical_temperatures")],
    "kms.beta_v": [("kms", "beta_v")],
    "kms.simplex": [("kms", "kms_simplex")],
    "oracle.verify": [("oracle", "verify_simplex")],
    "oracle.atom": [("oracle", "path_measure_atom")],
    "cli": [("cli", "main")],
}
# Tarjan, reach sets and the Component build have no public entry point of
# their own: they run inside DirectedGraph._analysis on its first call (later
# calls return the cached tuple and are not spans).  Perron data computed
# there is a child span, so this layer's self time excludes it.
COMPONENTS = "graph.components"


class Tracer:
    def __init__(self):
        self.reset()
        self._stack: list[float] = []
        self._patches = self._plan_patches()

    def reset(self) -> None:
        """Zero the counters, e.g. between two passes."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.extremes = 0
        self.unattributed_s = 0.0

    # -- spans -----------------------------------------------------------

    def _span(self, layer, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                tracer.self_s[layer] += dt - child
                tracer.calls[layer] += 1
            if after is not None:
                after(result)
            return result

        return span

    @contextmanager
    def root(self):
        """Span of one job (or one corpus build); nested layers are its children."""
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            self.unattributed_s += dt - self._stack.pop()

    def _count_extremes(self, simplex):
        self.extremes += len(simplex.extremes)

    # -- installation ----------------------------------------------------

    def _plan_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to replace."""
        for mod_name in {m for targets in LAYERS.values() for m, _ in targets}:
            importlib.import_module(f"graphkms.{mod_name}")
        modules = [
            m for name, m in sys.modules.items()
            if name == "graphkms" or name.startswith("graphkms.")
        ]
        patches = []
        for layer, targets in LAYERS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[f"graphkms.{mod_name}"], attr)
                after = self._count_extremes if layer == "kms.simplex" else None
                wrapper = self._span(layer, original, after)
                patches += [
                    (module, name, original, wrapper)
                    for module in modules
                    for name, value in vars(module).items()
                    if value is original
                ]

        graph_class = sys.modules["graphkms.graph"].DirectedGraph
        analysis = graph_class._analysis
        timed = self._span(COMPONENTS, analysis)

        @functools.wraps(analysis)
        def first_analysis(g):
            if getattr(g, "_analysis_cache", None) is not None:
                return analysis(g)
            return timed(g)

        patches.append((graph_class, "_analysis", analysis, first_analysis))
        return patches

    @contextmanager
    def installed(self):
        """Wrappers in place inside the block, originals back after it."""
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)
        try:
            yield self
        finally:
            for owner, name, original, _ in self._patches:
                setattr(owner, name, original)
