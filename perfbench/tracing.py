"""Span recording around the calls into mops' public functions.

Wrappers are installed on the module attributes through which ``run_sts``,
``max_triangular_cactus`` and ``exact_max_outerplanar`` reach each layer, so
nothing in the library changes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
from collections import defaultdict
from time import perf_counter

import mops.cactus
import mops.generators
import mops.oracle
import mops.outerplanar
import mops.sts

# (module, attribute, span name, observer of the return value)
TRACE_POINTS = (
    (mops.sts, "run_sts", "sts.run_sts", None),
    (mops.sts, "max_triangular_cactus", "cactus.max_triangular_cactus", None),
    (mops.sts, "phase2_add_squares", "sts.phase2_add_squares", None),
    (mops.sts, "phase3_spanning", "sts.phase3_spanning", None),
    (mops.sts, "connected_components", "graph.connected_components", None),
    (mops.cactus, "enumerate_triangles", "cactus.enumerate_triangles", None),
    (mops.cactus, "build_parity_instance", "cactus.build_parity_instance", lambda inst: inst.p),
    (mops.cactus, "matroid_parity_max", "cactus.matroid_parity_max", None),
    (mops.oracle, "exact_max_outerplanar", "oracle.exact_max_outerplanar", None),
    (mops.oracle, "upper_bound", "oracle.upper_bound", None),
    (mops.oracle, "block_decomposition", "outerplanar.block_decomposition", None),
    (mops.oracle, "is_outerplanar", "outerplanar.is_outerplanar", None),
    (mops.outerplanar, "validate_sts_structure", "outerplanar.validate_sts_structure", None),
    (mops.generators, "graph_new", "graph.graph_new", None),
)

# Layers reported as total busy time (``.s``) and as self time (``.self_s``).
BUSY_LAYERS = (
    "sts.run_sts",
    "cactus.enumerate_triangles",
    "cactus.build_parity_instance",
    "cactus.matroid_parity_max",
    "sts.phase2_add_squares",
    "sts.phase3_spanning",
    "oracle.exact_max_outerplanar",
    "oracle.upper_bound",
    "outerplanar.is_outerplanar",
    "outerplanar.block_decomposition",
    "outerplanar.validate_sts_structure",
    "graph.graph_new",
    "graph.connected_components",
)
SELF_LAYERS = (
    "cactus.max_triangular_cactus",
    "sts.run_sts",
    "oracle.exact_max_outerplanar",
)


class Tracer:
    """Records spans as ``[name, start, end, parent index, instance]``.

    ``instance`` is ``(pass label, graph index)``: spans of one call into the
    library share it. ``values`` maps a span index to what its observer saw.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[int, object] = {}
        self.instance: tuple = ("setup", None)
        self._stack: list[int] = []
        self._paused = 0

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.instance]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if observe is not None:
                self.values[index] = observe(result)
            return result

        return traced

    @contextlib.contextmanager
    def paused(self):
        """Run library calls unrecorded, e.g. the benchmark's own checks."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    @contextlib.contextmanager
    def installed(self):
        """Put the wrappers on the trace points; restore the originals after."""
        saved = []
        for module, attr, name, observe in TRACE_POINTS:
            original = getattr(module, attr, None)
            if original is None:
                continue  # the layer is gone; its metrics are reported absent
            saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, observe))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def observed(self, name: str, label) -> list:
        """Observed return values of the spans ``name`` in one pass."""
        return [
            v for i, v in self.values.items()
            if self.spans[i][0] == name and self.spans[i][4][0] == label
        ]

    def layer_metrics(self) -> dict[str, float]:
        """Per-pass busy and self time of each layer, median over passes.

        A pass is one sweep over the corpus (or the corpus generation). Only
        passes in which a layer fired count, and a layer that never fired is
        left out rather than reported as zero.
        """
        busy: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        child: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        for name, start, end, parent, (label, _graph) in self.spans:
            busy[name][label] += end - start
            if parent is not None:
                child[self.spans[parent][0]][label] += end - start
        out = {}
        for name in BUSY_LAYERS:
            if name in busy:
                out[f"{name}.s"] = statistics.median(busy[name].values())
        for name in SELF_LAYERS:
            if name in busy:
                out[f"{name}.self_s"] = statistics.median(
                    busy[name][label] - child[name][label] for label in busy[name]
                )
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, (label, graph) in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "pass": label, "graph": graph,
                }) + "\n")
