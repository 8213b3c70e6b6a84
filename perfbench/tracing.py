"""Per-layer spans recorded from outside the program.

The tracer rebinds the public functions of each rmdshrink module, in every
module namespace that holds them, to wrappers that time each call. It also
rebinds the partials in ``scatter._LOCATION_FNS``, which hold the original
``l1_median`` and ``shrink_mm`` and would otherwise bypass the wrappers for
v4-v6. Nothing is rebound until ``install`` and everything is restored by
``uninstall``, so the untraced run executes the program as shipped.

Self time is a call's span minus the spans of the traced calls it makes.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from time import perf_counter

import numpy as np

PACKAGE = "rmdshrink"

# (module, attribute) of every traced function and the layer name it
# reports under. PDMatrix.from_symmetric is a classmethod and is handled
# on the class.
TARGETS = (
    ("primitives", "as_data_matrix", "primitives.as_data_matrix"),
    ("primitives", "comedian", "primitives.comedian"),
    ("primitives", "PDMatrix.from_symmetric", "primitives.pdmatrix"),
    ("primitives", "quad_form_rows", "primitives.quad_form_rows"),
    ("location", "ccm_median", "location.ccm_median"),
    ("location", "l1_median", "location.l1_median"),
    ("location", "sandwich_trace", "location.sandwich_trace"),
    ("location", "shrink_ccm", "location.shrink_ccm"),
    ("location", "shrink_mm", "location.shrink_mm"),
    ("scatter", "shrink_scatter", "scatter.shrink_scatter"),
    ("scatter", "scatter_for_variant", "scatter.scatter_for_variant"),
    ("detector", "detect", "detector.detect"),
    ("detector", "rmd_squared", "detector.rmd_squared"),
    ("depth", "l1_depth", "depth.l1_depth"),
    ("depth", "boxplot_summary", "depth.boxplot_summary"),
    ("simulate", "generate", "simulate.generate"),
    ("simulate", "metrics", "simulate.metrics"),
    ("simulate", "run_scenario", "simulate.run_scenario"),
    ("io", "load_csv", "io.load_csv"),
    ("io", "boxplot_to_json", "io.boxplot_to_json"),
    ("io", "atomic_write_text", "io.atomic_write_text"),
    ("cli", "main", "cli.main"),
)

# Per-layer metrics reported by a traced run: name -> unit. Times, calls
# and bytes are per operation of the workload.
LAYER_METRICS = {
    "primitives.as_data_matrix.calls": "calls/op",
    "primitives.as_data_matrix.self_s": "s/op",
    "primitives.comedian.calls": "calls/op",
    "primitives.comedian.self_s": "s/op",
    "primitives.comedian.temp_bytes": "bytes_computed",
    "primitives.comedian.peak_mb": "MB",
    "primitives.pdmatrix.self_s": "s/op",
    "primitives.quad_form_rows.self_s": "s/op",
    "location.ccm_median.self_s": "s/op",
    "location.l1_median.calls": "calls/op",
    "location.l1_median.self_s": "s/op",
    "location.sandwich_trace.self_s": "s/op",
    "location.shrink_ccm.self_s": "s/op",
    "location.shrink_mm.self_s": "s/op",
    "scatter.shrink_scatter.self_s": "s/op",
    "scatter.scatter_for_variant.self_s": "s/op",
    "detector.detect.self_s": "s/op",
    "detector.rmd_squared.self_s": "s/op",
    "depth.l1_depth.calls": "calls/op",
    "depth.l1_depth.self_s": "s/op",
    "depth.boxplot_summary.self_s": "s/op",
    "simulate.generate.self_s": "s/op",
    "simulate.metrics.self_s": "s/op",
    "simulate.run_scenario.self_s": "s/op",
    "io.load_csv.self_s": "s/op",
    "io.boxplot_to_json.self_s": "s/op",
    "io.atomic_write_text.self_s": "s/op",
    "io.atomic_write_text.bytes": "bytes/op",
    "cli.main.self_s": "s/op",
    "trace.overhead_s": "s/op",
}


class Tracer:
    """Wraps the traced functions and accumulates calls and self time."""

    def __init__(self) -> None:
        self.calls = {layer: 0 for _, _, layer in TARGETS}
        self.self_s = {layer: 0.0 for _, _, layer in TARGETS}
        self.comedian_temp_bytes = 0
        self.comedian_peak_bytes = 0
        self.bytes_written = 0
        self._stack: list[float] = []
        self._restore: list[tuple[object, str, object, bool]] = []

    def _span(self, layer: str, fn, before=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                child = stack.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def _comedian_span(self, fn):
        timed = self._span("primitives.comedian", fn)

        @functools.wraps(fn)
        def wrapper(data, center):
            n, p = np.shape(data)
            self.comedian_temp_bytes += n * p * p * 8
            tracemalloc.start()
            try:
                return timed(data, center)
            finally:
                self.comedian_peak_bytes = max(
                    self.comedian_peak_bytes, tracemalloc.get_traced_memory()[1]
                )
                tracemalloc.stop()

        return wrapper

    def _count_bytes(self, args) -> None:
        self.bytes_written += len(args[1].encode("utf-8"))

    def _wrapped(self, layer: str, fn):
        if layer == "primitives.comedian":
            return self._comedian_span(fn)
        if layer == "io.atomic_write_text":
            return self._span(layer, fn, before=self._count_bytes)
        return self._span(layer, fn)

    def _set(self, owner, key, value, is_item: bool) -> None:
        old = owner[key] if is_item else getattr(owner, key)
        self._restore.append((owner, key, old, is_item))
        if is_item:
            owner[key] = value
        else:
            setattr(owner, key, value)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for name, m in sys.modules.items()
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        wrappers = {}
        for mod_name, attr, layer in TARGETS:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            if attr == "PDMatrix.from_symmetric":
                cls = module.PDMatrix
                original = cls.__dict__["from_symmetric"]
                self._set(cls, "from_symmetric", classmethod(self._wrapped(layer, original.__func__)), False)
                continue
            original = getattr(module, attr)
            wrappers[id(original)] = (original, self._wrapped(layer, original))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1], False)
        location_fns = sys.modules[f"{PACKAGE}.scatter"]._LOCATION_FNS
        for key, value in list(location_fns.items()):
            if isinstance(value, functools.partial):
                hit = wrappers.get(id(value.func))
                if hit is not None and hit[0] is value.func:
                    self._set(location_fns, key, functools.partial(hit[1], *value.args, **value.keywords), True)
            else:
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(location_fns, key, hit[1], True)

    def uninstall(self) -> None:
        for owner, key, old, is_item in reversed(self._restore):
            if is_item:
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._restore.clear()

    def layer_metrics(self, ops: int, overhead_s: float) -> dict[str, float]:
        """Per-operation values of every metric in LAYER_METRICS."""
        values: dict[str, float] = {}
        for layer in self.calls:
            values[f"{layer}.calls"] = self.calls[layer] / ops
            values[f"{layer}.self_s"] = self.self_s[layer] / ops
        values["primitives.comedian.temp_bytes"] = self.comedian_temp_bytes / ops
        values["primitives.comedian.peak_mb"] = self.comedian_peak_bytes / 2**20
        values["io.atomic_write_text.bytes"] = self.bytes_written / ops
        values["trace.overhead_s"] = overhead_s
        return {name: values[name] for name in LAYER_METRICS}
