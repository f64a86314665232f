"""Span tracing of mvdeg's public functions, from outside the package.

A Tracer replaces each traced function at every name a caller looks it up by
(``mvdeg.entropy.build_hop_basis``, ``mvdeg.bench.generate``, ...) with a
wrapper that records one span per call, and puts the originals back when the
``installed()`` block ends. Spans (name, start, end, parent, workload) stay in
memory until ``write`` saves them once. A layer whose function no longer
exists is reported as absent; tracing goes on without it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
import tracemalloc

# Layer names: "<module under mvdeg>.<attribute path>".
LAYERS = (
    "kron.build_hop_basis",
    "entropy.mvdeg_single_scale",
    "entropy.DispersionHistogram.from_class_rows",
    "entropy.coarse_grain",
    "entropy.normalized_entropy",
    "entropy.mvdeg_curve",
    "entropy.classical_mvde",
    "entropy.univariate_mde",
    "entropy.univariate_single_scale",
    "entropy.ncdf_map",
    "generators.generate",
    "bench.run_noise_experiment",
    "bench.aggregate_curves",
    "io.read_signal_csv",
    "io.write_curves_csv",
    "io.write_curves_json",
    "graphs.estimate_correlation_graph",
    "cli.main",
)

# Layers whose peak traced allocation is recorded with tracemalloc, by a
# Tracer made with measure_alloc=True.
ALLOC_LAYERS = frozenset({"kron.build_hop_basis"})

# Layers that only drive other layers: their self time is whatever work under
# them no wrapper covers, so trace coverage does not count it.
ORCHESTRATORS = frozenset({
    "entropy.mvdeg_curve",
    "entropy.univariate_mde",
    "bench.run_noise_experiment",
    "cli.main",
})


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    fields = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return sum(int(v.nbytes) for v in fields if hasattr(v, "nbytes"))


def _hop_counters(args, kwargs, result) -> dict:
    signal = args[0] if args else kwargs["signal"]
    m = args[2] if len(args) > 2 else kwargs["m"]
    n, p = signal.n_samples, signal.p
    # computed, not observed: the one-step recurrence needs (m - 1) products
    # of an (N, p) block with a (p, p) matrix, 2 N p^2 flops each
    return {"flops": 2 * (m - 1) * n * p * p, "bytes_out": _array_bytes(result)}


def _histogram_counters(args, kwargs, result) -> dict:
    # args[0] is the class: the wrapper sits under the classmethod
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"patterns": int(rows.shape[0]), "distinct": len(result.counts)}


def _csv_counters(args, kwargs, result) -> dict:
    path = args[0] if args else kwargs["path"]
    return {"bytes_in": os.path.getsize(path)}


COUNTERS = {
    "kron.build_hop_basis": _hop_counters,
    "entropy.DispersionHistogram.from_class_rows": _histogram_counters,
    "io.read_signal_csv": _csv_counters,
}


class Tracer:
    """Records spans of traced mvdeg calls for one workload."""

    def __init__(self, workload: str, measure_alloc: bool = False):
        self.workload = workload
        self.measure_alloc = measure_alloc
        self.spans: list[dict] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []

    def _wrap(self, layer: str, func):
        counters = COUNTERS.get(layer)
        measure_alloc = self.measure_alloc and layer in ALLOC_LAYERS

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": layer,
                "start": 0.0,
                "end": 0.0,
                "parent": self._stack[-1] if self._stack else None,
                "workload": self.workload,
            }
            self.spans.append(span)
            self._stack.append(index)
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
                if alloc:
                    span["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if counters is not None:
                try:
                    span.update(counters(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    span["counters_missing"] = True
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer that exists while the block runs."""
        undo = []
        try:
            for layer in LAYERS:
                undo.extend(self._install(layer))
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

    def _install(self, layer: str) -> list:
        module_name, *path = layer.split(".")
        try:
            owner = importlib.import_module(f"mvdeg.{module_name}")
            for name in path[:-1]:
                owner = getattr(owner, name)
            raw = vars(owner)[path[-1]]
        except (ImportError, AttributeError, KeyError):
            self.absent.add(layer)
            return []
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(layer, raw.__func__))
            setattr(owner, path[-1], wrapped)
            return [(owner, path[-1], raw)]
        if not callable(raw):
            self.absent.add(layer)
            return []
        # rebind the function at every module-level name that holds it, so
        # callers that imported it by name see the wrapper too
        wrapped = self._wrap(layer, raw)
        undo = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "mvdeg" or mod_name.startswith("mvdeg.")):
                continue
            for name, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, name, wrapped)
                    undo.append((module, name, raw))
        return undo

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"absent": sorted(self.absent), "spans": self.spans}, f)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
