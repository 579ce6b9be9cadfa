"""Spans recorded from outside the program, by wrapping public callables.

The traced run installs a timing wrapper on each callable in
:data:`TARGETS`.  A span is (name, start, end, parent); spans stay in
four flat arrays until the round ends, and self time is computed from
the parent links afterwards.  A target that no longer exists is listed
in :attr:`Tracer.missing` instead of raising, so a later refactor shows
up as a gap in the per-layer numbers, not as a broken benchmark.

Worker and HTTP-server processes are never entered: wrappers live in
the round process only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from typing import Callable, Dict, List

import numpy as np

#: (module, class or None for a module-level function, attribute, span name)
TARGETS = (
    ("repro.serve.session", "ServeSession", "run", "serve.session.run"),
    ("repro.serve.loadgen", "LoadgenReport", "record", "serve.loadgen.fold"),
    ("repro.serve.loadgen", "LoadgenReport", "finish", "serve.loadgen.fold"),
    ("repro.serve.loadgen", "LoadgenReport", "offer", "serve.loadgen.fold"),
    ("repro.serve.engine", "ServerEngine", "submit", "serve.engine.submit"),
    ("repro.serve.engine", "ServerEngine", "tick", "serve.engine.tick"),
    ("repro.serve.admission", "AdmissionController", "decide", "serve.admission.decide"),
    ("repro.serve.admission", "AdmissionController", "shed_outright", "serve.admission.decide"),
    ("repro.engine.simulator", "EngineSimulator", "step", "engine.simulator.step"),
    ("repro.tenancy.admission", "TenantAdmission", "quota_admit", "tenancy.quota_admit"),
    ("repro.telemetry.slo", "SLOMonitor", "classify", "telemetry.slo"),
    ("repro.telemetry.slo", "SLOMonitor", "observe", "telemetry.slo"),
    ("repro.telemetry", "Telemetry", "counter", "telemetry.metric_lookup"),
    ("repro.telemetry", "Telemetry", "gauge", "telemetry.metric_lookup"),
    ("repro.telemetry", "Telemetry", "histogram", "telemetry.metric_lookup"),
    ("repro.telemetry.timeseries", "TimeSeriesStore", "sample", "telemetry.timeseries_sample"),
    ("repro.serve.control", "OnlineControlLoop", "on_slot", "serve.control.on_slot"),
    ("repro.core.planner", "Planner", "best_moves", "core.planner.best_moves"),
    ("repro.prediction.spar", "SPARPredictor", "fit", "prediction.spar.fit"),
    ("repro.prediction.spar", "SPARPredictor", "predict", "prediction.spar.predict"),
    ("repro.serve.edge", "DistributedServeSession", "run", "serve.edge.run"),
    ("repro.serve.worker", "WorkerHandle", "post", "serve.worker.post"),
    ("repro.serve.worker", "WorkerHandle", "collect", "serve.worker.collect"),
    ("repro.serve.transport", None, "_encode", "serve.transport.encode"),
    ("repro.serve.transport", None, "_decode", "serve.transport.decode"),
)

ROOT = "bench.timed_region"


class Tracer:
    """In-memory span recorder; records only while :attr:`on` is set."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.on = False
        #: Span names none of whose targets could be wrapped.
        self.missing: List[str] = []
        #: Payload bytes through the transport's encode / decode.
        self.bytes_out = 0
        self.bytes_in = 0

    # ------------------------------------------------------------------
    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _traced(self, fn: Callable, span_name: str) -> Callable:
        nid = self._intern(span_name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            index = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every target that exists; note the span names left bare."""
        found: Dict[str, bool] = {}
        for module_name, class_name, attr, span_name in TARGETS:
            found.setdefault(span_name, False)
            try:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                fn = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError):
                continue
            if not inspect.isfunction(fn):
                continue
            wrapped = self._traced(fn, span_name)
            if span_name == "serve.transport.encode":
                wrapped = self._count_out(wrapped)
            elif span_name == "serve.transport.decode":
                wrapped = self._count_in(wrapped)
            setattr(owner, attr, wrapped)
            found[span_name] = True
        self.missing = sorted(name for name, ok in found.items() if not ok)

    def _count_out(self, encode: Callable) -> Callable:
        def counted(message):
            payload = encode(message)
            if self.on:
                self.bytes_out += len(payload)
            return payload

        return counted

    def _count_in(self, decode: Callable) -> Callable:
        def counted(payload):
            if self.on:
                self.bytes_in += len(payload)
            return decode(payload)

        return counted

    # ------------------------------------------------------------------
    def timed_region(self, body: Callable[[], None]) -> None:
        """Run ``body`` under the root span with recording switched on."""
        root = self._traced(body, ROOT)
        self.on = True
        try:
            root()
        finally:
            self.on = False

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        name_id = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.dtype("l")).astype(np.int64)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(
            self.start, dtype=np.float64
        )
        count = len(duration)
        kinds = len(self.names)
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=count
        )
        self_time = duration - covered
        # A span nested directly in one of its own name (record -> finish)
        # is already inside the outer one's inclusive time.
        outermost = ~has_parent | (name_id[np.where(has_parent, parent, 0)] != name_id)
        calls = np.bincount(name_id, minlength=kinds)
        self_s = np.bincount(name_id, weights=self_time, minlength=kinds)
        incl_s = np.bincount(
            name_id[outermost], weights=duration[outermost], minlength=kinds
        )
        return {
            name: {
                "calls": int(calls[i]),
                "incl_s": float(incl_s[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def dump(self, path: str) -> None:
        """Write every span once, as columnar JSON."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                },
                handle,
            )
