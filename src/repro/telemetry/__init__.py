"""repro.telemetry — process-wide instrumentation for the reproduction.

Three record families, one facade:

* **metrics** — counters, gauges and fixed-bucket histograms
  (:mod:`repro.telemetry.metrics`);
* **traces** — spans for migrations, reconfigurations and replans
  (:mod:`repro.telemetry.tracer`);
* **timeline** — per-tick engine state plus sparse typed events
  (:mod:`repro.telemetry.timeline`).

The engine, controllers and fault injector are instrumented
behind a single cheap check: each resolves a handle once (explicit
argument or the process default of :mod:`repro.telemetry.runtime`) and
hot paths guard on ``handle is not None``.  With no telemetry installed
every run is bit-identical to an uninstrumented engine — the
``tests/test_fast_path.py`` equivalence suite pins this.

Exports and the run-summary renderer live in
:mod:`repro.telemetry.export` and :mod:`repro.telemetry.report`;
``docs/OBSERVABILITY.md`` documents the record schemas.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.timeline import TICK_FIELDS, TimelineRecorder
from repro.telemetry.tracer import Span, Tracer


class Telemetry:
    """One instrumentation context: metrics + tracer + timeline.

    Args:
        enabled: When ``False`` the handle is ignored by every
            instrumentation site (they resolve it to ``None``), so a
            disabled handle really costs nothing on hot paths.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.metrics = MetricsRegistry()
        self.tracer = Tracer()
        self.timeline = TimelineRecorder()

    # Convenience passthroughs -----------------------------------------
    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.metrics.gauge(name)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self.metrics.histogram(name, buckets)

    def event(self, event_type: str, t: float, **fields: object) -> None:
        self.timeline.event(event_type, t, **fields)

    def set_meta(self, **fields: object) -> None:
        self.timeline.set_meta(**fields)

    # ------------------------------------------------------------------
    def records(self) -> List[Dict[str, object]]:
        """Every record in export order: meta, ticks, events, spans,
        metrics.  This is the JSONL line sequence."""
        out: List[Dict[str, object]] = []
        if self.timeline.meta:
            record: Dict[str, object] = {"kind": "meta"}
            record.update(self.timeline.meta)
            out.append(record)
        for tick in self.timeline.ticks:
            record = {"kind": "tick"}
            record.update(tick)
            out.append(record)
        for event in self.timeline.events:
            record = {"kind": "event"}
            record.update(event)
            out.append(record)
        out.extend(self.tracer.records())
        out.extend(self.metrics.records())
        return out


# Resolution helper used by every instrumented constructor ------------
def resolve_telemetry(explicit: "Optional[Telemetry]") -> "Optional[Telemetry]":
    """An explicit enabled handle, else the active process default.

    Returns ``None`` for a disabled explicit handle, so call sites can
    guard hot paths with a plain ``is not None``.
    """
    if explicit is not None:
        return explicit if explicit.enabled else None
    from repro.telemetry.runtime import active_telemetry

    return active_telemetry()


from repro.telemetry.runtime import (  # noqa: E402  (re-export after class def)
    active_telemetry,
    telemetry_session,
)
from repro.telemetry.perf import (  # noqa: E402
    PerfRecorder,
    maybe_span,
    perf_session,
    timed,
)
from repro.telemetry.timeseries import TimeSeriesStore  # noqa: E402

__all__ = [
    "DEFAULT_BUCKETS_MS",
    "TICK_FIELDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "PerfRecorder",
    "Span",
    "Telemetry",
    "TimeSeriesStore",
    "TimelineRecorder",
    "Tracer",
    "active_telemetry",
    "maybe_span",
    "perf_session",
    "resolve_telemetry",
    "telemetry_session",
    "timed",
]
