"""Per-tick timeline recording: what the run looked like, second by second.

A *tick* is one engine step: offered load, served load, allocation,
effective queueing state and latency percentiles.  *Events* are sparse,
typed markers interleaved with the ticks on the same clock — controller
decisions, prediction-vs-actual pairs, fault injections, migration round
completions.  Together they are the substrate ``repro.cli report``
renders and every exporter serializes.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError

#: Field names an event may not use: they carry the record's framing.
_RESERVED_EVENT_FIELDS = frozenset({"kind", "type", "t"})

#: Column order of a tick record (also the CSV header).
TICK_FIELDS = (
    "t",
    "offered",
    "served",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "machines",
    "reconfiguring",
    "queue_depth",
    "capacity",
)


class TimelineRecorder:
    """Accumulates tick and event records for one process/run."""

    def __init__(self) -> None:
        self.ticks: List[Dict[str, float]] = []
        self.events: List[Dict[str, object]] = []
        self.meta: Dict[str, object] = {}

    # ------------------------------------------------------------------
    def set_meta(self, **fields: object) -> None:
        """Merge run-level metadata (sla_ms, dt_seconds, experiment id...)."""
        self.meta.update(fields)

    def tick(
        self,
        t: float,
        offered: float,
        served: float,
        p50_ms: float,
        p95_ms: float,
        p99_ms: float,
        machines: float,
        reconfiguring: bool,
        queue_depth: float = 0.0,
        capacity: float = 0.0,
    ) -> None:
        self.ticks.append(
            {
                "t": t,
                "offered": offered,
                "served": served,
                "p50_ms": p50_ms,
                "p95_ms": p95_ms,
                "p99_ms": p99_ms,
                "machines": machines,
                "reconfiguring": 1.0 if reconfiguring else 0.0,
                "queue_depth": queue_depth,
                "capacity": capacity,
            }
        )

    def event(self, event_type: str, t: float, **fields: object) -> None:
        clash = _RESERVED_EVENT_FIELDS.intersection(fields)
        if clash:
            raise ConfigurationError(
                f"event field(s) {sorted(clash)} are reserved for framing"
            )
        record: Dict[str, object] = {"type": event_type, "t": float(t)}
        record.update(fields)
        self.events.append(record)

    # ------------------------------------------------------------------
    def events_of(self, event_type: str) -> List[Dict[str, object]]:
        return [e for e in self.events if e["type"] == event_type]

    def machine_seconds(self) -> float:
        """Allocation integral over the recorded ticks (Equation 1 cost)."""
        dt = float(self.meta.get("dt_seconds", 1.0))
        return sum(t["machines"] for t in self.ticks) * dt
