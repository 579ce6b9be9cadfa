"""Cross-process telemetry merge for the distributed serving path.

Each worker process owns a private :class:`~repro.telemetry.Telemetry`
(its engine's metrics, request-trace spans and timeline events).  Its
metrics and events reach the edge one way: every ``step`` reply carries
the :class:`TelemetryDeltaTracker` delta since the last one, and the edge
folds it into that worker's :class:`DeltaAccumulator` — the worker's
registry as of its last reply.  From the views the edge builds a live
fleet-wide registry (:func:`build_fleet_view`) and, once at the end of
the run, folds them into its own handle (:func:`fold_view`), so the
existing exporters, ``repro explain`` and the debug bundles keep working
unchanged on a multi-process session:

* **counters and histograms** are summable and merge by addition (same
  name, same buckets), so aggregate families like ``serve.admitted`` and
  ``serve.latency_ms`` read cluster-wide after the merge;
* **gauges** are last-write-wins and *not* summable, so each worker's
  gauge is re-labelled with ``worker="<id>"`` and kept separate;
* **events** append with a ``worker`` field.

Worker tick records never travel: each worker's engine keeps its own
per-tick series on the same clock, and interleaving them would
double-count offered/served in the run reports.

**Spans** ship once, at the end of the run (:func:`merge_spans`): a span
open in one reply and closed in the next cannot be patched
incrementally.  They are re-identified into the edge tracer's id space
(parents rewritten through the same mapping, a ``worker`` attr added).
When a ``stitch`` map is supplied — edge-minted ``trace_id`` to the
edge-side root span — each worker ``request`` span is re-parented under
the edge span that dispatched it, producing one request tree that
crosses the process boundary.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry, labeled, split_labels
from repro.telemetry.tracer import Span

#: Incremental-delta schema version (see :class:`TelemetryDeltaTracker`).
DELTA_FORMAT = "repro-telemetry-delta/1"


class TelemetryDeltaTracker:
    """Worker-side cursor producing incremental telemetry deltas.

    Each call to :meth:`delta` ships only metrics that are *new or
    changed* since the previous call, plus events past the last shipped
    index — but the shipped values are **absolute** cumulative state,
    not increments.  Applying deltas is therefore assignment, not
    addition: repeated application is idempotent, and the accumulated
    worker view at the edge is bit-for-bit the worker's own registry
    state.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, float] = {}
        self._gauge_updates: Dict[str, int] = {}
        self._hist_counts: Dict[str, List[int]] = {}
        self._event_index = 0

    def delta(self, telemetry: Telemetry) -> Dict[str, object]:
        """New-or-changed metrics (absolute values) and new events."""
        metrics = telemetry.metrics
        counters = []
        for name, counter in metrics.counters().items():
            if self._counters.get(name) != counter.value:
                counters.append(counter.as_record())
                self._counters[name] = counter.value
        gauges = []
        for name, gauge in metrics.gauges().items():
            if self._gauge_updates.get(name) != gauge.updates:
                gauges.append(gauge.as_record())
                self._gauge_updates[name] = gauge.updates
        histograms = []
        for name, histogram in metrics.histograms().items():
            if self._hist_counts.get(name) != histogram.counts:
                histograms.append(histogram.as_record())
                self._hist_counts[name] = list(histogram.counts)
        events = [
            dict(event)
            for event in telemetry.timeline.events[self._event_index:]
        ]
        self._event_index = len(telemetry.timeline.events)
        return {
            "format": DELTA_FORMAT,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "events": events,
        }


class DeltaAccumulator:
    """Edge-side absolute view of one worker, built from deltas.

    :meth:`apply` folds a :class:`TelemetryDeltaTracker` delta in by
    assignment.  A metric ships first in the delta after it is created,
    so the records keep the worker registry's creation order, and the
    events are the worker's, in order.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Dict[str, object]] = {}
        self.gauges: Dict[str, Dict[str, object]] = {}
        self.histograms: Dict[str, Dict[str, object]] = {}
        self.events: List[Dict[str, object]] = []

    def apply(self, delta: object) -> None:
        """Fold one delta in; ``ValueError``, with this view untouched,
        unless ``delta`` is a :data:`DELTA_FORMAT` document of record lists."""
        if not isinstance(delta, dict) or delta.get("format") != DELTA_FORMAT:
            raise ValueError(f"telemetry delta is not a {DELTA_FORMAT!r} document")
        try:
            families = [
                {str(record["name"]): dict(record) for record in delta[family]}
                for family in ("counters", "gauges", "histograms")
            ]
            events = [dict(event) for event in delta["events"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"malformed telemetry delta: {exc!r}") from exc
        for view, records in zip((self.counters, self.gauges, self.histograms), families):
            view.update(records)
        self.events.extend(events)


def copy_telemetry_into(target: MetricsRegistry, source: MetricsRegistry) -> None:
    """Verbatim copy of the ``source`` metrics into ``target``.

    Unlike :func:`fold_view` this does *not* re-label gauges — it seeds
    a fleet registry with the edge's own state, exactly as that state
    sits in the edge registry before the worker views are folded on top.
    """
    for name, counter in source.counters().items():
        target.counter(name).value = counter.value
    for name, gauge in source.gauges().items():
        copy = target.gauge(name)
        copy.value = gauge.value
        copy.updates = gauge.updates
    for name, histogram in source.histograms().items():
        copy = target.histogram(name, histogram.buckets)
        copy.counts = list(histogram.counts)
        copy.total = histogram.total
        copy.count = histogram.count


def build_fleet_view(
    own: MetricsRegistry, views: Dict[int, DeltaAccumulator]
) -> MetricsRegistry:
    """The live fleet-wide registry: the edge's own metrics, then each
    worker view folded on in ``views`` order — the metrics
    :func:`fold_view` leaves in the edge handle at the end of the run."""
    fleet = MetricsRegistry()
    copy_telemetry_into(fleet, own)
    for worker_id, view in views.items():
        _fold_metrics(fleet, view, worker_id)
    return fleet


def fold_view(target: Telemetry, view: DeltaAccumulator, *, worker: int) -> None:
    """Fold one worker view's metrics and events into the edge handle
    (see module doc)."""
    _fold_metrics(target.metrics, view, worker)
    for record in view.events:
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("kind", "type", "t")
        }
        fields["worker"] = worker
        target.event(str(record["type"]), float(record["t"]), **fields)


def _worker_labeled(name: str, worker: int) -> str:
    base, pairs = split_labels(name)
    labels = {key: value for key, value in pairs}
    labels["worker"] = worker
    return labeled(base, **labels)


def _fold_metrics(target: MetricsRegistry, view: DeltaAccumulator, worker: int) -> None:
    for record in view.counters.values():
        target.counter(str(record["name"])).inc(float(record["value"]))
    for record in view.gauges.values():
        gauge = target.gauge(_worker_labeled(str(record["name"]), worker))
        gauge.set(float(record["value"]))
        # One worker-side set is one set here; keep the update count
        # honest rather than claiming a single write.
        gauge.updates += int(record.get("updates", 1)) - 1
    for record in view.histograms.values():
        buckets = [float(b) for b in record["buckets"]]
        histogram = target.histogram(str(record["name"]), tuple(buckets))
        if list(histogram.buckets) != buckets:
            raise ConfigurationError(
                f"histogram {record['name']!r} bucket layout differs "
                "between edge and worker; cannot merge"
            )
        counts = [int(c) for c in record["counts"]]
        histogram.counts = [
            have + new for have, new in zip(histogram.counts, counts)
        ]
        histogram.total += float(record["total"])
        histogram.count += int(record["count"])


def merge_spans(
    target: Telemetry,
    spans: List[Dict[str, object]],
    *,
    worker: int,
    stitch: Dict[int, Span],
) -> None:
    """Append one worker's span records to the edge tracer (see module doc)."""
    tracer = target.tracer
    id_map: Dict[int, int] = {}
    depth_offsets: Dict[int, int] = {}
    for record in spans:
        old_id = int(record["id"])
        new_id = tracer._next_id
        tracer._next_id += 1
        id_map[old_id] = new_id
        attrs = dict(record.get("attrs") or {})
        attrs["worker"] = worker

        old_parent = record.get("parent")
        offset = 0
        parent_id: Optional[int] = None
        if old_parent is not None:
            parent_id = id_map.get(int(old_parent))
            offset = depth_offsets.get(int(old_parent), 0)
        elif record["name"] == "request" and "trace_id" in attrs:
            root = stitch.get(int(attrs["trace_id"]))
            if root is not None:
                parent_id = root.span_id
                offset = root.depth + 1
        depth_offsets[old_id] = offset

        end = record.get("end")
        tracer.spans.append(
            Span(
                span_id=new_id,
                name=str(record["name"]),
                start=float(record["start"]),
                parent_id=parent_id,
                depth=int(record["depth"]) + offset,
                end=None if end is None else float(end),
                status=str(record["status"]),
                attrs=attrs,
            )
        )
