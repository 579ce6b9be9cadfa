"""Telemetry merge and streaming-delta edge cases.

A worker's metrics and events reach the edge only as the deltas its
``step`` replies carry, so the invariant everything rests on is that the
view the edge accumulates from them *is* the worker's registry: the
property test below drives random update sequences with pulls
interleaved.  The rest pins the fold on top of the views — gauge relabel
collisions, histograms observed into disjoint buckets, repeated delta
application and malformed deltas.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import Telemetry
from repro.telemetry.merge import (
    DeltaAccumulator,
    TelemetryDeltaTracker,
    build_fleet_view,
    copy_telemetry_into,
    fold_view,
)


def worker_telemetry(seed, observations):
    tel = Telemetry()
    tel.counter("serve.admitted").inc(10.0 * seed)
    tel.gauge("serve.machines").set(float(seed))
    hist = tel.histogram("serve.latency_ms")
    for value in observations:
        hist.observe(value)
    tel.event("scale", t=1.0 * seed, machines=seed)
    return tel


def view_of(tel):
    """A worker's registry as the edge holds it after one reply."""
    view = DeltaAccumulator()
    view.apply(TelemetryDeltaTracker().delta(tel))
    return view


def fold(edge, tel, worker):
    fold_view(edge, view_of(tel), worker=worker)


class TestMergeSnapshot:
    def test_counters_add_and_gauges_relabel(self):
        edge = Telemetry()
        edge.counter("serve.admitted").inc(5.0)
        for worker in (0, 1):
            fold(edge, worker_telemetry(worker + 1, [10.0]), worker)
        assert edge.metrics.counter("serve.admitted").value == 5.0 + 10.0 + 20.0
        gauges = edge.metrics.gauges()
        assert gauges['serve.machines{worker="0"}'].value == 1.0
        assert gauges['serve.machines{worker="1"}'].value == 2.0
        assert "serve.machines" not in gauges
        assert [e["worker"] for e in edge.timeline.events] == [0, 1]

    def test_gauge_relabel_collision_is_last_write_wins(self):
        """Two views folded under the *same* worker id collide on the
        relabelled name; the later one must win like any gauge set."""
        edge = Telemetry()
        first = Telemetry()
        first.gauge("serve.machines").set(3.0)
        second = Telemetry()
        second.gauge("serve.machines").set(7.0)
        second.gauge("serve.machines").set(8.0)
        fold(edge, first, 0)
        fold(edge, second, 0)
        gauge = edge.metrics.gauges()['serve.machines{worker="0"}']
        assert gauge.value == 8.0
        # Update counts accumulate honestly across both folds.
        assert gauge.updates == 3

    def test_worker_labeled_gauge_keeps_existing_labels(self):
        edge = Telemetry()
        tel = Telemetry()
        tel.gauge('queue.depth{node="2"}').set(4.0)
        fold(edge, tel, 1)
        assert 'queue.depth{node="2",worker="1"}' in edge.metrics.gauges()

    def test_disjoint_histogram_observations_merge_bucketwise(self):
        """Workers that saw entirely different latency regimes still sum
        into one correct fleet histogram."""
        edge = Telemetry()
        fast = Telemetry()
        for _ in range(4):
            fast.histogram("serve.latency_ms").observe(1.5)  # low buckets
        slow = Telemetry()
        for _ in range(3):
            slow.histogram("serve.latency_ms").observe(900.0)  # tail buckets
        fold(edge, fast, 0)
        fold(edge, slow, 1)
        merged = edge.metrics.histograms()["serve.latency_ms"]
        assert merged.count == 7
        assert merged.total == pytest.approx(4 * 1.5 + 3 * 900.0)
        reference = Telemetry().histogram("serve.latency_ms")
        for _ in range(4):
            reference.observe(1.5)
        for _ in range(3):
            reference.observe(900.0)
        assert merged.counts == reference.counts

    def test_mismatched_histogram_buckets_refuse_to_merge(self):
        edge = Telemetry()
        edge.histogram("serve.latency_ms", buckets=(1.0, 2.0)).observe(0.5)
        tel = Telemetry()
        tel.histogram("serve.latency_ms").observe(0.5)
        with pytest.raises(ConfigurationError, match="bucket layout"):
            fold(edge, tel, 0)


class TestDeltaTracker:
    def test_delta_ships_only_changed_metrics(self):
        tel = worker_telemetry(1, [10.0])
        tracker = TelemetryDeltaTracker()
        first = tracker.delta(tel)
        assert {c["name"] for c in first["counters"]} == {"serve.admitted"}
        assert len(first["events"]) == 1
        # Nothing changed: the next delta is empty.
        second = tracker.delta(tel)
        assert second["counters"] == []
        assert second["gauges"] == []
        assert second["histograms"] == []
        assert second["events"] == []

    def test_delta_values_are_absolute_not_increments(self):
        tel = Telemetry()
        tracker = TelemetryDeltaTracker()
        tel.counter("jobs").inc(3.0)
        tracker.delta(tel)
        tel.counter("jobs").inc(4.0)
        (record,) = tracker.delta(tel)["counters"]
        assert record["value"] == 7.0  # cumulative, not the +4 increment

    def test_gauge_reship_keyed_on_updates_not_value(self):
        """A gauge set back to its previous value still ships: liveness
        is tracked by the update count, not the float."""
        tel = Telemetry()
        tracker = TelemetryDeltaTracker()
        tel.gauge("machines").set(2.0)
        tracker.delta(tel)
        tel.gauge("machines").set(2.0)  # same value, new write
        delta = tracker.delta(tel)
        assert [g["name"] for g in delta["gauges"]] == ["machines"]


def _metrics(view):
    return [dict(family) for family in (view.counters, view.gauges, view.histograms)]


class TestDeltaAccumulator:
    def test_apply_is_idempotent(self):
        tel = worker_telemetry(1, [10.0, 20.0])
        delta = TelemetryDeltaTracker().delta(tel)
        acc = DeltaAccumulator()
        acc.apply(delta)
        once = _metrics(acc)
        acc.apply(delta)  # re-applying the same absolute state
        assert _metrics(acc) == once
        # Events are append-only and *not* idempotent by design; the
        # edge applies each delta exactly once.
        assert len(acc.events) == 2 * len(delta["events"])

    def test_rejects_unknown_delta_format(self):
        records = {"counters": [], "gauges": [], "histograms": [], "events": []}
        malformed = [
            {"format": "bogus/1", **records},
            None,
            ["repro-telemetry-delta/1"],
            {"format": "repro-telemetry-delta/1"},  # no records
            {"format": "repro-telemetry-delta/1", **records, "counters": 7},
            {"format": "repro-telemetry-delta/1", **records, "counters": [{"value": 1.0}]},
            {"format": "repro-telemetry-delta/1", **records, "events": ["not an event"]},
        ]
        acc = view_of(worker_telemetry(1, [10.0]))
        before = _metrics(acc), list(acc.events)
        for delta in malformed:
            with pytest.raises(ValueError, match="delta"):
                acc.apply(delta)
            assert (_metrics(acc), acc.events) == before  # untouched

    def test_accumulated_state_matches_worker_registry(self):
        tel = Telemetry()
        tracker = TelemetryDeltaTracker()
        acc = DeltaAccumulator()
        for step in range(5):
            tel.counter("jobs").inc(1.0 + step)
            tel.histogram("latency_ms").observe(10.0 * (step + 1))
            acc.apply(tracker.delta(tel))
        metrics = tel.metrics
        assert list(acc.counters.values()) == [c.as_record() for c in metrics.counters().values()]
        assert list(acc.histograms.values()) == [
            h.as_record() for h in metrics.histograms().values()
        ]


class TestFleetView:
    def test_copy_telemetry_into_does_not_relabel(self):
        source = Telemetry()
        source.gauge("serve.machines").set(4.0)
        source.histogram("serve.latency_ms").observe(3.0)
        target = Telemetry()
        copy_telemetry_into(target.metrics, source.metrics)
        assert "serve.machines" in target.metrics.gauges()
        assert target.metrics.records() == source.metrics.records()
        assert build_fleet_view(source.metrics, {}).records() == source.metrics.records()


# ----------------------------------------------------------------------
# The invariant: views folded from deltas are the worker registries
# ----------------------------------------------------------------------
WORKERS = 2
METRIC_NAMES = ["jobs", 'queue{node="1"}']

_worker = st.integers(0, WORKERS - 1)
_name = st.sampled_from(METRIC_NAMES)
_value = st.sampled_from([0.0, 3.25, 700.0])  # few, so gauges are often set to the same value
_operation = st.one_of(
    st.tuples(st.just("counter"), _worker, _name, _value),
    st.tuples(st.just("gauge"), _worker, _name, _value),
    st.tuples(st.just("histogram"), _worker, _name, _value),
    st.tuples(st.just("event"), _worker, st.sampled_from(["scale", "shed"]), _value),
    st.tuples(st.just("pull"), _worker, st.just(""), st.just(0.0)),
)


def _read_directly(tel):
    """A worker's registry and events as a view, straight off the objects."""
    view = DeltaAccumulator()
    metrics = tel.metrics
    view.counters = {name: c.as_record() for name, c in metrics.counters().items()}
    view.gauges = {name: g.as_record() for name, g in metrics.gauges().items()}
    view.histograms = {name: h.as_record() for name, h in metrics.histograms().items()}
    view.events = [dict(event) for event in tel.timeline.events]
    return view


def _folded(views):
    edge = Telemetry()
    edge.counter("jobs").inc(1.0)  # the edge's own state is folded onto
    edge.gauge("serve.admitted").set(9.0)
    fleet = build_fleet_view(edge.metrics, views)
    for worker_id, view in views.items():
        fold_view(edge, view, worker=worker_id)
    assert fleet.records() == edge.metrics.records()  # live view == the end-of-run fold
    return edge.metrics.records(), edge.timeline.events


@settings(max_examples=150, deadline=None)
@given(st.lists(_operation, max_size=60))
def test_views_fold_to_the_worker_registries(operations):
    """Counter increments, gauge sets (the same value again included),
    histogram observations, metrics created mid-run and events, with
    delta pulls interleaved anywhere: after a last pull — the reply to the
    last tick — the views fold to exactly what the worker registries read
    directly do.  Deltas cross a JSON round trip, as on the wire."""
    workers = [Telemetry() for _ in range(WORKERS)]
    trackers = [TelemetryDeltaTracker() for _ in range(WORKERS)]
    views = {worker_id: DeltaAccumulator() for worker_id in range(WORKERS)}

    def pull(worker_id):
        delta = json.loads(json.dumps(trackers[worker_id].delta(workers[worker_id])))
        views[worker_id].apply(delta)

    for kind, worker_id, name, value in operations:
        tel = workers[worker_id]
        if kind == "counter":
            tel.counter(name).inc(value)
        elif kind == "gauge":
            tel.gauge(name).set(value)
        elif kind == "histogram":
            tel.histogram(name).observe(value)
        elif kind == "event":
            tel.event(name, t=value, machines=worker_id)
        else:
            pull(worker_id)
    for worker_id in views:
        pull(worker_id)

    direct = {worker_id: _read_directly(tel) for worker_id, tel in enumerate(workers)}
    assert _folded(views) == _folded(direct)
