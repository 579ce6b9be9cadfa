"""Tests for repro.telemetry: metrics, tracer, timeline, exporters, report.

The contract under test is the one docs/OBSERVABILITY.md documents:
metrics accumulate, spans nest and close on exceptions, exports
round-trip exactly, a disabled handle leaves the engine bit-identical,
and ``repro.cli report`` renders a stable summary from a dump.
"""

import csv
import json

import numpy as np
import pytest

from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.errors import ConfigurationError
from repro.telemetry import (
    Telemetry,
    active_telemetry,
    resolve_telemetry,
    telemetry_session,
)
from repro.telemetry.export import (
    export,
    read_jsonl,
    write_csv_ticks,
    write_jsonl,
)
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.report import forecast_windows, render_report, summarize
from repro.telemetry.slo import violation_seconds
from repro.telemetry.tracer import Tracer
from repro.telemetry.timeline import TICK_FIELDS, TimelineRecorder
from repro.workloads.trace import LoadTrace


class TestMetrics:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("engine.steps")
        counter.inc()
        counter.inc(3.0)
        assert registry.counter("engine.steps") is counter  # first-use identity
        assert counter.value == 4.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("c").inc(-1.0)

    def test_gauge_last_write_wins(self):
        gauge = MetricsRegistry().gauge("controller.rate")
        gauge.set(10.0)
        gauge.set(7.5)
        assert gauge.value == 7.5
        assert gauge.updates == 2

    def test_histogram_buckets_and_stats(self):
        hist = Histogram("lat", buckets=(10.0, 100.0, 1000.0))
        for value in (5.0, 50.0, 50.0, 500.0, 5000.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1, 1]  # last is the +Inf bucket
        assert hist.count == 5
        assert hist.mean() == pytest.approx(5605.0 / 5)
        assert hist.quantile(0.5) == 100.0
        assert hist.quantile(1.0) == 1000.0  # +Inf reports last finite bound

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram("bad", buckets=(10.0, 10.0))
        with pytest.raises(ConfigurationError):
            Histogram("empty", buckets=())


class TestTracer:
    def test_spans_nest(self):
        tracer = Tracer()
        outer = tracer.begin("experiment", at=0.0)
        inner = tracer.begin("migration", at=1.0)
        tracer.end(inner, at=5.0)
        tracer.end(outer, at=9.0)
        assert inner.parent_id == outer.span_id
        assert inner.depth == 1 and outer.depth == 0
        assert inner.duration == 4.0 and outer.duration == 9.0
        assert [s.status for s in tracer.spans] == ["ok", "ok"]

    def test_span_closes_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("plan") as span:
                raise ValueError("boom")
        assert span.closed
        assert span.status == "error"
        assert span.attrs["error"] == "ValueError"

    def test_unclosed_children_abandoned_with_parent(self):
        tracer = Tracer()
        parent = tracer.begin("experiment", at=0.0)
        child = tracer.begin("migration", at=2.0)
        tracer.end(parent, at=10.0)
        assert child.status == "abandoned"
        assert child.end == 10.0

    def test_finish_all_never_negative_duration(self):
        tracer = Tracer()
        span = tracer.begin("migration", at=8580.0)
        tracer.finish_all()  # no timestamp available at export time
        assert span.status == "abandoned"
        assert span.duration == 0.0
        assert all(s.closed for s in tracer.spans)

    def test_finish_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("plan", at=0.0)
        tracer.end(span, at=3.0)
        span.finish(at=99.0, status="error")
        assert span.end == 3.0 and span.status == "ok"

    def test_sequence_timestamps_are_deterministic(self):
        stamps = []
        for _ in range(2):
            tracer = Tracer()
            a = tracer.begin("x")
            tracer.end(a)
            stamps.append((a.start, a.end))
        assert stamps[0] == stamps[1]


class TestTimeline:
    def test_event_rejects_reserved_fields(self):
        recorder = TimelineRecorder()
        with pytest.raises(ConfigurationError):
            recorder.event("decision", 0.0, kind="reactive")

    def test_machine_seconds_and_sla(self):
        recorder = TimelineRecorder()
        recorder.set_meta(sla_ms=500.0, dt_seconds=2.0)
        for t, p99, machines in ((0, 100.0, 3), (2, 700.0, 3), (4, 900.0, 4)):
            recorder.tick(
                t=float(t), offered=1.0, served=1.0, p50_ms=1.0, p95_ms=1.0,
                p99_ms=p99, machines=float(machines), reconfiguring=False,
            )
        assert recorder.machine_seconds() == 20.0
        p99 = [tick["p99_ms"] for tick in recorder.ticks]
        assert violation_seconds(p99, recorder.meta["sla_ms"], recorder.meta["dt_seconds"]) == 4


def _sample_telemetry() -> Telemetry:
    tel = Telemetry()
    tel.set_meta(experiment="fixture", sla_ms=500.0, dt_seconds=1.0)
    for t in range(4):
        tel.timeline.tick(
            t=float(t), offered=100.0, served=99.5, p50_ms=3.0, p95_ms=40.0,
            p99_ms=600.0 if t == 2 else 80.0, machines=3.0,
            reconfiguring=t == 1, queue_depth=2.5, capacity=120.0,
        )
    tel.event("forecast", 1.0, interval=0, predicted=110.0, actual=100.0)
    tel.event("forecast", 2.0, interval=1, predicted=95.0, actual=100.0)
    tel.event("decision", 1.0, action="planned", machines_before=3, target=4)
    tel.event("fault", 2.0, fault="node-crash", outcome="injected", node=1)
    span = tel.tracer.begin("migration", at=1.0)
    span.attrs.update({"from": 3, "to": 4, "boost": 1.0})
    tel.tracer.end(span, at=3.0)
    tel.counter("engine.steps").inc(4.0)
    tel.gauge("controller.predicted_rate").set(95.0)
    tel.histogram("engine.p99_ms").observe(80.0)
    return tel


class TestExport:
    def test_jsonl_round_trip(self, tmp_path):
        tel = _sample_telemetry()
        path = tmp_path / "dump.jsonl"
        written = write_jsonl(tel, path)
        assert written == len(tel.records())
        dump = read_jsonl(path)
        assert dump.meta["experiment"] == "fixture"
        assert len(dump.ticks) == 4
        assert dump.ticks[0]["capacity"] == 120.0
        assert len(dump.events_of("forecast")) == 2
        assert dump.spans_named("migration")[0]["attrs"]["from"] == 3
        assert dump.counters["engine.steps"] == 4.0
        assert dump.gauges["controller.predicted_rate"] == 95.0
        assert dump.histograms["engine.p99_ms"]["count"] == 1
        # Byte-stable: the same telemetry serializes identically.
        second = tmp_path / "again.jsonl"
        write_jsonl(tel, second)
        assert path.read_text() == second.read_text()

    def test_jsonl_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ConfigurationError):
            read_jsonl(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ConfigurationError):
            read_jsonl(path)

    def test_csv_round_trip_is_float_exact(self, tmp_path):
        tel = _sample_telemetry()
        path = tmp_path / "ticks.csv"
        assert write_csv_ticks(tel, path) == 4
        with open(path, newline="") as handle:
            reader = csv.DictReader(handle)
            assert tuple(reader.fieldnames) == TICK_FIELDS
            rows = [{k: float(v) for k, v in row.items()} for row in reader]
        assert rows == [
            {field: float(tick[field]) for field in TICK_FIELDS}
            for tick in tel.timeline.ticks
        ]

    def test_export_dispatches_on_suffix(self, tmp_path):
        tel = _sample_telemetry()
        assert export(tel, tmp_path / "t.csv") == 4  # tick rows
        assert export(tel, tmp_path / "t.jsonl") == len(tel.records())


class TestRuntime:
    def test_session_installs_and_restores(self):
        assert active_telemetry() is None
        tel = Telemetry()
        with telemetry_session(tel):
            assert active_telemetry() is tel
        assert active_telemetry() is None

    def test_disabled_default_is_not_active(self):
        with telemetry_session(Telemetry(enabled=False)):
            assert active_telemetry() is None

    def test_resolve_prefers_explicit(self):
        explicit = Telemetry()
        with telemetry_session(Telemetry()):
            assert resolve_telemetry(explicit) is explicit
        assert resolve_telemetry(Telemetry(enabled=False)) is None
        assert resolve_telemetry(None) is None


def _run_engine(telemetry):
    sim = EngineSimulator(
        EngineConfig(max_nodes=6, db_size_kb=700_000.0),
        initial_nodes=3,
        telemetry=telemetry,
    )
    sim.start_move(5)
    trace = LoadTrace(np.full(8, 700.0 * 30.0), slot_seconds=30.0)
    return sim, sim.run(trace)


class TestEngineIntegration:
    def test_disabled_handle_is_bit_identical(self):
        _, baseline = _run_engine(None)
        sim, result = _run_engine(Telemetry(enabled=False))
        assert sim.telemetry is None
        for column in ("time", "offered", "served", "p99_ms", "machines"):
            np.testing.assert_array_equal(
                getattr(result, column), getattr(baseline, column)
            )

    def test_enabled_handle_changes_nothing_and_records_everything(self):
        _, baseline = _run_engine(None)
        tel = Telemetry()
        sim, result = _run_engine(tel)
        for column in ("time", "offered", "served", "p99_ms", "machines"):
            np.testing.assert_array_equal(
                getattr(result, column), getattr(baseline, column)
            )
        # One tick per step, on the same clock as the result, even though
        # the steady-slot fast path collapsed most steps.
        assert sim.fast_slots > 0
        ticks = tel.timeline.ticks
        assert len(ticks) == len(result.time)
        np.testing.assert_array_equal(
            np.array([t["t"] for t in ticks]), result.time
        )
        assert tel.counter("engine.steps").value == len(result.time)
        spans = tel.tracer.named("migration")
        assert len(spans) == 1
        assert spans[0].status == "ok"
        assert spans[0].attrs["from"] == 3 and spans[0].attrs["to"] == 5


class TestReport:
    def test_forecast_windows_mape(self, tmp_path):
        tel = _sample_telemetry()
        path = tmp_path / "dump.jsonl"
        write_jsonl(tel, path)
        windows = forecast_windows(read_jsonl(path), window=2)
        assert len(windows) == 1
        assert windows[0].samples == 2
        assert windows[0].mape_pct == pytest.approx(7.5)  # (10% + 5%) / 2

    def test_summarize_counts(self, tmp_path):
        tel = _sample_telemetry()
        path = tmp_path / "dump.jsonl"
        write_jsonl(tel, path)
        summary = summarize(read_jsonl(path))
        assert summary.ticks == 4
        assert summary.violations == {"p50": 0, "p95": 0, "p99": 1}
        assert summary.machine_hours == pytest.approx(12.0 / 3600.0)
        assert summary.fault_counts == {"node-crash": 1}
        assert summary.decisions == 1
        assert len(summary.migration_spans) == 1

    def test_render_report_golden_sections(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        write_jsonl(_sample_telemetry(), path)
        text = render_report(str(path))
        for section in (
            "Run overview",
            "SLA violations",
            "Migration spans",
            "Forecast error per window",
            "Fault events",
        ):
            assert section in text
        assert "3 -> 4" in text
        assert "node-crash" in text
        assert "ticks recorded" in text
