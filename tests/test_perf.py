"""Wall-clock perf spans: recording, rendering, scoping, separation.

The load-bearing invariant is the last class: perf data lives only in
the :class:`PerfRecorder`, never in a :class:`Telemetry` registry, so
runs with perf spans enabled stay bit-identical to runs without.
"""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    PerfRecorder,
    Telemetry,
    maybe_span,
    perf_session,
    timed,
)
from repro.telemetry.perf import PERF_BUCKETS_MS, PerfStage, render_prometheus_perf


class FakeClock:
    """Deterministic perf_counter_ns stand-in advancing 1 ms per read."""

    def __init__(self, step_ns=1_000_000):
        self.now = 0
        self.step_ns = step_ns

    def __call__(self):
        self.now += self.step_ns
        return self.now


class TestPerfStage:
    def test_record_tracks_count_total_min_max(self):
        stage = PerfStage("engine.tick")
        for ns in (2_000_000, 6_000_000, 1_000_000):
            stage.record(ns)
        assert stage.count == 3
        assert stage.total_ns == 9_000_000
        assert stage.min_ns == 1_000_000
        assert stage.max_ns == 6_000_000
        assert stage.mean_ms() == pytest.approx(3.0)

    def test_quantile_is_bucket_upper_bound(self):
        stage = PerfStage("x")
        for _ in range(100):
            stage.record(300_000)  # 0.3 ms -> bucket le=0.5
        assert stage.quantile_ms(0.5) == 0.5
        assert stage.quantile_ms(0.99) == 0.5

    def test_quantile_validates_range(self):
        with pytest.raises(ConfigurationError):
            PerfStage("x").quantile_ms(1.5)

    def test_empty_stage_reads_zero(self):
        stage = PerfStage("x")
        assert stage.mean_ms() == 0.0
        assert stage.quantile_ms(0.99) == 0.0


class TestPerfRecorder:
    def test_span_records_elapsed_wall_time(self):
        perf = PerfRecorder(clock=FakeClock())
        with perf.span("worker.step"):
            pass
        stage = perf.stage("worker.step")
        assert stage is not None
        assert stage.count == 1
        assert stage.total_ns == 1_000_000  # one clock step inside the span

    def test_overhead_gauge_self_measures(self):
        perf = PerfRecorder(clock=FakeClock())
        with perf.span("a"):
            pass
        with perf.span("a"):
            pass
        # One extra clock read per span closes into the overhead gauge.
        assert perf.overhead_ns == 2_000_000
        assert perf.overhead_ms() == pytest.approx(2.0)

    def test_records_sorted_by_stage_name(self):
        perf = PerfRecorder(clock=FakeClock())
        with perf.span("zeta"):
            pass
        with perf.span("alpha"):
            pass
        assert [r["name"] for r in perf.records()] == ["alpha", "zeta"]

    def test_report_lines_include_overhead(self):
        perf = PerfRecorder(clock=FakeClock())
        with perf.span("engine.tick"):
            pass
        lines = perf.report_lines()
        assert lines[0] == "wall-clock stages (ms):"
        assert any("engine.tick" in line for line in lines)
        assert "measurement overhead" in lines[-1]


class TestPrometheusRendering:
    def test_renders_histogram_family_and_overhead_gauge(self):
        perf = PerfRecorder(clock=FakeClock())
        with perf.span("edge.dispatch"):
            pass
        text = render_prometheus_perf(perf)
        assert "# TYPE repro_perf_edge_dispatch_ms histogram" in text
        assert 'repro_perf_edge_dispatch_ms_bucket{le="+Inf"} 1' in text
        assert "repro_perf_edge_dispatch_ms_count 1" in text
        assert "repro_perf_overhead_ms" in text

    def test_bucket_counts_are_cumulative(self):
        perf = PerfRecorder()
        perf.record("x", 300_000)  # 0.3 ms
        perf.record("x", 40_000_000)  # 40 ms
        text = render_prometheus_perf(perf)
        lines = [ln for ln in text.splitlines() if ln.startswith("repro_perf_x_ms_bucket")]
        assert lines[-1] == 'repro_perf_x_ms_bucket{le="+Inf"} 2'
        values = [int(ln.rsplit(" ", 1)[1]) for ln in lines]
        assert values == sorted(values)
        assert len(lines) == len(PERF_BUCKETS_MS) + 1


class TestResolution:
    def test_maybe_span_is_noop_without_recorder(self):
        with maybe_span("planner.dp"):
            pass  # must not raise

    def test_maybe_span_uses_active_recorder(self):
        perf = PerfRecorder(clock=FakeClock())
        with perf_session(perf):
            with maybe_span("planner.dp"):
                pass
        with maybe_span("planner.dp"):
            pass  # after the session: recorded nowhere
        assert perf.stage("planner.dp").count == 1

    def test_explicit_recorder_beats_default(self):
        scoped = PerfRecorder(clock=FakeClock())
        explicit = PerfRecorder(clock=FakeClock())
        with perf_session(scoped):
            with maybe_span("x", explicit):
                pass
        assert explicit.stage("x").count == 1
        assert scoped.stage("x") is None

    def test_perf_session_restores_previous_default(self):
        outer = PerfRecorder()
        with perf_session(outer):
            with perf_session(PerfRecorder()):
                pass
            with maybe_span("x"):
                pass
        with maybe_span("x"):
            pass
        assert outer.stage("x").count == 1

    def test_timed_decorator_records_when_active(self):
        calls = []

        @timed("spar.fit")
        def fit(x):
            calls.append(x)
            return x * 2

        assert fit(3) == 6  # perf off: plain call
        perf = PerfRecorder(clock=FakeClock())
        with perf_session(perf):
            assert fit(4) == 8
        assert calls == [3, 4]
        assert perf.stage("spar.fit").count == 1


class TestSimTimeSeparation:
    def test_perf_spans_never_touch_telemetry(self):
        telemetry = Telemetry()
        telemetry.counter("serve.admitted").inc()
        before = telemetry.records()
        perf = PerfRecorder()
        with perf_session(perf):
            with maybe_span("engine.tick"):
                telemetry.gauge("serve.machines").set(2.0)
        after = telemetry.records()
        # The gauge write is the only diff; no perf family leaked in.
        assert len(after) == len(before) + 1
        assert all("perf" not in str(r.get("name", "")) for r in after)
