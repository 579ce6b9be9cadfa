"""Time-series store: tier validation, rollups, bounded memory, queries."""

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import Telemetry, TimeSeriesStore
from repro.telemetry.timeseries import DEFAULT_TIERS


def sampled_store(ticks=25, tiers=(1, 5), capacity=720):
    """A store fed by a tiny synthetic registry for ``ticks`` ticks."""
    telemetry = Telemetry()
    store = TimeSeriesStore(tiers=tiers, capacity=capacity)
    for t in range(ticks):
        telemetry.counter("jobs").inc(2.0)
        telemetry.gauge("machines").set(float(t % 4))
        telemetry.histogram("latency_ms").observe(10.0 * (t + 1))
        store.sample(telemetry.metrics, float(t))
    return store


class TestConfiguration:
    def test_default_tiers(self):
        store = TimeSeriesStore()
        assert store.tiers == DEFAULT_TIERS
        assert store.summary()["windows"] == list(DEFAULT_TIERS)

    def test_tiers_must_start_at_one(self):
        with pytest.raises(ConfigurationError, match="start at 1"):
            TimeSeriesStore(tiers=(2, 10))

    def test_tiers_must_strictly_increase(self):
        with pytest.raises(ConfigurationError, match="strictly increasing"):
            TimeSeriesStore(tiers=(1, 10, 10))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            TimeSeriesStore(capacity=0)


class TestSampling:
    def test_counters_and_gauges_sampled_by_value(self):
        store = sampled_store(ticks=3)
        points = store.query("jobs")
        assert [p["last"] for p in points] == [2.0, 4.0, 6.0]
        assert [p["t"] for p in points] == [0.0, 1.0, 2.0]
        machines = store.query("machines")
        assert [p["last"] for p in machines] == [0.0, 1.0, 2.0]

    def test_histograms_sampled_as_quantiles_and_count(self):
        store = sampled_store(ticks=4)
        names = store.names()
        assert "latency_ms:p50" in names
        assert "latency_ms:p99" in names
        assert "latency_ms:count" in names
        counts = store.query("latency_ms:count")
        assert [p["last"] for p in counts] == [1.0, 2.0, 3.0, 4.0]

    def test_raw_points_carry_window_stats(self):
        store = sampled_store(ticks=1)
        (point,) = store.query("jobs")
        assert point == {"t": 0.0, "min": 2.0, "max": 2.0, "mean": 2.0, "last": 2.0}

    def test_samples_taken_counts_ticks_not_series(self):
        store = sampled_store(ticks=7)
        assert store.samples_taken == 7


class TestRollups:
    def test_rollup_emits_only_on_full_windows(self):
        store = sampled_store(ticks=12, tiers=(1, 5))
        assert len(store.query("jobs", window=1)) == 12
        # 12 ticks fill two 5-tick windows; the third is still open.
        assert len(store.query("jobs", window=5)) == 2

    def test_rollup_aggregates_min_max_mean_last(self):
        store = sampled_store(ticks=5, tiers=(1, 5))
        (window,) = store.query("machines", window=5)
        # Gauge cycles 0,1,2,3,0 over the window.
        assert window["t"] == 0.0
        assert window["min"] == 0.0
        assert window["max"] == 3.0
        assert window["mean"] == pytest.approx(6.0 / 5.0)
        assert window["last"] == 0.0

    def test_memory_is_bounded_by_capacity(self):
        store = sampled_store(ticks=50, tiers=(1, 5), capacity=8)
        raw = store.query("jobs", window=1)
        assert len(raw) == 8
        # Ring keeps the newest points: counter value 2*(t+1).
        assert raw[-1]["last"] == 100.0
        assert raw[0]["last"] == 2.0 * 43
        assert len(store.query("jobs", window=5)) == 8


class TestQueries:
    def test_unknown_window_raises(self):
        store = sampled_store()
        with pytest.raises(ConfigurationError, match="rollup tier"):
            store.query("jobs", window=7)

    def test_unknown_series_returns_empty(self):
        store = sampled_store()
        assert store.query("no.such.series") == []

    def test_latest_is_newest_raw_point(self):
        store = sampled_store(ticks=3)
        latest = store.query("jobs")[-1]
        assert latest["t"] == 2.0
        assert latest["last"] == 6.0

    def test_summary_lists_series_sorted(self):
        store = sampled_store(ticks=2)
        summary = store.summary()
        assert summary["series"] == sorted(summary["series"])
        assert summary["capacity"] == 720
        assert summary["samples"] == 2

    def test_dump_round_trips_through_json(self):
        import json

        store = sampled_store(ticks=12, tiers=(1, 5))
        dump = json.loads(json.dumps(store.dump()))
        assert dump["format"] == "repro-timeseries/1"
        assert dump["windows"] == [1, 5]
        assert dump["points"]["jobs"]["1"] == store.query("jobs", window=1)
        assert dump["points"]["jobs"]["5"] == store.query("jobs", window=5)


class TestDeterminism:
    def test_sampling_never_mutates_the_registry(self):
        telemetry = Telemetry()
        telemetry.counter("jobs").inc(3.0)
        telemetry.histogram("latency_ms").observe(12.0)
        before = telemetry.records()
        store = TimeSeriesStore()
        for t in range(5):
            store.sample(telemetry.metrics, float(t))
        assert telemetry.records() == before
