"""Tests for the time-stepped engine simulator."""

import numpy as np
import pytest

from repro.engine.monitor import LoadMonitor
from repro.engine.simulator import EngineConfig, EngineSimulator, SkewEvent
from repro.errors import ConfigurationError, MigrationError
from repro.telemetry.slo import sla_report, violation_seconds
from repro.workloads.trace import LoadTrace


def flat_trace(rate: float, seconds: int, slot: float = 6.0) -> LoadTrace:
    slots = int(seconds / slot)
    return LoadTrace(np.full(slots, rate * slot), slot_seconds=slot)


class TestEngineConfig:
    def test_partition_service_rate(self):
        config = EngineConfig()
        assert config.partition_service_rate == pytest.approx(438.0 / 6)

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(partitions_per_node=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(saturation_rate_per_node=0)
        with pytest.raises(ConfigurationError):
            EngineConfig(dt_seconds=0)


class TestSteadyState:
    def test_latency_matches_queue_model(self):
        config = EngineConfig(max_nodes=4)
        sim = EngineSimulator(config, initial_nodes=2)
        result = sim.run(flat_trace(400.0, 120))
        mu = config.partition_service_rate
        lam = 400.0 / 12  # per partition
        expected_p50 = config.base_service_ms + 1000 * np.log(2) / (mu - lam)
        assert result.p50_ms[-1] == pytest.approx(expected_p50, rel=0.01)
        assert result.served[-1] == pytest.approx(400.0, rel=0.01)

    def test_overload_collapses(self):
        config = EngineConfig(max_nodes=2)
        sim = EngineSimulator(config, initial_nodes=1)
        result = sim.run(flat_trace(600.0, 120))
        assert result.served[-1] == pytest.approx(438.0, rel=0.01)
        assert result.p99_ms[-1] > 1000.0
        # Bounded by the closed-loop queue cap.
        assert result.p50_ms.max() < 1000.0 * (config.max_queue_seconds + 5)

    def test_machines_recorded(self):
        sim = EngineSimulator(EngineConfig(max_nodes=4), initial_nodes=3)
        result = sim.run(flat_trace(100.0, 30))
        assert np.all(result.machines == 3)


class TestSkew:
    def test_skew_event_raises_latency(self):
        config = EngineConfig(max_nodes=2)
        base = EngineSimulator(config, initial_nodes=2).run(flat_trace(700.0, 60))
        skewed_sim = EngineSimulator(config, initial_nodes=2)
        skewed_sim.skew_events.append(
            SkewEvent(start_seconds=20, end_seconds=40, partition_index=0, factor=4.0)
        )
        skewed = skewed_sim.run(flat_trace(700.0, 60))
        assert skewed.p99_ms.max() > 1.5 * base.p99_ms.max()


class TestReconfiguration:
    def test_move_during_run(self):
        config = EngineConfig(max_nodes=4)
        sim = EngineSimulator(config, initial_nodes=2)
        sim.start_move(4)
        duration = int(sim.migration.total_seconds) + 30
        result = sim.run(flat_trace(500.0, duration))
        assert sim.machines_allocated == 4
        assert sim.migration is None
        assert result.reconfiguring[:10].all()
        assert not result.reconfiguring[-5:].any()
        fractions = sim.cluster.data_fractions()
        assert len(fractions) == 4

    def test_cannot_start_two_moves(self):
        sim = EngineSimulator(EngineConfig(max_nodes=4), initial_nodes=2)
        sim.start_move(4)
        with pytest.raises(MigrationError):
            sim.start_move(3)
        assert sim.moves_started == 1

    def test_boost_override(self):
        sim = EngineSimulator(EngineConfig(max_nodes=4), initial_nodes=2)
        migration = sim.start_move(4, boost=8.0)
        assert migration.config.boost == 8.0
        # The simulator's default config is untouched.
        assert sim.migration_config.boost == 1.0


class TestRun:
    def test_slot_alignment_enforced(self):
        sim = EngineSimulator(EngineConfig(dt_seconds=1.0), initial_nodes=1)
        trace = LoadTrace(np.ones(5), slot_seconds=2.5)
        with pytest.raises(ConfigurationError):
            sim.run(trace)

    def test_controller_called_per_slot(self):
        calls = []

        class Recorder:
            def on_slot(self, sim, slot_index, measured):
                calls.append((slot_index, measured))

        sim = EngineSimulator(EngineConfig(max_nodes=2), initial_nodes=1)
        sim.run(flat_trace(100.0, 30), controller=Recorder())
        assert len(calls) == 5
        assert calls[0][0] == 0
        assert calls[0][1] == pytest.approx(600.0, rel=0.05)

    def test_monitor_receives_measurements(self):
        monitor = LoadMonitor(slot_seconds=6.0)
        sim = EngineSimulator(EngineConfig(max_nodes=2), initial_nodes=1)
        sim.run(flat_trace(100.0, 30), monitor=monitor)
        history = monitor.history()
        assert len(history) == 5
        assert history[-1] == pytest.approx(600.0, rel=0.05)


class TestRunResult:
    @pytest.fixture
    def result(self):
        sim = EngineSimulator(EngineConfig(max_nodes=2), initial_nodes=1)
        return sim.run(flat_trace(600.0, 60))

    def test_sla_violations(self, result):
        assert sla_report("static-1", result).violations_p99 > 0
        assert violation_seconds(result.p99_ms, threshold_ms=1e9) == 0

    def test_cost_and_average(self, result):
        assert result.average_machines() == pytest.approx(1.0)
        assert result.total_cost() == pytest.approx(60.0)

    def test_summary_keys(self, result):
        report = sla_report("static-1", result)
        assert report.violations_p50 <= report.violations_p95 <= report.violations_p99
        assert report.average_machines == result.average_machines()


class TestLoadMonitor:
    def test_slot_accumulation(self):
        monitor = LoadMonitor(slot_seconds=10.0)
        assert monitor.record(50.0, dt=5.0) == 0
        assert monitor.record(50.0, dt=5.0) == 1
        assert monitor.history().tolist() == [100.0]

    def test_spanning_slots(self):
        monitor = LoadMonitor(slot_seconds=10.0)
        closed = monitor.record(300.0, dt=30.0)
        assert closed == 3
        assert monitor.history().tolist() == [100.0, 100.0, 100.0]

    def test_seed_history(self):
        monitor = LoadMonitor(slot_seconds=10.0, seed_history=[1.0, 2.0])
        monitor.record(100.0, dt=10.0)
        assert monitor.history().tolist() == [1.0, 2.0, 100.0]
        assert monitor.last(2).tolist() == [2.0, 100.0]

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            LoadMonitor(slot_seconds=0)
        monitor = LoadMonitor(slot_seconds=10.0)
        with pytest.raises(ConfigurationError):
            monitor.record(-1.0, dt=1.0)
