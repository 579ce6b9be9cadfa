"""Tests for the long-horizon capacity simulator (Section 8.3)."""

import numpy as np
import pytest

import repro.core.capacity as cap
from repro.core.controller import ReactiveController
from repro.core.params import SystemParameters
from repro.errors import ConfigurationError, MigrationError
from repro.simulation.capacity_sim import CapacitySimulator
from repro.workloads.trace import LoadTrace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)


class OneShot:
    """Requests a single move at a fixed interval (test helper); records
    what the simulator showed it."""

    def __init__(self, at_interval: int, target: int) -> None:
        self.at_interval = at_interval
        self.target = target
        self.seen = []

    def on_slot(self, sim, slot_index, measured_count):
        self.seen.append((slot_index, sim.now, sim.migration_active, sim.machines_allocated))
        if slot_index == self.at_interval:
            sim.start_move(self.target)


def flat(machine_multiples: float, intervals: int) -> LoadTrace:
    rate = machine_multiples * PARAMS.q
    return LoadTrace(np.full(intervals, rate * 300.0), slot_seconds=300.0)


class TestStaticRuns:
    def test_cost_is_machines_times_intervals(self):
        sim = CapacitySimulator(PARAMS, max_machines=10)
        result = sim.run(flat(1.0, 50), initial_machines=4)
        assert result.cost == pytest.approx(200.0)
        assert result.moves == 0
        assert result.pct_time_insufficient == 0.0

    def test_undersized_static_violates(self):
        sim = CapacitySimulator(PARAMS, max_machines=10)
        result = sim.run(flat(3.0, 50), initial_machines=2)
        # Violations are against Q_hat capacity: 3 Q > 2 Q_hat.
        assert result.pct_time_insufficient == pytest.approx(100.0)

    def test_buffer_zone_not_a_violation(self):
        # Load above Q*N but below Q_hat*N: degraded target, not an SLA
        # breach (this is the paper's Q vs Q_hat buffer).
        sim = CapacitySimulator(PARAMS, max_machines=10)
        result = sim.run(flat(2.2, 20), initial_machines=2)
        assert result.pct_time_insufficient == 0.0


class TestMoveAccounting:
    def test_move_cost_matches_equation4(self):
        sim = CapacitySimulator(PARAMS, max_machines=20)
        intervals = 40
        result = sim.run(flat(1.0, intervals), OneShot(5, 14), initial_machines=3)
        duration = cap.move_time_intervals(3, 14, PARAMS)
        expected = (
            5 * 3  # before the move
            + cap.move_cost(3, 14, PARAMS)  # during (Equation 4)
            + (intervals - 5 - duration) * 14  # after
        )
        assert result.cost == pytest.approx(expected, rel=0.02)
        assert result.moves == 1

    def test_effective_capacity_during_move(self):
        sim = CapacitySimulator(PARAMS, max_machines=20)
        result = sim.run(flat(1.0, 30), OneShot(2, 14), initial_machines=3)
        duration = cap.move_time_intervals(3, 14, PARAMS)
        for i in range(1, duration + 1):
            expected = cap.effective_capacity(3, 14, i / duration, PARAMS)
            measured = result.effective_machines[2 + i - 1] * PARAMS.q
            assert measured == pytest.approx(expected, rel=1e-6)
        # After the move, full capacity.
        assert result.effective_machines[2 + duration] == 14

    def test_reconfiguring_flag(self):
        sim = CapacitySimulator(PARAMS, max_machines=10)
        controller = OneShot(3, 6)
        result = sim.run(flat(1.0, 20), controller, initial_machines=3)
        assert result.reconfiguring[3]
        assert not result.reconfiguring[0]
        assert not result.reconfiguring[-1]
        # The controller sees every interval, the in-flight ones included,
        # and the new size only once the move has landed.
        duration = cap.move_time_intervals(3, 6, PARAMS)
        assert [row[0] for row in controller.seen] == list(range(20))
        assert [row[1] for row in controller.seen] == [300.0 * t for t in range(20)]
        assert [t for t, _, active, _ in controller.seen if active] == list(
            range(4, 3 + duration)
        )
        assert controller.seen[3 + duration][3] == 6

    def test_start_move_refusals(self):
        """Like the engine's: the current size and a second move in flight
        are refused; a migration-rate boost has no capacity model."""
        refusals = []

        class Pushy:
            def on_slot(self, sim, slot_index, measured_count):
                for target in (sim.machines_allocated, 5, 6):
                    try:
                        sim.start_move(target)
                    except MigrationError as exc:
                        refusals.append(str(exc))
                with pytest.raises(ConfigurationError):
                    sim.start_move(7, boost=8.0)

        sim = CapacitySimulator(PARAMS, max_machines=10)
        result = sim.run(flat(1.0, 1), Pushy(), initial_machines=3)
        assert result.moves == 1 and result.target_machines[0] == 5
        assert "nothing to migrate" in refusals[0] and "in flight" in refusals[1]


class TestViolationSemantics:
    def test_peak_values_drive_violations(self):
        values = np.full(20, 1.0 * PARAMS.q * 300.0)
        peaks = values.copy()
        peaks[10] = 2.5 * PARAMS.q * 300.0  # burst beyond 1 machine's Q_hat
        trace = LoadTrace(values, slot_seconds=300.0, peak_values=peaks)
        sim = CapacitySimulator(PARAMS, max_machines=10)
        result = sim.run(trace, initial_machines=1)
        assert result.insufficient_mask().sum() == 1
        assert result.pct_time_insufficient == pytest.approx(5.0)

    def test_summary_fields(self):
        sim = CapacitySimulator(PARAMS, max_machines=10)
        result = sim.run(flat(1.0, 10), initial_machines=2)
        assert result.cost == 20.0 and result.average_machines() == 2.0
        assert result.pct_time_insufficient == 0.0 and result.moves == 0


class TestGuards:
    def test_slot_mismatch_rejected(self):
        sim = CapacitySimulator(PARAMS, max_machines=10)
        trace = LoadTrace(np.ones(10), slot_seconds=60.0)
        with pytest.raises(ConfigurationError):
            sim.run(trace, initial_machines=2)

    def test_rejects_bad_max_machines(self):
        with pytest.raises(ConfigurationError):
            CapacitySimulator(PARAMS, max_machines=0)

    def test_targets_clamped_to_max(self):
        sim = CapacitySimulator(PARAMS, max_machines=5)
        result = sim.run(flat(1.0, 20), OneShot(2, 50), initial_machines=2)
        assert result.allocated.max() <= 5
        assert result.target_machines[-1] == 5
        # The first interval's size is capped the same way.
        assert sim.run(flat(1.0, 3), initial_machines=9).allocated.max() == 5
        with pytest.raises(ConfigurationError):
            sim.run(flat(1.0, 3), initial_machines=0)


class TestReactiveIntegration:
    def test_reactive_follows_a_square_wave(self):
        rate = np.concatenate([
            np.full(30, 1.5), np.full(30, 4.5), np.full(60, 1.5)
        ]) * PARAMS.q
        trace = LoadTrace(rate * 300.0, slot_seconds=300.0)
        sim = CapacitySimulator(PARAMS, max_machines=10)
        reactive = ReactiveController(
            PARAMS, max_machines=10, detect_slots=1, scale_in_slots=5
        )
        result = sim.run(trace, reactive)
        # Scaled out for the high phase...
        assert result.target_machines[35:55].max() >= 5
        # ...and back down eventually.
        assert result.target_machines[-1] <= 3
        assert result.moves >= 2
