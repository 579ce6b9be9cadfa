"""Tests for the manual-provisioning overlay."""

import numpy as np
import pytest

from repro.core.controller import (
    ManualOverrideController,
    ProvisioningWindow,
    ReactiveController,
    SimpleController,
)
from repro.core.params import SystemParameters
from repro.errors import ConfigurationError
from repro.prediction import OnlinePredictor, OraclePredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation.capacity_sim import CapacitySimulator
from repro.workloads.trace import LoadTrace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)
INTERVALS_PER_DAY = 288


def run(controller, intervals, *, machines=2, max_machines=10, rate=100.0):
    """Capacity-simulate ``controller`` over a flat load from ``machines``."""
    trace = LoadTrace(np.full(intervals, rate * 300.0), slot_seconds=300.0)
    return CapacitySimulator(PARAMS, max_machines=max_machines).run(
        trace, controller, initial_machines=machines
    )


class TestWindow:
    def test_active(self):
        window = ProvisioningWindow(2.0, 3.0, 8, label="promo")
        assert not window.active(1.9)
        assert window.active(2.0)
        assert window.active(2.99)
        assert not window.active(3.0)

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            ProvisioningWindow(2.0, 2.0, 8)
        with pytest.raises(ConfigurationError):
            ProvisioningWindow(1.0, 2.0, 0)


class TestOverlay:
    def test_floor_enforced_inside_window(self):
        overlay = ManualOverrideController(None, [ProvisioningWindow(1.0, 2.0, 8)])
        result = run(overlay, 3 * INTERVALS_PER_DAY)
        target = result.target_machines
        # Outside the window: the base (a static allocation) rules.
        assert target[int(0.5 * INTERVALS_PER_DAY)] == 2
        # Inside the window: the floor forced a scale-out, once.
        assert np.all(target[INTERVALS_PER_DAY : 2 * INTERVALS_PER_DAY] == 8)
        assert result.moves == 1

    def test_lead_time_pre_provisions(self):
        overlay = ManualOverrideController(
            None, [ProvisioningWindow(1.0, 2.0, 8)], lead_days=0.1
        )
        target = run(overlay, 2 * INTERVALS_PER_DAY).target_machines
        assert target[int(0.95 * INTERVALS_PER_DAY)] == 8
        assert target[int(0.85 * INTERVALS_PER_DAY)] == 2

    def test_base_decision_wins_when_higher(self):
        base = SimpleController(9, 9)
        overlay = ManualOverrideController(base, [ProvisioningWindow(0.0, 1.0, 4)])
        result = run(overlay, INTERVALS_PER_DAY, machines=9)
        # Simple-9 wants 9 >= floor 4: the floor never binds.
        assert result.moves == 0 and np.all(result.target_machines == 9)

    def test_initial_machines_respects_floor(self):
        overlay = ManualOverrideController(None, [ProvisioningWindow(0.0, 1.0, 6)])
        result = run(overlay, 10)
        # The first interval already moves to the floor.
        assert result.target_machines[0] == 6 and result.moves == 1

    def test_floor_clamped_to_max_machines(self):
        overlay = ManualOverrideController(None, [ProvisioningWindow(0.0, 1.0, 50)])
        result = run(overlay, 10, max_machines=5)
        assert result.target_machines[-1] == 5

    def test_base_request_raised_to_floor(self):
        # Simple wants 2 at night; the window holds 6.
        overlay = ManualOverrideController(
            SimpleController(4, 2, morning_hour=7, night_hour=23),
            [ProvisioningWindow(0.0, 1.0, 6)],
        )
        result = run(overlay, INTERVALS_PER_DAY, machines=6)
        # Simple reads the floor: it asks for 4 or 2 all day and gets 6.
        assert result.moves == 0 and np.all(result.target_machines == 6)

    def test_reactive_base_moves_to_the_floor(self):
        # 1.5 Q needs 2 machines: only the floor lifts the reactive base,
        # which scales back in once the window closes.
        reactive = ReactiveController(PARAMS, max_machines=10)
        overlay = ManualOverrideController(reactive, [ProvisioningWindow(1.0, 2.0, 8)])
        result = run(overlay, 3 * INTERVALS_PER_DAY, rate=1.5 * PARAMS.q)
        assert result.allocated[INTERVALS_PER_DAY : 2 * INTERVALS_PER_DAY].min() >= 8
        assert result.target_machines[int(0.9 * INTERVALS_PER_DAY)] == 2
        assert result.target_machines[-1] == 2

    def test_rejects_negative_lead(self):
        with pytest.raises(ConfigurationError):
            ManualOverrideController(None, [], lead_days=-1.0)


class TestSimulation:
    def test_black_friday_floor_in_capacity_sim(self):
        """The composite pre-provisions a known event day."""
        q = PARAMS.q
        # Two days of modest load; day 2 carries a huge known promotion.
        rates = np.concatenate([
            np.full(INTERVALS_PER_DAY, 1.5 * q),
            np.full(INTERVALS_PER_DAY, 7.5 * q),
        ])
        trace = LoadTrace(rates * 300.0, slot_seconds=300.0)
        simulator = CapacitySimulator(PARAMS, max_machines=12)

        plain = simulator.run(trace, initial_machines=2)
        composite = simulator.run(
            trace,
            ManualOverrideController(
                None, [ProvisioningWindow(1.0, 2.0, 10, label="black friday")]
            ),
            initial_machines=2,
        )
        assert plain.pct_time_insufficient > 40.0
        assert composite.pct_time_insufficient < 1.0
        # The floor lifts allocation only around the event.
        assert composite.allocated[: INTERVALS_PER_DAY // 2].max() <= 2
        assert composite.allocated[-INTERVALS_PER_DAY // 2 :].min() >= 10

    def test_floor_holds_over_the_control_loop(self):
        """Over P-Store's loop the floor holds while the window is open,
        and the loop plans freely on either side of it."""
        q = PARAMS.q
        rates = np.full(3 * INTERVALS_PER_DAY, 1.5 * q)
        trace = LoadTrace(rates * 300.0, slot_seconds=300.0)
        loop = OnlineControlLoop(
            PARAMS, OnlinePredictor.fitted(OraclePredictor(trace.values), ()),
            horizon=12, max_machines=12,
        )
        overlay = ManualOverrideController(loop, [ProvisioningWindow(1.0, 2.0, 8)])
        result = CapacitySimulator(PARAMS, max_machines=12).run(
            trace, overlay, initial_machines=4
        )
        window = result.allocated[INTERVALS_PER_DAY : 2 * INTERVALS_PER_DAY]
        assert window.min() >= 8
        # Before the window (and its lead time) the loop scaled in.
        assert result.allocated[INTERVALS_PER_DAY // 2 : INTERVALS_PER_DAY - 20].max() == 2
        # After the window the loop scales back in to what the load needs.
        assert result.target_machines[-1] == 2

    def test_overlay_moves_are_the_loops_own_decisions(self):
        """The floor the loop reads is no fault: lifting the cluster to
        it and releasing it are planned moves, never a topology change."""
        q = PARAMS.q
        rates = np.full(3 * INTERVALS_PER_DAY, 1.5 * q)
        trace = LoadTrace(rates * 300.0, slot_seconds=300.0)
        loop = OnlineControlLoop(
            PARAMS, OnlinePredictor.fitted(OraclePredictor(trace.values), ()),
            horizon=12, max_machines=12,
        )
        overlay = ManualOverrideController(loop, [ProvisioningWindow(1.0, 2.0, 8)])
        result = CapacitySimulator(PARAMS, max_machines=12).run(
            trace, overlay, initial_machines=4
        )
        assert result.allocated[INTERVALS_PER_DAY : 2 * INTERVALS_PER_DAY].min() >= 8
        assert loop.topology_changes_detected == 0
        assert {d.kind for d in loop.decision_log} == {"planned"}
        assert 8 in {d.target for d in loop.decision_log}
