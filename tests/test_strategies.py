"""Tests for the allocation policies and the predictive policy.

Static is no controller at all; Simple, reactive and P-Store's control
loop are elasticity controllers that run on the capacity simulator and
the engine simulator alike.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.controller import ReactiveController, SimpleController
from repro.core.params import SystemParameters
from repro.core.policy import PredictivePolicy
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.errors import ConfigurationError
from repro.prediction import ForecastTable, OnlinePredictor, OraclePredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation.capacity_sim import CapacitySimulator
from repro.telemetry import Telemetry, telemetry_session
from repro.workloads.trace import LoadTrace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)
INTERVALS_PER_HOUR = 12


class Probe:
    """The slice of a simulator a controller reads, held at a chosen
    size; requested moves are recorded, not executed."""

    def __init__(self, machines, max_machines=10):
        self.now = 0.0
        self.machines_allocated = machines
        self.migration_active = False
        self.telemetry = None
        self.cluster = SimpleNamespace(num_available_nodes=max_machines)
        self.min_machines = 0
        self.moves = []

    def start_move(self, target, *, boost=1.0):
        self.moves.append(target)


def slot(controller, machines, load_rate):
    """Feed one 300 s slot at ``load_rate`` txn/s to a cluster of
    ``machines``; returns the move requested, or ``None``."""
    probe = Probe(machines)
    controller.on_slot(probe, 0, load_rate * 300.0)
    return probe.moves[0] if probe.moves else None


def trace_of(rates) -> LoadTrace:
    return LoadTrace(np.asarray(rates, dtype=float) * 300.0, slot_seconds=300.0)


def oracle_loop(trace, **kwargs) -> OnlineControlLoop:
    online = OnlinePredictor.fitted(OraclePredictor(trace.values), ())
    return OnlineControlLoop(PARAMS, online, horizon=12, max_machines=10, **kwargs)


class TestStatic:
    def test_never_moves(self):
        sim = CapacitySimulator(PARAMS, max_machines=10)
        result = sim.run(trace_of(np.full(20, 1e9)), initial_machines=7)
        assert result.moves == 0
        assert np.all(result.allocated == 7)

    def test_rejects_bad_count(self):
        with pytest.raises(ConfigurationError):
            CapacitySimulator(PARAMS, max_machines=10).run(
                trace_of([1.0]), initial_machines=0
            )


class TestSimple:
    def test_day_night_switching(self):
        simple = SimpleController(8, 2, morning_hour=7, night_hour=23)
        result = CapacitySimulator(PARAMS, max_machines=10).run(
            trace_of(np.full(48 * INTERVALS_PER_HOUR, 100.0)), simple, initial_machines=2
        )
        target = result.target_machines
        morning, night = 7 * INTERVALS_PER_HOUR, 23 * INTERVALS_PER_HOUR
        assert target[3 * INTERVALS_PER_HOUR] == 2  # 03:00
        assert target[morning - 1] == 2 and target[morning] == 8
        assert target[night - 1] == 8 and target[night] == 2
        assert result.moves == 4  # two mornings, two nights

    def test_day_night_switching_on_engine(self):
        simple = SimpleController(4, 2, morning_hour=1, night_hour=3)
        sim = EngineSimulator(EngineConfig(max_nodes=6), initial_nodes=2)
        result = sim.run(trace_of(np.full(4 * INTERVALS_PER_HOUR, 100.0)), controller=simple)
        assert np.all(result.machines[result.time < 3600.0] == 2)
        assert result.machines.max() == 4
        assert sim.machines_allocated == 2

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            SimpleController(2, 5)
        with pytest.raises(ConfigurationError):
            SimpleController(5, 0)
        with pytest.raises(ConfigurationError):
            SimpleController(5, 2, morning_hour=10, night_hour=9)


class TestReactive:
    def test_triggers_after_detection(self):
        reactive = ReactiveController(PARAMS, detect_slots=2)
        overload = 2.5 * PARAMS.q  # needs 3 machines, have 2
        assert slot(reactive, 2, overload) is None
        assert slot(reactive, 2, overload) == 3

    def test_headroom_adds_machines(self):
        reactive = ReactiveController(PARAMS, headroom=0.5, detect_slots=1)
        assert slot(reactive, 2, 2.5 * PARAMS.q) == 4

    def test_scale_in_one_at_a_time(self):
        reactive = ReactiveController(PARAMS, scale_in_slots=3)
        low = 0.5 * PARAMS.q
        assert slot(reactive, 5, low) is None
        assert slot(reactive, 5, low) is None
        assert slot(reactive, 5, low) == 4

    def test_counter_resets_on_normal_load(self):
        reactive = ReactiveController(PARAMS, scale_in_slots=2)
        low = 0.5 * PARAMS.q
        fine = 4.5 * PARAMS.q
        assert slot(reactive, 5, low) is None
        assert slot(reactive, 5, fine) is None
        assert slot(reactive, 5, low) is None

    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            ReactiveController(PARAMS, headroom=-0.1)
        with pytest.raises(ConfigurationError):
            ReactiveController(PARAMS, detect_slots=0)
        with pytest.raises(ConfigurationError):
            ReactiveController(PARAMS, trigger_fraction=1.6)
        ReactiveController(PARAMS, trigger_fraction=1.5)


class TestPredictivePolicy:
    def test_plateau_fast_path_skips_planning(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        load = np.full(13, 1.5 * PARAMS.q)
        decision = policy.decide(load, 2)
        assert decision.target is None
        assert not decision.planned
        assert policy.plans_computed == 0

    def test_scale_out_executed_immediately(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        # Load exceeds the 2-machine capacity already at the next
        # interval, so the first move must start now.
        load = np.linspace(1.9, 6.5, 13) * PARAMS.q
        decision = policy.decide(load, 2)
        assert decision.planned
        assert decision.target is not None and decision.target > 2

    def test_scale_out_delayed_when_there_is_time(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        # Capacity is exceeded only several intervals out: the planner
        # delays the move (minimizing cost), so nothing executes yet.
        load = np.linspace(1.5, 2.8, 13) * PARAMS.q
        decision = policy.decide(load, 2)
        assert decision.planned
        assert decision.target is None

    def test_scale_in_needs_three_votes(self):
        policy = PredictivePolicy(PARAMS, max_machines=10, scale_in_confirmations=3)
        load = np.full(13, 0.5 * PARAMS.q)
        assert policy.decide(load, 4).target is None
        assert policy.decide(load, 4).target is None
        third = policy.decide(load, 4)
        assert third.target is not None and third.target < 4

    def test_scale_out_resets_scale_in_votes(self):
        policy = PredictivePolicy(PARAMS, max_machines=10, scale_in_confirmations=2)
        low = np.full(13, 0.5 * PARAMS.q)
        high = np.linspace(1.5, 6.5, 13) * PARAMS.q
        assert policy.decide(low, 4).target is None
        policy.decide(high, 4)  # interleaved scale-out request
        assert policy.decide(low, 4).target is None  # vote count restarted

    def test_fallback_on_infeasible(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        load = np.full(13, 6.0 * PARAMS.q)
        load[0] = 0.9 * PARAMS.q
        load[1] = 6.0 * PARAMS.q  # cliff no plan can climb
        decision = policy.decide(load, 1)
        assert decision.fallback
        assert decision.target == 6
        assert policy.fallback_scale_outs == 1


class TestPredictiveLoop:
    """P-Store's control loop on the capacity simulator."""

    def test_oracle_loop_scales_ahead(self):
        q = PARAMS.q
        rates = np.concatenate([
            np.full(20, 0.8 * q), np.linspace(0.8, 4.5, 20) * q, np.full(20, 4.5 * q)
        ])
        trace = trace_of(rates)
        loop = oracle_loop(trace, inflation=0.0)
        result = CapacitySimulator(PARAMS, max_machines=10).run(trace, loop)
        targets = [d.target for d in loop.decision_log]
        assert targets, "the ramp must trigger scale-outs"
        assert max(targets) == 5
        assert {d.kind for d in loop.decision_log} == {"planned"}
        # Capacity stays ahead of the ramp: never below the load's Q need.
        assert np.all(result.effective_machines * PARAMS.q >= rates - 1e-9)

    def test_missing_forecast_falls_back_to_reactive(self):
        # Forecasts issued from the 4-slot history only: the 5th slot has
        # none, and "no forecast" is the loop's one reactive path.
        rows = np.full((6, 4), np.nan)
        rows[3] = 0.5 * PARAMS.q * 300.0
        online = OnlinePredictor.fitted(ForecastTable(rows), np.zeros(3))
        loop = OnlineControlLoop(PARAMS, online, horizon=4, max_machines=10)
        probe = Probe(1)
        loop.on_slot(probe, 0, 0.5 * PARAMS.q * 300.0)
        assert loop.predictive_decisions == 0 and not probe.moves  # planned: hold
        loop.on_slot(probe, 1, 2.5 * PARAMS.q * 300.0)
        assert probe.moves == [3]  # ceil(2.5 * 1.15)
        assert loop.decision_log[-1].kind == "cold-start-reactive"

    def test_rejects_invalid(self):
        online = OnlinePredictor.fitted(OraclePredictor(np.ones(4)), ())
        with pytest.raises(ConfigurationError):
            OnlineControlLoop(PARAMS, online, horizon=0)
        with pytest.raises(ConfigurationError):
            OnlineControlLoop(PARAMS, online, inflation=-1.0)

    def test_capacity_run_under_telemetry(self):
        """A capacity run emits the engine controllers' stream: one
        ``control.decisions`` per move, and only their decision kinds."""
        q = PARAMS.q
        day = 24 * INTERVALS_PER_HOUR
        rates = (2.5 + 1.5 * np.sin(np.arange(2 * day) * 2 * np.pi / day)) * q
        trace = trace_of(rates)
        for controller, kinds in (
            (oracle_loop(trace), {"planned", "fallback", "cold-start-reactive"}),
            (ReactiveController(PARAMS, scale_in_slots=12), {"reactive"}),
        ):
            telemetry = Telemetry()
            with telemetry_session(telemetry):
                result = CapacitySimulator(PARAMS, max_machines=10).run(trace, controller)
            decisions = telemetry.timeline.events_of("decision")
            assert result.moves > 0
            assert telemetry.counter("control.decisions").value == result.moves
            assert len(decisions) == result.moves
            assert {e["action"] for e in decisions} <= kinds
        assert telemetry.timeline.events_of("decision")[0]["t"] % 300.0 == 0.0
