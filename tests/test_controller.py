"""Tests for the online Predictive and Reactive controllers (Section 6).

The Predictive Controller is :class:`repro.serve.control.OnlineControlLoop`;
these tests hand it a predictor that arrives fitted
(``OnlinePredictor.fitted``), the way Figures 9 and 11 do.  The
cold-start half of the same loop is covered in ``tests/test_serve.py``.
"""

import numpy as np
import pytest

import json

from repro.core.controller import ReactiveController, SPIKE_POLICY_BOOST
from repro.core.params import SystemParameters
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.errors import ConfigurationError
from repro.experiments import fig9_elasticity as fig9
from repro.faults import FaultInjector, parse_fault_spec
from repro.prediction.online import OnlinePredictor
from repro.prediction.oracle import OraclePredictor
from repro.prediction.spar import SPARPredictor
from repro.serve.control import OnlineControlLoop
from repro.telemetry import Telemetry
from repro.telemetry.slo import sla_report
from repro.workloads.trace import LoadTrace

SLOT = 6.0
PLAN = 60.0


def plan_params() -> SystemParameters:
    return SystemParameters(interval_seconds=PLAN, partitions_per_node=6)


def oracle(plan_counts) -> OnlinePredictor:
    """A perfect predictor that has already observed the first interval."""
    return OnlinePredictor.fitted(OraclePredictor(plan_counts), plan_counts[:1])


def cold_loop(**kwargs) -> OnlineControlLoop:
    """The same loop around a SPAR that has seen nothing yet."""
    spar = SPARPredictor(period=12, n_periods=2, n_recent=2, max_horizon=4)
    return OnlineControlLoop(
        plan_params(),
        OnlinePredictor(spar),
        measurement_slot_seconds=SLOT,
        max_machines=10,
        **kwargs,
    )


def ramp_trace(minutes: int, start_rate: float, end_rate: float) -> LoadTrace:
    slots = int(minutes * 60 / SLOT)
    rates = np.linspace(start_rate, end_rate, slots)
    return LoadTrace(rates * SLOT, slot_seconds=SLOT)


class TestPredictiveController:
    def test_scales_ahead_of_oracle_ramp(self):
        params = plan_params()
        trace = ramp_trace(90, 200.0, 1800.0)
        plan_counts = trace.resample(PLAN).values
        controller = OnlineControlLoop(
            params,
            oracle(plan_counts),
            measurement_slot_seconds=SLOT,
            horizon=20,
            max_machines=10,
        )
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=1)
        result = sim.run(trace, controller=controller)
        assert controller.moves_requested >= 3
        assert sim.machines_allocated >= 7
        # Predictive scaling keeps latency clean throughout the ramp.
        assert sla_report("pstore", result).violations_p99 == 0
        # Every executed move is recorded in the decision log.
        assert len(controller.decision_log) == controller.moves_requested
        assert all(d.target > d.machines_before for d in controller.decision_log)
        assert "planned" in str(controller.decision_log[-1]) or (
            "cold-start" in str(controller.decision_log[-1])
        )

    def test_scales_in_with_confirmations(self):
        params = plan_params()
        trace = ramp_trace(120, 1500.0, 150.0)
        plan_counts = trace.resample(PLAN).values
        controller = OnlineControlLoop(
            params,
            oracle(plan_counts),
            measurement_slot_seconds=SLOT,
            horizon=20,
            max_machines=10,
            scale_in_confirmations=3,
        )
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=6)
        sim.run(trace, controller=controller)
        assert sim.machines_allocated <= 2

    def test_plans_at_interval_granularity(self):
        params = plan_params()
        trace = ramp_trace(10, 200.0, 200.0)
        plan_counts = trace.resample(PLAN).values
        controller = OnlineControlLoop(
            params,
            oracle(plan_counts),
            measurement_slot_seconds=SLOT,
            horizon=5,
            max_machines=4,
        )
        assert controller.slots_per_interval == 10
        sim = EngineSimulator(EngineConfig(max_nodes=4), initial_nodes=1)
        sim.run(trace, controller=controller)
        # 10 minutes -> 10 closed planning intervals.
        assert controller.online.slots_observed == 1 + 10
        assert controller.intervals_observed == 10

    def test_default_horizon_covers_2d_over_p(self):
        params = plan_params()
        controller = OnlineControlLoop(
            params, oracle(np.ones(10)), measurement_slot_seconds=SLOT
        )
        minimum = 2 * params.d_seconds / params.partitions_per_node
        assert controller.horizon * PLAN >= minimum
        # ... unless the model cannot forecast that far.
        assert cold_loop().horizon == 4 < controller.horizon

    def test_rejects_misaligned_slots(self):
        params = plan_params()
        with pytest.raises(ConfigurationError):
            OnlineControlLoop(
                params, oracle(np.ones(4)), measurement_slot_seconds=7.0
            )

    def test_rejects_unknown_spike_policy(self):
        with pytest.raises(ConfigurationError):
            OnlineControlLoop(
                plan_params(), oracle(np.ones(4)), spike_policy="warp"
            )

    def test_boost_used_on_fallback(self):
        params = plan_params()
        # Constant low load, then a cliff the oracle *does* see but that
        # is infeasible to out-scale: predictive policy falls back.
        slots = int(30 * 60 / SLOT)
        rates = np.concatenate([
            np.full(slots // 2, 150.0), np.full(slots - slots // 2, 2500.0)
        ])
        trace = LoadTrace(rates * SLOT, slot_seconds=SLOT)
        plan_counts = trace.resample(PLAN).values
        controller = OnlineControlLoop(
            params,
            oracle(plan_counts),
            measurement_slot_seconds=SLOT,
            horizon=10,
            max_machines=10,
            spike_policy=SPIKE_POLICY_BOOST,
        )
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=1)
        sim.run(trace, controller=controller)
        assert controller.boosted_moves >= 1

    # -- every feature with either kind of predictor --
    def test_boost_with_cold_started_predictor(self):
        # 70 quiet intervals let the cold SPAR fit (it needs 62), then a
        # cliff it has never seen: the fallback migrates at R x 8.
        rates = np.concatenate([np.full(700, 150.0), np.full(150, 2500.0)])
        controller = cold_loop(spike_policy=SPIKE_POLICY_BOOST)
        assert not controller.is_fitted
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=1)
        sim.run(LoadTrace(rates * SLOT, slot_seconds=SLOT), controller=controller)
        assert controller.refits == 1
        assert controller.boosted_moves >= 1
        boosted = [d for d in controller.decision_log if d.boost != 1.0]
        assert len(boosted) == controller.boosted_moves
        assert all(d.kind == "fallback" and d.boost == 8.0 for d in boosted)

    def test_fault_recovery_with_cold_started_predictor(self):
        # A periodic load the cold SPAR learns on the way; a node crashes
        # on the rising edge after the first fit and the very next cycle
        # replans from the surviving allocation.
        t = np.arange(900)
        rates = 700.0 + 400.0 * np.sin(2 * np.pi * t / 120)
        controller = cold_loop()
        sim = EngineSimulator(
            EngineConfig(max_nodes=10),
            initial_nodes=4,
            fault_injector=FaultInjector(parse_fault_spec("crash@4260:n1")),
        )
        sim.run(LoadTrace(rates * SLOT, slot_seconds=SLOT), controller=controller)
        assert controller.refits == 1
        assert controller.topology_changes_detected == 1
        recovery = [d for d in controller.decision_log if d.kind == "fault-recovery"]
        assert [(d.sim_time, d.machines_before, d.target) for d in recovery] == [
            (4320.0, 3, 5)
        ]

    def test_prefitted_loop_checkpoints_mid_fig9(self):
        setup = fig9.build_setup(eval_days=1, train_days=10)
        half = len(setup.eval_trace) // 2 + 3  # mid planning interval
        first, second = setup.eval_trace[:half], setup.eval_trace[half:]

        def loop():
            return fig9.pstore_engine(setup)[1]

        def run(restore: bool):
            sim = EngineSimulator(setup.engine_config, initial_nodes=3)
            controller = loop()
            sim.run(first, controller=controller)
            before = list(controller.decision_log)
            if restore:
                snapshot = json.loads(json.dumps(controller.state_dict()))
                controller = loop()
                controller.load_state_dict(snapshot)
                before = []
            result = sim.run(second, controller=controller)
            return before, controller, result

        before, reference, ref_result = run(restore=False)
        _, restored, result = run(restore=True)
        assert len(reference.decision_log) - len(before) >= 5
        assert restored.decision_log == reference.decision_log[len(before):]
        assert restored.moves_requested == reference.moves_requested
        assert np.array_equal(result.machines, ref_result.machines)

    def test_prefitted_loop_audits_tenant_violation_costs(self):
        params = plan_params()
        trace = ramp_trace(30, 200.0, 1200.0)
        plan_counts = trace.resample(PLAN).values
        controller = OnlineControlLoop(
            params, oracle(plan_counts),
            measurement_slot_seconds=SLOT, horizon=10, max_machines=10,
        )
        telemetry = Telemetry()
        sim = EngineSimulator(
            EngineConfig(max_nodes=10), initial_nodes=1, telemetry=telemetry
        )
        # Cumulative offered counts, as the serving engine reports them.
        controller.set_tenant_stats(
            lambda: {"gold": int(sim.now * 300), "bronze": int(sim.now * 100)},
            {"gold": 3, "bronze": 1},
        )
        sim.run(trace, controller=controller)
        audits = telemetry.timeline.events_of("audit")
        assert audits and all(e["tenants"] for e in audits)
        assert {c["tenant"] for c in audits[-1]["tenants"]} == {"gold", "bronze"}


class TestReactiveController:
    def test_waits_for_detection_window(self):
        params = plan_params()
        controller = ReactiveController(
            params, max_machines=10, detect_slots=5, measurement_slot_seconds=SLOT
        )
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=1)
        overload = LoadTrace(np.full(20, 500.0 * SLOT), slot_seconds=SLOT)
        for slot_index in range(4):
            controller.on_slot(sim, slot_index, 500.0 * SLOT)
        assert controller.moves_requested == 0
        controller.on_slot(sim, 4, 500.0 * SLOT)
        assert controller.moves_requested == 1
        assert sim.migration_active

    def test_no_reaction_below_trigger(self):
        params = plan_params()
        controller = ReactiveController(
            params, max_machines=10, detect_slots=1, measurement_slot_seconds=SLOT
        )
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=2)
        for slot_index in range(10):
            controller.on_slot(sim, slot_index, 400.0 * SLOT)  # < 2 * Q
        assert controller.moves_requested == 0

    def test_scale_in_after_sustained_low_load(self):
        params = plan_params()
        controller = ReactiveController(
            params, max_machines=10, scale_in_slots=5, measurement_slot_seconds=SLOT
        )
        config = EngineConfig(max_nodes=10)
        sim = EngineSimulator(config, initial_nodes=4)
        slot_index = 0
        while controller.moves_requested == 0 and slot_index < 50:
            if sim.migration_active:
                sim.migration.step(1e6)
                sim.migration = None
            controller.on_slot(sim, slot_index, 100.0 * SLOT)
            slot_index += 1
        assert controller.moves_requested == 1

    def test_rejects_invalid_windows(self):
        with pytest.raises(ConfigurationError):
            ReactiveController(plan_params(), detect_slots=0)
        with pytest.raises(ConfigurationError):
            ReactiveController(plan_params(), trigger_fraction=0.0)
