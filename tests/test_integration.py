"""End-to-end integration tests across the whole stack.

These exercise the complete P-Store loop — workload generation, online
measurement, SPAR prediction, DP planning, migration scheduling and the
simulated engine — on small-but-real scenarios.
"""

import numpy as np
import pytest

from repro.core.controller import ReactiveController
from repro.core.params import SystemParameters
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.prediction.online import OnlinePredictor
from repro.prediction.oracle import OraclePredictor
from repro.prediction.spar import SPARPredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation.capacity_sim import CapacitySimulator
from repro.telemetry.slo import sla_report
from repro.workloads.b2w import B2WTraceConfig, generate_b2w_trace

SLOT = 6.0        # compressed measurement slot (1 original minute at 10x)
PLAN = 60.0       # compressed planning interval (10 original minutes)


@pytest.fixture(scope="module")
def compressed_days():
    """5 training days + 1 eval day, compressed 10x, engine-calibrated."""
    config = B2WTraceConfig(num_days=6, peak_per_minute=14000, seed=42)
    return generate_b2w_trace(config=config).time_compressed(10)


class TestPredictiveEndToEnd:
    def test_spar_controller_on_engine(self, compressed_days):
        trace = compressed_days
        period = int(8640 / PLAN)  # compressed day / planning interval
        plan_trace = trace.resample(PLAN)
        train = plan_trace.values[: 5 * period]
        eval_trace = trace[5 * 1440 :]

        params = SystemParameters(interval_seconds=PLAN, partitions_per_node=6)
        spar = SPARPredictor(
            period=period, n_periods=4, n_recent=6, max_horizon=40
        ).fit(train)
        controller = OnlineControlLoop(
            params, OnlinePredictor.fitted(spar, train),
            measurement_slot_seconds=SLOT, max_machines=10,
        )
        first_rate = float(eval_trace.per_second()[0])
        sim = EngineSimulator(
            EngineConfig(max_nodes=10),
            initial_nodes=max(1, int(np.ceil(first_rate * 1.15 / params.q))),
        )
        result = sim.run(eval_trace, controller=controller)

        # The controller actually drove reconfigurations in both
        # directions across the day.
        assert controller.moves_requested >= 6
        assert result.machines.max() >= 7
        assert result.machines.min() <= 3
        # Predictive provisioning keeps the SLA essentially clean.
        assert sla_report("pstore", result).violations_p99 <= 10
        # Machines track the load: average well below peak provisioning.
        assert result.average_machines() < 0.75 * result.machines.max()

    def test_pstore_beats_reactive_on_violations(self, compressed_days):
        trace = compressed_days
        period = int(8640 / PLAN)
        plan_trace = trace.resample(PLAN)
        train = plan_trace.values[: 5 * period]
        eval_trace = trace[5 * 1440 :]
        params = SystemParameters(interval_seconds=PLAN, partitions_per_node=6)

        spar = SPARPredictor(
            period=period, n_periods=4, n_recent=6, max_horizon=40
        ).fit(train)
        first = max(1, int(np.ceil(eval_trace.per_second()[0] / params.q)))

        sim_p = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=first)
        ctrl_p = OnlineControlLoop(
            params, OnlinePredictor.fitted(spar, train),
            measurement_slot_seconds=SLOT, max_machines=10,
        )
        res_p = sim_p.run(eval_trace, controller=ctrl_p)

        sim_r = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=first)
        ctrl_r = ReactiveController(
            params, max_machines=10, trigger_fraction=1.1, detect_slots=15,
            scale_in_slots=150, measurement_slot_seconds=SLOT,
        )
        res_r = sim_r.run(eval_trace, controller=ctrl_r)

        assert (
            sla_report("pstore", res_p).violations_p99
            < sla_report("reactive", res_r).violations_p99
        )


class TestCapacitySimEndToEnd:
    def test_strategy_ordering_on_one_week(self):
        slot = 300.0
        per_day = int(86400 / slot)
        trace = generate_b2w_trace(
            12, slot_seconds=slot, seed=7
        ).scaled(6.0)
        train = trace.values[: 8 * per_day]
        eval_trace = trace[8 * per_day :]
        params = SystemParameters(interval_seconds=slot, partitions_per_node=6)
        sim = CapacitySimulator(params, max_machines=20)

        oracle = sim.run(
            eval_trace,
            OnlineControlLoop(
                params, OnlinePredictor.fitted(OraclePredictor(eval_trace.values), ()),
                horizon=12, max_machines=20,
            ),
        )
        static_big = sim.run(eval_trace, initial_machines=12)
        static_small = sim.run(eval_trace, initial_machines=3)
        reactive = sim.run(
            eval_trace, ReactiveController(params, max_machines=20, scale_in_slots=12)
        )

        # Elastic approaches cost far less than peak provisioning.
        assert oracle.cost < 0.7 * static_big.cost
        # Small static violates massively; the oracle never does more
        # than sub-slot bursts allow.
        assert static_small.pct_time_insufficient > 10.0
        assert oracle.pct_time_insufficient < 1.0
        # Reactive is at least as violation-prone as the oracle.
        assert reactive.pct_time_insufficient >= oracle.pct_time_insufficient


class TestPlannerToMigrationChain:
    def test_plan_drives_engine_migrations(self):
        """Execute a full plan move-by-move against the engine."""
        from repro.core.planner import Planner

        params = SystemParameters(interval_seconds=60.0, partitions_per_node=6)
        planner = Planner(params, max_machines=8)
        q = params.q
        # At 1-minute intervals a 1 -> 2 move takes ~7 intervals, so the
        # ramp must leave the planner room to stage its scale-outs.
        load = np.concatenate([
            np.full(8, 0.8), np.full(5, 1.5), np.full(4, 2.5), np.full(8, 3.5)
        ]) * q
        plan = planner.best_moves(load, initial_machines=1)

        sim = EngineSimulator(
            EngineConfig(max_nodes=8, dt_seconds=1.0), initial_nodes=1
        )
        for move in plan.moves:
            if move.is_noop:
                continue
            migration = sim.start_move(move.after)
            while not migration.completed:
                migration.step(10.0)
            sim.migration = None
        assert sim.machines_allocated == plan.final_machines
        fractions = sim.cluster.data_fractions()
        assert len(fractions) == plan.final_machines
        assert max(fractions.values()) < 1.25 * min(fractions.values())
