"""Micro-benchmarks of the core computational kernels.

These time the hot paths the online system exercises every control
cycle: the DP planner, SPAR fitting and prediction, migration-schedule
construction and the engine's step function.
"""

import numpy as np
import pytest

from repro.core.params import SystemParameters
from repro.core.planner import Planner
from repro.core.schedule import build_move_schedule
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.prediction.spar import SPARPredictor
from repro.workloads.b2w import generate_b2w_trace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)


def test_planner_best_moves(benchmark):
    """One receding-horizon planning cycle (12 intervals, Z up to 10)."""
    planner = Planner(PARAMS, max_machines=12)
    rng = np.random.default_rng(0)
    load = (np.linspace(1.0, 8.0, 13) + rng.uniform(0, 0.2, 13)) * PARAMS.q
    plan = benchmark(planner.best_moves, load, 2)
    assert plan.final_machines >= 8


def test_spar_fit(benchmark):
    """Fitting SPAR on 4 weeks of 5-minute data, 12 horizons."""
    trace = generate_b2w_trace(28, slot_seconds=300.0, seed=5)
    model = SPARPredictor(period=288, n_periods=7, n_recent=12, max_horizon=12)
    benchmark(model.fit, trace.values)


def test_spar_predict(benchmark):
    """One online 12-step forecast (what the controller runs per cycle)."""
    trace = generate_b2w_trace(35, slot_seconds=300.0, seed=5)
    model = SPARPredictor(period=288, n_periods=7, n_recent=12, max_horizon=12)
    model.fit(trace.values[: 28 * 288])
    history = trace.values[: 30 * 288]
    forecast = benchmark(model.predict, history, 12)
    assert forecast.shape == (12,)


def test_schedule_construction(benchmark):
    """Building and validating the Table 1 schedule (3 -> 14)."""
    def build():
        return build_move_schedule(3, 14, partitions_per_node=6)

    schedule = benchmark(build)
    assert schedule.num_rounds == 11


@pytest.mark.parametrize("horizon", [12, 26, 52])
def test_planner_scaling_with_horizon(benchmark, horizon):
    """DP cost grows ~linearly with the horizon (O(T * Z^2 * T_move))."""
    planner = Planner(PARAMS, max_machines=12)
    rng = np.random.default_rng(horizon)
    load = (
        np.linspace(1.0, 9.0, horizon + 1) + rng.uniform(0, 0.3, horizon + 1)
    ) * PARAMS.q
    plan = benchmark(planner.best_moves, load, 2)
    assert plan.final_machines >= 9


def test_planner_tables_memoized():
    """Planners built from equal parameters share one table set."""
    first = Planner(PARAMS, max_machines=48)
    second = Planner(
        SystemParameters(interval_seconds=300.0, partitions_per_node=6),
        max_machines=48,
    )
    assert first._tables is second._tables


def test_second_planning_cycle_not_slower():
    """Receding-horizon replanning reuses the memoized move tables, so a
    second cycle (tables warm) must not be slower than the first (tables
    cold — parameters unique to this test, so nothing is pre-cached)."""
    import time

    params = SystemParameters(interval_seconds=299.0, partitions_per_node=6)
    rng = np.random.default_rng(1)
    load = (np.linspace(1.0, 30.0, 25) + rng.uniform(0, 0.3, 25)) * params.q

    start = time.perf_counter()
    Planner(params, max_machines=48).best_moves(load, 4)
    first_cycle = time.perf_counter() - start

    start = time.perf_counter()
    Planner(params, max_machines=48).best_moves(load, 4)
    second_cycle = time.perf_counter() - start

    assert second_cycle <= first_cycle * 1.25


def test_engine_step_rate(benchmark):
    """1000 one-second engine steps on a 10-node cluster, each step's
    p50/p95/p99 solved (``step`` solves nothing without telemetry)."""
    sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=10)

    def run_steps():
        for _ in range(1000):
            sim.step(2000.0)
            sim.last_latency_components.summary

    benchmark.pedantic(run_steps, rounds=1, iterations=1, warmup_rounds=0)
