"""Equivalence and caching tests for the engine's steady-slot fast path.

``EngineSimulator.run`` collapses converged slots into one computed step
(see docs/PERFORMANCE.md); these tests pin that the optimisation is
invisible in the results: every ``RunResult`` column matches the exact
step-by-step path (``force_exact_stepping=True``) to 1e-9, and the
derived SLA-violation and cost metrics are identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.simulator import EngineConfig, EngineSimulator, SkewEvent
from repro.telemetry.slo import sla_report
from repro.workloads.trace import LoadTrace

SLOT_SECONDS = 30.0

COLUMNS = (
    "time",
    "offered",
    "served",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "mean_ms",
    "machines",
    "reconfiguring",
)


def flat_trace(rate: float, num_slots: int) -> LoadTrace:
    return LoadTrace(
        np.full(num_slots, rate * SLOT_SECONDS), slot_seconds=SLOT_SECONDS
    )


def make_sim(*, force_exact: bool, **kwargs) -> EngineSimulator:
    config = EngineConfig(
        max_nodes=6,
        db_size_kb=kwargs.pop("db_size_kb", 700_000.0),
        force_exact_stepping=force_exact,
    )
    return EngineSimulator(config, initial_nodes=kwargs.pop("initial_nodes", 3))


def scenario_steady(sim: EngineSimulator) -> LoadTrace:
    """Constant sub-saturation load: every slot after warm-up is steady."""
    return flat_trace(600.0, 10)


def scenario_skew_mid_slot(sim: EngineSimulator) -> LoadTrace:
    """A skew event starting and ending mid-slot forces exact stepping in
    the affected slots only."""
    sim.skew_events.append(
        SkewEvent(start_seconds=45.0, end_seconds=105.0, partition_index=2)
    )
    return flat_trace(600.0, 8)


def scenario_migration_spanning_slots(sim: EngineSimulator) -> LoadTrace:
    """A 3 -> 6 scale-out whose migration crosses slot boundaries."""
    migration = sim.start_move(6)
    assert migration.total_seconds > SLOT_SECONDS  # spans >1 slot boundary
    return flat_trace(700.0, 10)


def scenario_backlog_drain(sim: EngineSimulator) -> LoadTrace:
    """Overload then recovery: the backlog builds, saturates at the
    queue clamp and drains over several slots — quiet slots whose state
    moves every step, the batched (S x P) kernel's territory."""
    values = np.array(
        [2200.0, 2200.0, 2200.0, 900.0, 900.0, 900.0, 900.0, 700.0, 700.0]
    )
    return LoadTrace(values * SLOT_SECONDS, slot_seconds=SLOT_SECONDS)


def scenario_fault_plan(sim: EngineSimulator) -> LoadTrace:
    """A mid-run crash (with recovery) and a straggler window: slots
    containing fault activity must step exactly; quiet slots between
    them may still collapse or batch."""
    from repro.faults import FaultInjector, FaultPlan, NodeCrash, NodeStraggler

    plan = FaultPlan(
        [
            NodeCrash(at_seconds=95.0, node_id=2, recover_after_seconds=61.0),
            NodeStraggler(
                at_seconds=185.0, node_id=1, factor=0.5, duration_seconds=47.0
            ),
        ]
    )
    sim.fault_injector = FaultInjector(plan)
    return flat_trace(650.0, 12)


def scenario_skew_slot_aligned(sim: EngineSimulator) -> LoadTrace:
    """Skew whose boundaries land on slot edges: weights differ between
    slots but are constant inside each one, so the redistribution slots
    are quiet-but-moving (batched), never exact."""
    sim.skew_events.append(
        SkewEvent(
            start_seconds=SLOT_SECONDS,
            end_seconds=4 * SLOT_SECONDS,
            partition_index=3,
            factor=4.0,
        )
    )
    return flat_trace(800.0, 8)


SCENARIOS = {
    "steady": scenario_steady,
    "skew_mid_slot": scenario_skew_mid_slot,
    "migration_spanning_slots": scenario_migration_spanning_slots,
    "backlog_drain": scenario_backlog_drain,
    "fault_plan": scenario_fault_plan,
    "skew_slot_aligned": scenario_skew_slot_aligned,
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_fast_path_matches_exact_path(scenario):
    setup = SCENARIOS[scenario]

    fast_sim = make_sim(force_exact=False)
    fast = fast_sim.run(setup(fast_sim))

    exact_sim = make_sim(force_exact=True)
    exact = exact_sim.run(setup(exact_sim))

    assert exact_sim.fast_slots == 0
    assert exact_sim.batched_slots == 0
    if scenario == "steady":
        assert fast_sim.fast_slots > 0
    if scenario == "backlog_drain":
        assert fast_sim.batched_slots > 0

    for column in COLUMNS:
        np.testing.assert_allclose(
            getattr(fast, column).astype(np.float64),
            getattr(exact, column).astype(np.float64),
            rtol=0.0,
            atol=1e-9,
            err_msg=f"{scenario}: column {column} diverged",
        )
    assert sla_report(scenario, fast) == sla_report(scenario, exact)
    assert fast.total_cost() == exact.total_cost()


def test_force_exact_disables_fast_path():
    sim = make_sim(force_exact=True)
    sim.run(scenario_backlog_drain(sim))
    assert sim.fast_slots == 0
    assert sim.batched_slots == 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_quiet_paths_bit_identical(scenario):
    """The collapsed and batched paths must reproduce exact stepping bit
    for bit, not merely within tolerance — the contract that lets every
    downstream consumer treat them as invisible."""
    setup = SCENARIOS[scenario]

    fast_sim = make_sim(force_exact=False)
    fast = fast_sim.run(setup(fast_sim))
    exact_sim = make_sim(force_exact=True)
    exact = exact_sim.run(setup(exact_sim))

    for column in COLUMNS:
        np.testing.assert_array_equal(
            getattr(fast, column),
            getattr(exact, column),
            err_msg=f"{scenario}: column {column} not bit-identical",
        )
    np.testing.assert_array_equal(fast_sim._backlog, exact_sim._backlog)


def test_batched_path_exercised_while_draining():
    """The drain scenario must actually take the batched kernel (and
    still leave converged tail slots to the steady fast path)."""
    sim = make_sim(force_exact=False)
    sim.run(scenario_backlog_drain(sim))
    assert sim.batched_slots > 0
    assert sim.fast_slots > 0


def test_node_weights_called_once_per_routing_change():
    """The simulator's weight cache must hit cluster.node_weights() at
    most once per routing change (satellite of the perf PR)."""
    sim = make_sim(force_exact=True)
    cluster = sim.cluster
    calls = {"count": 0}
    original = cluster.node_weights

    def counting_node_weights():
        calls["count"] += 1
        return original()

    cluster.node_weights = counting_node_weights

    sim.run(flat_trace(600.0, 4))
    assert calls["count"] <= 1  # routing never changed

    calls["count"] = 0
    version_before = cluster.routing_version
    sim.start_move(6)
    sim.run(flat_trace(600.0, 6))
    routing_changes = cluster.routing_version - version_before
    assert routing_changes > 0
    assert calls["count"] <= routing_changes


def test_fast_path_skipped_during_skew_transitions():
    """Slots containing a skew boundary must run the exact path."""
    sim = make_sim(force_exact=False)
    trace = scenario_skew_mid_slot(sim)
    sim.run(trace)
    # 8 slots; the slots holding t=45 and t=105 cannot be fast.
    assert sim.fast_slots <= len(trace) - 2


def test_fast_path_resumes_after_migration():
    """Once the migration lands and backlog converges, slots go fast."""
    sim = make_sim(force_exact=False)
    trace = scenario_migration_spanning_slots(sim)
    sim.run(trace)
    assert sim.fast_slots > 0


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_telemetry_preserves_fast_path_results(scenario):
    """An enabled telemetry handle must not perturb the run: same columns
    bit for bit, same number of collapsed slots — the instrumentation
    replicates ticks for collapsed steps instead of disabling the fast
    path (docs/OBSERVABILITY.md)."""
    from repro.telemetry import Telemetry

    setup = SCENARIOS[scenario]

    bare_sim = make_sim(force_exact=False)
    bare = bare_sim.run(setup(bare_sim))

    tel = Telemetry()
    config = EngineConfig(
        max_nodes=6, db_size_kb=700_000.0, force_exact_stepping=False
    )
    tel_sim = EngineSimulator(config, initial_nodes=3, telemetry=tel)
    instrumented = tel_sim.run(setup(tel_sim))

    assert tel_sim.fast_slots == bare_sim.fast_slots
    assert tel_sim.batched_slots == bare_sim.batched_slots
    for column in COLUMNS:
        np.testing.assert_array_equal(
            getattr(instrumented, column),
            getattr(bare, column),
            err_msg=f"{scenario}: column {column} diverged under telemetry",
        )
    ticks = tel.timeline.ticks
    assert len(ticks) == len(instrumented.time)
    np.testing.assert_array_equal(
        np.array([t["t"] for t in ticks]), instrumented.time
    )
    assert tel.counter("engine.steps").value == len(instrumented.time)
    assert (
        tel.counter("engine.batched_slots").value == tel_sim.batched_slots
    )


def test_partition_weights_are_read_only():
    """The cached weight arrays are handed out by reference; a caller
    mutating them would silently corrupt routing for every later step
    (satellite of the fleet-scale PR)."""
    sim = make_sim(force_exact=False)
    sim.run(flat_trace(600.0, 2))
    weights = sim.partition_weights()
    with pytest.raises(ValueError):
        weights[0] = 0.5
    node_weights = sim.cluster.node_weights()
    with pytest.raises(ValueError):
        node_weights[0] = 0.5
    # Skew-adjusted weights come from the same cache and must be frozen
    # too.
    sim.skew_events.append(
        SkewEvent(start_seconds=0.0, end_seconds=1e9, partition_index=1)
    )
    sim.step(600.0)
    skewed = sim.partition_weights()
    with pytest.raises(ValueError):
        skewed[0] = 0.5
