"""The fault-injection subsystem: plans, parsing, the injector cursor,
cluster crash/recovery, and end-to-end engine runs under faults
(docs/ROBUSTNESS.md)."""

import numpy as np
import pytest

from repro.core.controller import ReactiveController
from repro.core.params import SystemParameters
from repro.engine.cluster import Cluster
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.engine.table import DatabaseSchema, TableSchema
from repro.errors import EngineError, FaultInjectionError, NodeFailedError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    MigrationStall,
    NodeCrash,
    NodeStraggler,
    TransferFailure,
    parse_fault_spec,
)
from repro.workloads.trace import LoadTrace

# ----------------------------------------------------------------------
# FaultPlan: construction, generation, parsing
# ----------------------------------------------------------------------

def test_plan_sorts_events_and_counts():
    plan = FaultPlan(
        [
            MigrationStall(at_seconds=50.0),
            NodeCrash(at_seconds=10.0, node_id=1),
            TransferFailure(at_seconds=30.0),
            NodeStraggler(at_seconds=20.0, node_id=2),
        ]
    )
    assert [e.at_seconds for e in plan] == [10.0, 20.0, 30.0, 50.0]
    assert plan.counts() == {
        "crashes": 1, "stragglers": 1, "transfer_failures": 1, "stalls": 1,
    }
    assert len(plan) == 4 and bool(plan)
    assert not FaultPlan.empty()


def test_event_validation():
    with pytest.raises(FaultInjectionError):
        NodeCrash(at_seconds=-1.0, node_id=0)
    with pytest.raises(FaultInjectionError):
        NodeCrash(at_seconds=0.0, node_id=0, recover_after_seconds=0.0)
    with pytest.raises(FaultInjectionError):
        NodeStraggler(at_seconds=0.0, node_id=0, factor=1.5)
    with pytest.raises(FaultInjectionError):
        TransferFailure(at_seconds=0.0, count=0)
    with pytest.raises(FaultInjectionError):
        MigrationStall(at_seconds=0.0, duration_seconds=0.0)


def test_generate_is_deterministic_per_seed():
    a = FaultPlan.generate(7, 1000.0, crashes=2, stragglers=1,
                           transfer_failures=3, stalls=2)
    b = FaultPlan.generate(7, 1000.0, crashes=2, stragglers=1,
                           transfer_failures=3, stalls=2)
    c = FaultPlan.generate(8, 1000.0, crashes=2, stragglers=1,
                           transfer_failures=3, stalls=2)
    assert a.events == b.events
    assert a.events != c.events
    assert a.counts() == {
        "crashes": 2, "stragglers": 1, "transfer_failures": 3, "stalls": 2,
    }
    # Times stay inside the middle 80% of the run.
    assert all(100.0 <= e.at_seconds <= 900.0 for e in a)


def test_parse_fault_spec_full_grammar():
    plan = parse_fault_spec(
        "crash@1200:n3:recover=600, straggle@2000:n1:x=0.4:for=90,"
        "xfail@10:count=2, stall@5:for=12"
    )
    stall, xfail, crash, straggle = plan.events
    assert isinstance(stall, MigrationStall) and stall.duration_seconds == 12.0
    assert isinstance(xfail, TransferFailure) and xfail.count == 2
    assert isinstance(crash, NodeCrash)
    assert (crash.node_id, crash.recover_after_seconds) == (3, 600.0)
    assert isinstance(straggle, NodeStraggler)
    assert (straggle.node_id, straggle.factor, straggle.duration_seconds) == (
        1, 0.4, 90.0,
    )


def test_parse_fault_spec_gen_entry_matches_generate():
    plan = parse_fault_spec("gen@0:seed=7:span=1000:crashes=2:xfails=0:stalls=0")
    ref = FaultPlan.generate(7, 1000.0, crashes=2, transfer_failures=0, stalls=0)
    assert plan.events == ref.events


@pytest.mark.parametrize(
    "spec",
    ["boom@10", "crash@10", "crash@abc:n1", "straggle@5", "gen@0:seed=1"],
)
def test_parse_fault_spec_rejects_bad_entries(spec):
    with pytest.raises(FaultInjectionError):
        parse_fault_spec(spec)


@pytest.mark.parametrize(
    ("spec", "parsed"),
    [
        ("crash@100:n3:recover=60", NodeCrash(100.0, node_id=3, recover_after_seconds=60.0)),
        ("crash@100:n=3", NodeCrash(100.0, node_id=3)),
        ("straggle@5:n=2", NodeStraggler(5.0, node_id=2)),
        ("crash@100:n3:recovr=60", "unknown key 'recovr'"),
        ("xfail@10:cnt=3", "unknown key 'cnt'"),
        ("straggle@5:n2:fro=30", "unknown key 'fro'"),
        ("stall@5:n1", "'n1': expected key=value"),
    ],
)
def test_parse_fault_spec_takes_n_either_way_and_refuses_unknown_options(spec, parsed):
    """An option the kind does not know is refused, not dropped; the node
    is ``nN`` or ``n=N`` for a crash and a straggler alike."""
    if isinstance(parsed, str):
        with pytest.raises(FaultInjectionError, match=parsed):
            parse_fault_spec(spec)
    else:
        assert parse_fault_spec(spec).events == (parsed,)


@pytest.mark.parametrize(
    ("spec", "token"),
    [
        ("crash@10:nfoo", "foo"),
        ("crash@10:n1:recover=soon", "soon"),
        ("straggle@10:n0:x=fast", "fast"),
        ("straggle@10:n0:for=ever", "ever"),
        ("xfail@10:count=lots", "lots"),
        ("stall@10:for=abit", "abit"),
        ("gen@0:seed=x:span=100", "x"),
        ("gen@0:seed=1:span=wide", "wide"),
    ],
)
def test_parse_fault_spec_errors_name_the_offending_token(spec, token):
    """Friendly parse errors: the message carries the bad token and the
    entry it came from, so the CLI can print one readable line."""
    with pytest.raises(FaultInjectionError) as excinfo:
        parse_fault_spec(spec)
    message = str(excinfo.value)
    assert repr(token) in message
    assert repr(spec) in message


# ----------------------------------------------------------------------
# FaultInjector: cursor semantics
# ----------------------------------------------------------------------

def test_injector_pops_events_in_time_order():
    plan = FaultPlan(
        [NodeCrash(at_seconds=10.0, node_id=0), MigrationStall(at_seconds=20.0)]
    )
    injector = FaultInjector(plan)
    assert injector.events_due(5.0) == []
    due = injector.events_due(10.0)
    assert len(due) == 1 and isinstance(due[0], NodeCrash)
    assert not injector.exhausted
    assert len(injector.events_due(100.0)) == 1
    assert injector.exhausted


def test_injector_quiet_over_windows():
    injector = FaultInjector(FaultPlan([MigrationStall(at_seconds=15.0)]))
    assert injector.quiet_over(0.0, 14.0)
    assert not injector.quiet_over(0.0, 15.0)
    assert not injector.quiet_over(14.0, 20.0)
    injector.events_due(15.0)
    assert injector.quiet_over(0.0, 1e9)
    injector.schedule_recovery(3, 40.0)
    assert not injector.quiet_over(30.0, 50.0)
    assert injector.recoveries_due(40.0) == [3]
    injector.add_straggler(1, 0.5, end_seconds=60.0)
    assert not injector.quiet_over(55.0, 65.0)
    assert injector.straggler_expirations(60.0) == [1]
    assert injector.exhausted


# ----------------------------------------------------------------------
# Cluster: crash and recovery
# ----------------------------------------------------------------------

def make_cluster(initial=4, rows=60):
    schema = DatabaseSchema().add(TableSchema(name="T", key_column="k"))
    cluster = Cluster(
        schema, initial_nodes=initial, partitions_per_node=2,
        num_buckets=64, max_nodes=6,
    )
    for i in range(rows):
        key = f"row-{i}"
        cluster.route(key).put("T", key, {"k": key})
    return cluster


def test_fail_node_reroutes_buckets_to_survivors():
    cluster = make_cluster()
    rows_before = cluster.total_rows()
    version_before = cluster.routing_version
    owned = sum(1 for b in range(64) if cluster.plan.node_of(b) == 1)

    rerouted = cluster.fail_node(1)

    assert rerouted == owned > 0
    assert cluster.failed_nodes() == [1]
    assert cluster.num_active_nodes == 3
    assert cluster.num_available_nodes == 5
    assert cluster.routing_version > version_before
    # Every bucket now lives on a healthy active node, no rows were lost,
    # and every key still routes to a partition that has it.
    owners = {cluster.plan.node_of(b) for b in range(64)}
    assert 1 not in owners
    assert cluster.total_rows() == rows_before
    for i in range(60):
        key = f"row-{i}"
        assert cluster.route(key).get("T", key) == {"k": key}
    assert 1 not in cluster.data_fractions()


def test_failed_node_is_untouchable_until_recovered():
    cluster = make_cluster()
    cluster.fail_node(1)
    with pytest.raises(NodeFailedError):
        cluster.set_active(1, True)
    with pytest.raises(NodeFailedError):
        cluster.fail_node(1)
    with pytest.raises(NodeFailedError):
        cluster.move_bucket(0, 1)

    cluster.recover_node(1)
    assert cluster.failed_nodes() == []
    # Recovered nodes return as empty inactive spares.
    assert not cluster.nodes[1].active
    assert cluster.nodes[1].row_count() == 0
    cluster.set_active(1, True)  # allocatable again


def test_fail_node_edge_cases():
    cluster = make_cluster(initial=1)
    with pytest.raises(EngineError):
        cluster.fail_node(0)  # last active node
    # Failing an idle spare re-routes nothing.
    assert cluster.fail_node(4) == 0
    assert cluster.total_rows() == 60
    with pytest.raises(EngineError):
        cluster.recover_node(0)  # never failed


# ----------------------------------------------------------------------
# Engine runs under faults
# ----------------------------------------------------------------------

PARAMS = SystemParameters(interval_seconds=60.0)


def make_trace(rates, slot_seconds=10.0):
    return LoadTrace(
        np.asarray(rates, dtype=float) * slot_seconds, slot_seconds=slot_seconds
    )


def ramp_trace():
    rates = np.concatenate(
        [np.linspace(200.0, 1200.0, 30), np.full(10, 1200.0)]
    )
    return make_trace(rates)


def reactive(max_machines=8):
    return ReactiveController(
        PARAMS,
        max_machines=max_machines,
        detect_slots=2,
        scale_in_slots=10_000,
        measurement_slot_seconds=10.0,
    )


def engine_config(**overrides):
    defaults = dict(dt_seconds=1.0, max_nodes=8, db_size_kb=4000.0)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def test_empty_fault_plan_is_bit_identical():
    """Acceptance criterion: with an empty FaultPlan (or none at all)
    every run output is bit-identical to the fault-free engine."""
    trace = ramp_trace()

    def run(injector):
        sim = EngineSimulator(
            engine_config(), initial_nodes=2, fault_injector=injector
        )
        return sim.run(trace, controller=reactive())

    plain = run(None)
    empty = run(FaultInjector(FaultPlan.empty()))
    for field in ("time", "offered", "served", "p50_ms", "p95_ms", "p99_ms",
                  "mean_ms", "machines", "reconfiguring"):
        assert np.array_equal(getattr(plain, field), getattr(empty, field)), field


def test_crash_recovery_end_to_end():
    """A node crash mid-run: buckets re-route, the controller scales back
    out onto healthy spares, the node later returns to the pool — with
    zero uncaught exceptions."""
    trace = make_trace(np.full(60, 1000.0))  # needs 4 machines at Q=285
    plan = parse_fault_spec("crash@100:n1:recover=300")
    injector = FaultInjector(plan)
    sim = EngineSimulator(
        engine_config(max_nodes=6), initial_nodes=4, fault_injector=injector
    )
    controller = reactive(max_machines=6)
    result = sim.run(trace, controller=controller)

    stats = injector.stats
    assert stats.crashes_injected == 1
    assert stats.crashes_skipped == 0
    assert stats.buckets_rerouted > 0
    assert stats.nodes_recovered == 1
    machines = result.machines
    # The crash is visible (allocation dips to 3)...
    assert machines[int(100 / sim.config.dt_seconds)] == 3.0
    # ...and the controller recovers the allocation before the run ends.
    assert machines[-1] == 4.0
    assert controller.moves_requested >= 1
    assert not sim.cluster.nodes[1].failed


def test_straggler_degrades_then_recovers():
    rates = np.full(40, 700.0)  # ~80% of two nodes' capacity
    trace = make_trace(rates)

    def run(injector):
        sim = EngineSimulator(
            engine_config(max_nodes=2), initial_nodes=2, fault_injector=injector
        )
        return sim.run(trace)

    baseline = run(None)
    injector = FaultInjector(parse_fault_spec("straggle@100:n0:x=0.5:for=60"))
    faulted = run(injector)

    assert injector.stats.stragglers_injected == 1
    assert injector.stats.stragglers_recovered == 1
    # Identical before the fault fires...
    assert np.array_equal(baseline.p99_ms[:100], faulted.p99_ms[:100])
    # ...overloaded during the window (capacity 0.75x < offered load)...
    window = slice(110, 160)
    assert faulted.p99_ms[window].max() > baseline.p99_ms[window].max()
    # ...and drained back to baseline latency by the end of the run.
    assert faulted.p99_ms[-1] == pytest.approx(baseline.p99_ms[-1], rel=0.05)


def test_fault_ledger_accounts_for_whole_plan():
    """Injected + skipped always equals the plan, even when migration-
    targeted events find no move in flight."""
    trace = make_trace(np.full(40, 500.0))
    plan = parse_fault_spec(
        "crash@50:n1, straggle@80:n0:x=0.8:for=20, xfail@90, stall@95"
    )
    injector = FaultInjector(plan)
    sim = EngineSimulator(
        engine_config(max_nodes=4), initial_nodes=3, fault_injector=injector
    )
    sim.run(trace)  # no controller: no migration ever in flight

    planned = plan.counts()
    s = injector.stats
    assert s.crashes_injected + s.crashes_skipped == planned["crashes"]
    assert s.stragglers_injected == planned["stragglers"]
    assert (
        s.transfer_failures_injected + s.transfer_failures_skipped
        == planned["transfer_failures"]
    )
    assert s.stalls_injected + s.stalls_skipped == planned["stalls"]
    # Without a migration, the transfer faults must be skips, not drops.
    assert s.transfer_failures_skipped == 1
    assert s.stalls_skipped == 1
    assert s.crashes_injected + s.stragglers_injected == 2
    assert set(s.as_dict()) == set(s.__dataclass_fields__)
