"""The tick-batched request path against its per-request definition.

Executing a batch is *defined* to equal executing its members one by
one in ``(time, insertion)`` order, so every test here is differential:

* ``submit_batch(n)`` against ``n x submit()`` on twin engines, over
  Hypothesis-generated arrival sets (duplicates, empty ticks, bursts
  that cross the queue limit mid-tick, a quota'd tenant, a crashed but
  undetected node, request tracing);
* the bursting :class:`LoadGenerator` against a reference that chains
  one clock event per arrival (the pre-batch implementation), for
  ``run(N)`` and ``N x run(1.0)``, with arrivals exactly on tick
  boundaries;
* each batch primitive (``decide_batch``, ``shed_batch``,
  ``quota_admit_many``, ``Histogram.observe_many``, ``running_sum``,
  ``LoadgenReport.fold``, the buffered ``_bisect_many``) against the
  scalar loop it replaces, kept here as the reference.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.queueing import _BISECT_ITERS, _bisect_many, _class_sum
from repro.engine.simulator import EngineConfig
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    BrownoutConfig,
    DistributedServeSession,
    ResilienceConfig,
    ServeSession,
    ServerEngine,
    WorkerSpec,
    poisson_arrivals,
)
from repro.serve.admission import AdmissionController
from repro.serve.clock import VirtualClock
from repro.serve.engine import REASONS, OutcomeBatch, TxnOutcome
from repro.serve.http import ServeApp
from repro.serve.loadgen import LoadGenerator, LoadgenReport
from repro.telemetry import Telemetry
from repro.telemetry.metrics import Histogram, running_sum
from repro.telemetry.requesttrace import TraceContext
from repro.telemetry.timeseries import TimeSeriesStore
from repro.tenancy import TenantAdmission, TenantRegistry, TenantSpec

TENANTS = ("gold", "silver", "capped")


def build_engine(*, tenancy, chaos, tracing, telemetry, seed):
    """A small, easily overloaded engine; twins share every argument."""
    registry = TenantRegistry(
        tenants=[
            TenantSpec(name="gold", profile="poisson:rate=1", weight=3),
            TenantSpec(name="silver", profile="poisson:rate=1", weight=2),
            TenantSpec(name="capped", profile="poisson:rate=1", weight=1, quota_rps=3.0),
        ]
    )
    resilience = injector = None
    if chaos:
        # Node 1 dies at t=1 and is only detected three probes later; it
        # never recovers, so the injector is exhausted (checkpointable).
        injector = FaultInjector(FaultPlan([NodeCrash(at_seconds=1.0, node_id=1)]))
        resilience = ResilienceConfig(
            breaker=BreakerConfig(miss_threshold=3, open_seconds=4.0, half_open_successes=1)
        )
    return ServerEngine(
        EngineConfig(max_nodes=3, saturation_rate_per_node=8.0, db_size_kb=1024.0),
        initial_nodes=3 if chaos else 2,
        admission=AdmissionConfig(queue_limit_seconds=1.5),
        seed=seed,
        telemetry=Telemetry() if (telemetry or tracing) else None,
        trace_requests=tracing,
        resilience=resilience,
        fault_injector=injector,
        tenancy=TenantAdmission(registry) if tenancy else None,
    )


def engine_fingerprint(engine):
    """Everything the two submission styles must leave identical."""
    state = {
        "rng": engine._rng.bit_generator.state,
        "pending_per_node": engine._pending_per_node.tolist(),
        "pending": engine.pending_requests,
        "admission": (engine.admission.accepted, engine.admission.rejected),
        "errors": engine.errors,
        "brownout": (engine.brownout_active, engine.brownout_sheds),
        "latency_sum_ms": engine.latency_sum_ms,
        "completed": engine.completed,
        "tally": (list(engine.ledger._tally), dict(engine.ledger._tenant_tally)),
    }
    if engine.tenancy is not None:
        state["tenancy"] = engine.tenancy.state_dict()
    if engine.health is not None:
        state["health"] = engine.health.state_dict()
    if engine.telemetry is not None:
        state["metrics"] = engine.telemetry.metrics.records()
        state["spans"] = engine.telemetry.tracer.records()
        state["events"] = list(engine.telemetry.timeline.events)
    return state


ARRIVAL = st.tuples(
    st.one_of(st.sampled_from([0.0, 0.25, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
    st.integers(0, len(TENANTS) - 1),
    st.integers(0, 1),
    st.booleans(),  # carries an edge-minted trace context
)
TICKS = st.lists(st.lists(ARRIVAL, max_size=40), min_size=1, max_size=7)


@settings(max_examples=60, deadline=None)
@given(
    ticks=TICKS,
    seed=st.integers(0, 2**16),
    tenancy=st.booleans(),
    chaos=st.booleans(),
    tracing=st.booleans(),
    telemetry=st.booleans(),
)
def test_submit_batch_equals_n_scalar_submits(ticks, seed, tenancy, chaos, tracing, telemetry):
    flags = dict(tenancy=tenancy, chaos=chaos, tracing=tracing, telemetry=telemetry, seed=seed)
    batched, scalar = build_engine(**flags), build_engine(**flags)
    batch_rows, scalar_rows = [], []
    next_trace = 1000
    for tick_index, arrivals in enumerate(ticks):
        arrivals = sorted(arrivals)
        times = np.array([tick_index + offset for offset, _, _, _ in arrivals])
        tenants = np.array([t for _, t, _, _ in arrivals], dtype=np.int64)
        priorities = np.array([p for _, _, p, _ in arrivals], dtype=np.int64)
        traces = []
        for _, _, _, minted in arrivals:
            traces.append(TraceContext(next_trace, "test") if minted else None)
            next_trace += 1

        decisions = batched.submit_batch(
            times, tenants, priorities, lambda b: batch_rows.extend(b.rows()),
            tenant_names=TENANTS, traces=traces,
        )
        scalar_decisions = [
            scalar.submit(
                scalar_rows.append, now=float(t), trace=trace, priority=int(p),
                tenant=TENANTS[k],
            )
            for t, k, p, trace in zip(times, tenants, priorities, traces)
        ]
        assert [decisions.decision(i) for i in range(len(times))] == scalar_decisions
        assert batch_rows == scalar_rows
        assert engine_fingerprint(batched) == engine_fingerprint(scalar)

        assert batched.tick() == scalar.tick()
        assert batch_rows == scalar_rows
        assert engine_fingerprint(batched) == engine_fingerprint(scalar)

    if not chaos or len(ticks) > 1:  # the crash event must have fired
        assert batched.state_dict() == scalar.state_dict()
    if not tenancy:
        # Without tenancy the tags are passed through untouched.
        assert {row.tenant for row in batch_rows} <= set(TENANTS)


def test_differential_scenarios_reach_every_branch():
    """The generated cases above are only worth something if the small
    engine really sheds on the queue limit mid-tick, on quota, on
    brownout, and fails requests against the undetected corpse."""
    engine = build_engine(tenancy=True, chaos=True, tracing=True, telemetry=True, seed=5)
    rows = []
    rng = np.random.default_rng(5)
    for tick in range(8):
        n = 40
        engine.submit_batch(
            np.sort(tick + rng.random(n)), rng.integers(0, 3, n), rng.integers(0, 2, n),
            lambda b: rows.extend(b.rows()), tenant_names=TENANTS,
        )
        engine.tick()
    reasons = {row.reason for row in rows}
    assert reasons == set(REASONS)
    assert {row.status for row in rows} == {200, 500, 503}
    # The queue limit was crossed *inside* a batch: same tick, same node,
    # an admitted row followed by a shed one.
    by_tick_node = {}
    for row in rows:
        if row.reason in ("", "queue-limit"):
            by_tick_node.setdefault((int(row.submitted_at), row.node_id), set()).add(row.reason)
    assert {"", "queue-limit"} in by_tick_node.values()


def test_trace_and_span_ids_are_minted_in_request_order():
    engine = build_engine(tenancy=False, chaos=False, tracing=True, telemetry=True, seed=2)
    rows = []
    engine.submit_batch(
        np.linspace(0.1, 0.9, 30), sink=lambda b: rows.extend(b.rows()),
        traces=[None] * 30,
    )
    engine.tick()
    shed = [row.trace_id for row in rows if not row.accepted]
    served = [row.trace_id for row in rows if row.accepted]
    assert shed and served
    assert sorted(shed + served) == list(range(1, 31))
    assert shed == sorted(shed) and served == sorted(served)
    roots = [s for s in engine.telemetry.tracer.spans if s.name == "request"]
    assert [s.attrs["trace_id"] for s in roots] == list(range(1, 31))
    assert [s.span_id for s in roots] == sorted(s.span_id for s in roots)


# ----------------------------------------------------------------------
# Loadgen bursts against one clock event per arrival
# ----------------------------------------------------------------------
class ChainedLoadGenerator(LoadGenerator):
    """The pre-batch driver: one clock event and one submit per arrival."""

    def _fire(self) -> None:
        index = self._next
        self._next += 1
        tenant = ""
        if self.tenant_indices is not None and self.tenant_names is not None:
            tenant = self.tenant_names[int(self.tenant_indices[index])]
        tracer = self.engine.request_tracer
        trace = tracer.mint("loadgen") if tracer is not None else None
        self.engine.submit(
            self.report.record, now=self.clock.now, trace=trace, tenant=tenant
        )
        self._schedule_next()


def session_pair(arrivals, indices, *, tenancy, tracing, seed):
    sessions = []
    for generator in (LoadGenerator, ChainedLoadGenerator):
        engine = build_engine(
            tenancy=tenancy, chaos=False, tracing=tracing, telemetry=True, seed=seed
        )
        session = ServeSession(
            engine, arrivals, tenant_indices=indices,
            tenant_names=list(TENANTS) if indices is not None else None,
        )
        chained = generator(
            engine, arrivals, session.clock, tenant_indices=indices,
            tenant_names=list(TENANTS) if indices is not None else None,
        )
        session.loadgen = chained
        sessions.append(session)
    return sessions


def session_fingerprint(session):
    report = session.loadgen.report
    return (
        report, session.clock.now, session.loadgen._next,
        engine_fingerprint(session.engine),
    )


SCHEDULE = st.lists(
    st.one_of(
        st.integers(0, 12).map(float),  # exactly on a tick boundary
        st.floats(0.0, 12.0),
        st.sampled_from([3.25, 3.25, 7.000000001, 6.9999999995]),
    ),
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(
    schedule=SCHEDULE,
    tenant_seed=st.one_of(st.none(), st.integers(0, 99)),
    tracing=st.booleans(),
    seed=st.integers(0, 2**16),
    stepped=st.booleans(),
)
def test_burst_loadgen_equals_one_event_per_arrival(
    schedule, tenant_seed, tracing, seed, stepped
):
    arrivals = np.sort(np.asarray(schedule, dtype=np.float64))
    indices = None
    if tenant_seed is not None:
        indices = np.random.default_rng(tenant_seed).integers(0, 3, len(arrivals))
    burst, chained = session_pair(
        arrivals, indices, tenancy=tenant_seed is not None, tracing=tracing, seed=seed
    )
    if stepped:
        # N x run(1.0), comparing after every second: an arrival exactly
        # on a boundary must land in the same tick under both drivers.
        for _ in range(14):
            burst.run(1.0)
            chained.run(1.0)
            assert session_fingerprint(burst) == session_fingerprint(chained)
    else:
        burst.run(14.0)
        chained.run(14.0)
        assert session_fingerprint(burst) == session_fingerprint(chained)
    assert burst.loadgen.report.offered == len(arrivals)


def test_run_n_equals_n_runs_of_one_second():
    def build():
        arrivals = np.sort(
            np.concatenate([poisson_arrivals(25.0, 20.0, seed=4), [3.0, 3.0, 10.0, 19.0]])
        )
        engine = build_engine(tenancy=False, chaos=False, tracing=False, telemetry=True, seed=4)
        return ServeSession(engine, arrivals, timeseries=TimeSeriesStore())

    whole, stepped = build(), build()
    whole.run(22.0)
    for _ in range(22):
        stepped.run(1.0)
    assert session_fingerprint(whole) == session_fingerprint(stepped)
    assert whole.timeseries.dump() == stepped.timeseries.dump()
    assert whole.loadgen.report.rejected > 0


def test_arrival_on_a_tick_boundary_is_served_by_the_same_tick_as_before():
    # Nothing precedes the 1.0 arrival, so its event is older than the
    # tick-1 event and fires first: served by tick 1.  The 2.0 arrivals
    # are armed after tick 2 was scheduled: served by tick 3.
    arrivals = np.array([1.0, 1.5, 2.0, 2.0])
    for generator in (LoadGenerator, ChainedLoadGenerator):
        engine = build_engine(tenancy=False, chaos=False, tracing=False, telemetry=False, seed=1)
        clock = VirtualClock()
        loadgen = generator(engine, arrivals, clock)
        loadgen.start()
        admitted = []
        served = [0]  # admissions before the previous tick

        def tick():
            admitted.append(engine.admission.accepted - served[0])
            served[0] = engine.admission.accepted
            engine.tick()
            if clock.now < 4.0:
                clock.call_at(clock.now + 1.0, tick)

        clock.call_at(1.0, tick)
        clock.run_until(4.0)
        assert admitted == [1, 1, 2, 0], generator.__name__


def test_burst_stops_at_the_run_deadline():
    engine = build_engine(tenancy=False, chaos=False, tracing=False, telemetry=False, seed=1)
    session = ServeSession(engine, np.array([0.5, 0.75, 1.0000000005, 1.5, 9.0]))
    report = session.run(1.0)
    # 1.0000000005 is inside run_until's 1e-9 slack (submitted after the
    # last tick, so still in flight); 1.5 is not.
    assert session.loadgen._next == 3
    assert (report.offered, engine.pending_requests) == (2, 1)
    assert session.clock.now == 1.0000000005
    assert session.run(1.0).offered == 4


def test_retry_client_keeps_bursts_of_one():
    from repro.serve import RetryConfig

    engine = build_engine(tenancy=False, chaos=False, tracing=False, telemetry=False, seed=1)
    session = ServeSession(engine, np.array([0.1, 0.2, 0.3]), retry=RetryConfig())
    calls = []
    original = engine.submit_batch

    def counting(times, *args, **kwargs):
        calls.append(len(times))
        return original(times, *args, **kwargs)

    engine.submit_batch = counting
    session.run(2.0)
    assert calls == [1, 1, 1]


# ----------------------------------------------------------------------
# VirtualClock.quiet_until / advance
# ----------------------------------------------------------------------
class TestQuietUntil:
    def test_empty_heap_outside_a_run_is_unbounded(self):
        assert VirtualClock().quiet_until() == math.inf

    def test_heap_top_bounds_the_stretch_exclusively(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(2.0, lambda: None)
        clock.call_at(1.0, lambda: seen.append(clock.quiet_until()))
        clock.run_until(5.0)
        assert seen == [2.0]

    def test_run_deadline_bounds_it_inclusively(self):
        clock = VirtualClock()
        seen = []
        clock.call_at(1.0, lambda: seen.append(clock.quiet_until()))
        clock.call_at(9.0, lambda: None)
        clock.run_until(5.0)
        # Anything <= 5 + 1e-9 still fires in this run; 9.0 does not bound it.
        assert seen == [math.nextafter(5.0 + 1e-9, math.inf)]
        assert clock.quiet_until() == 9.0  # the horizon is gone after the run

    def test_advance_never_rewinds(self):
        clock = VirtualClock(start=3.0)
        clock.advance(2.0)
        assert clock.now == 3.0
        clock.advance(4.5)
        assert clock.now == 4.5


# ----------------------------------------------------------------------
# Satellites: index validation, resume(timeseries=)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [-1, 3])
def test_loadgen_rejects_out_of_range_tenant_indices(bad):
    """Every owner of a schedule goes through ``validate_schedule``: the
    loadgen, the distributed edge, and (via its session) the HTTP app."""
    engine = build_engine(tenancy=True, chaos=False, tracing=False, telemetry=False, seed=0)
    schedule = dict(tenant_indices=np.array([0, bad]), tenant_names=list(TENANTS))
    times = np.array([0.1, 0.2])
    owners = (
        lambda: LoadGenerator(engine, times, VirtualClock(), **schedule),
        lambda: DistributedServeSession(
            [WorkerSpec(worker_id=0)], times, mode="inproc", **schedule
        ),
        lambda: ServeApp(ServeSession(engine, times, **schedule), virtual=True),
    )
    for build in owners:
        with pytest.raises(ConfigurationError, match="tenant_indices must lie in"):
            build()


def test_unknown_tenant_name_fails_loudly():
    engine = build_engine(tenancy=True, chaos=False, tracing=False, telemetry=False, seed=0)
    with pytest.raises(KeyError, match="mallory"):
        engine.submit_batch(
            np.array([0.1, 0.2]), np.array([0, 1]), tenant_names=("gold", "mallory")
        )


def test_resume_takes_the_timeseries_store_through_the_constructor(tmp_path):
    path = str(tmp_path / "snap.ckpt")
    arrivals = poisson_arrivals(5.0, 10.0, seed=1)

    def engine(telemetry):
        return build_engine(
            tenancy=False, chaos=False, tracing=False, telemetry=telemetry, seed=1
        )

    first = ServeSession(engine(True), arrivals)
    first.run(5.0)
    first.write_checkpoint(path)

    store = TimeSeriesStore()
    resumed = ServeSession.resume(engine(True), arrivals, path, timeseries=store)
    resumed.run(3.0)
    assert resumed.timeseries is store and store.samples_taken == 3
    with pytest.raises(ConfigurationError, match="timeseries"):
        ServeSession.resume(engine(False), arrivals, path, timeseries=TimeSeriesStore())


# ----------------------------------------------------------------------
# Batch primitives against the scalar loops they replace
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(
        st.one_of(
            st.floats(0.0, 5000.0),
            st.sampled_from([1.0, 2.0, 500.0, 2500.0, 1e16, 1e-3, 0.1, 0.2, 0.3]),
        ),
        max_size=60,
    ),
    start=st.sampled_from([0.0, 0.1, 1e16, 123.456]),
)
def test_running_sum_and_observe_many_are_left_to_right(values, start):
    array = np.asarray(values, dtype=np.float64)
    total = start
    for value in values:
        total += value
    assert running_sum(start, array) == total

    looped, batched = Histogram("h"), Histogram("h")
    looped.total = batched.total = start
    for value in values:
        looped.observe(value)
    batched.observe_many(array)
    assert batched.as_record() == looped.as_record()
    assert all(type(c) is int for c in batched.counts)


def test_running_sum_differs_from_pairwise_and_compensated_sums():
    """The trap: the obvious vectorised sums are *not* the running total."""
    values = np.array([1e16, 1.0, -1e16, 1.0] * 50)
    total = 0.0
    for value in values.tolist():
        total += value
    assert running_sum(0.0, values) == total
    assert math.fsum(values.tolist()) != total
    rng = np.random.default_rng(0)
    noisy = rng.random(1000) * 1000.0
    total = 0.0
    for value in noisy.tolist():
        total += value
    assert running_sum(0.0, noisy) == total
    assert float(np.sum(noisy)) != total  # pairwise summation


@settings(max_examples=60, deadline=None)
@given(
    nodes=st.lists(st.integers(0, 3), min_size=1, max_size=50),
    queue=st.lists(st.floats(0.0, 3.0), min_size=4, max_size=4),
    limit=st.one_of(st.none(), st.floats(0.5, 2.5)),
    telemetry=st.booleans(),
)
def test_decide_batch_equals_decide_loop(nodes, queue, limit, telemetry):
    rate = 4.0
    looped = AdmissionController(AdmissionConfig(2.0), Telemetry() if telemetry else None)
    batched = AdmissionController(AdmissionConfig(2.0), Telemetry() if telemetry else None)
    pending = [0.0] * 4
    expected = []
    for node in nodes:
        decision = looped.decide(node, queue[node] + pending[node] / rate, limit_s=limit)
        pending[node] += decision.accepted
        expected.append((decision.accepted, decision.retry_after_s))

    node_ids = np.asarray(nodes)
    ahead = np.array([nodes[:i].count(node) for i, node in enumerate(nodes)])
    accepted, retry_after = batched.decide_batch(
        node_ids, np.asarray(queue)[node_ids] + (0.0 + ahead) / rate, limit_s=limit
    )
    assert list(zip(accepted.tolist(), retry_after.tolist())) == expected
    assert (batched.accepted, batched.rejected) == (looped.accepted, looped.rejected)
    if telemetry:
        assert batched.telemetry.metrics.records() == looped.telemetry.metrics.records()


@pytest.mark.parametrize("reason", ["quota", "brownout"])
def test_shed_batch_equals_shed_outright_loop(reason):
    waits = [None, 0.25, 3.5, math.inf] if reason == "quota" else [None] * 4
    nodes = [0, 2, 2, 1]
    looped = AdmissionController(AdmissionConfig(2.0, retry_after_floor_s=1.0), Telemetry())
    batched = AdmissionController(AdmissionConfig(2.0, retry_after_floor_s=1.0), Telemetry())
    expected = [
        looped.shed_outright(node, 0.0, reason=reason, retry_after_s=wait).retry_after_s
        for node, wait in zip(nodes, waits)
    ]
    hints = batched.shed_batch(
        np.asarray(nodes), reason=reason,
        retry_after_s=None
        if reason == "brownout"
        else np.array([math.inf if w is None else w for w in waits]),
    )
    assert hints.tolist() == expected
    assert batched.rejected == looped.rejected == 4
    assert batched.telemetry.metrics.records() == looped.telemetry.metrics.records()


def test_quota_admit_many_equals_quota_admit_loop():
    def admission():
        return TenantAdmission(
            TenantRegistry(
                tenants=[
                    TenantSpec(name="free", profile="poisson:rate=1"),
                    TenantSpec(name="capped", profile="poisson:rate=1", quota_rps=2.0),
                ]
            )
        )

    times = np.sort(np.random.default_rng(3).random(40) * 6.0).tolist()
    looped, batched = admission(), admission()
    expected = [looped.quota_admit("capped", t) for t in times]
    assert batched.quota_admit_many("capped", times) == expected
    assert None in expected and any(w is not None for w in expected)
    assert batched.quota_admit_many("free", times) is None
    for t in times:
        assert looped.quota_admit("free", t) is None
    assert batched.state_dict() == looped.state_dict()


def test_policy_chain_closes_each_row_at_the_first_stage_that_applies():
    """``admit_batch`` alone: tenant brownout > quota > low-priority
    brownout > queue limit.  Row 2 is at once in a sheddable tenant,
    over its tenant's quota, low-priority and behind a full queue; taking
    the stages away one by one hands it to the next.  Row 4 arrives
    closed and no stage ever sees it."""
    def tenancy():
        return TenantAdmission(
            TenantRegistry(
                tenants=[
                    TenantSpec(name="gold", profile="poisson:rate=1", weight=2),
                    TenantSpec(
                        name="capped", profile="poisson:rate=1", quota_rps=1.0, quota_burst=2.0
                    ),
                ]
            )
        )

    times = np.array([0.0, 0.01, 0.02, 0.03, 0.04])
    targets = np.array([0, 1, 0, 1, 0])
    tenants = np.array([1, 1, 1, 0, 1])  # row 2 is capped's third request: no token left
    priorities = np.array([0, 0, 1, 1, 0])
    closed = np.array([False, False, False, False, True])
    seen = []

    def full(open_rows):  # 9 s of queue everywhere, against a 2 s limit
        seen.append(open_rows.tolist())
        return np.full(5, 9.0)

    def chain(**stages):
        controller = AdmissionController(AdmissionConfig(2.0, retry_after_floor_s=1.0))
        accepted, reason, retry_after = controller.admit_batch(
            times, targets, tenants, priorities, closed, **stages
        )
        assert not accepted[4] and reason[4] == 0 and retry_after[4] == 0.0
        assert closed.tolist() == [False, False, False, False, True]
        assert accepted.tolist() == (reason == 0).tolist()[:4] + [False]
        # The queue stage counts every row it decides; without it only sheds count.
        counted = 4 if "queue_estimate" in stages else np.count_nonzero(reason)
        assert controller.accepted + controller.rejected == counted
        return controller, [REASONS[code] for code in reason], retry_after.tolist()

    # Every stage on: the tenant stage sheds all of capped and charges no bucket.
    policy = tenancy()
    controller, reasons, hints = chain(
        tenancy=policy, brownout=BrownoutConfig(), queue_estimate=full
    )
    assert reasons == ["brownout", "brownout", "brownout", "brownout", ""]
    assert hints == [1.0, 1.0, 1.0, 1.0, 0.0]
    assert policy.brownout_shed == {"gold": 0, "capped": 3}  # row 3 went as low-priority
    assert policy.offered == {"gold": 1, "capped": 3} and policy.quota_shed["capped"] == 0
    assert policy.state_dict()["buckets"]["capped"]["tokens"] == 2.0
    assert seen.pop() == [False] * 5 and controller.rejected == 4

    # No brownout: row 2 finds the bucket empty; the others reach the full queue.
    policy = tenancy()
    _, reasons, hints = chain(tenancy=policy, queue_estimate=full)
    assert reasons == ["queue-limit", "queue-limit", "quota", "queue-limit", ""]
    assert hints[3] == 7.0 and hints[2] == 1.0  # 9 s - 2 s; the floor over a 0.98 s refill
    assert policy.offered == {"gold": 1, "capped": 3} and policy.quota_shed["capped"] == 1
    assert policy.brownout_shed == {"gold": 0, "capped": 0}
    assert seen.pop() == [True, True, False, True, False]  # a quota shed joins no queue

    # No tenancy: brownout sheds by priority and halves the queue limit.
    _, reasons, hints = chain(brownout=BrownoutConfig(), queue_estimate=full)
    assert reasons == ["queue-limit", "queue-limit", "brownout", "brownout", ""]
    assert hints == [8.0, 8.0, 1.0, 1.0, 0.0]
    assert seen.pop() == [True, True, False, False, False]

    # Only the queue; then not even that: nothing is shed, nothing counted.
    _, reasons, hints = chain(queue_estimate=full)
    assert reasons == ["queue-limit"] * 4 + [""] and hints[:4] == [7.0] * 4
    controller, reasons, hints = chain()
    assert reasons == [""] * 5 and hints == [0.0] * 5
    assert (controller.accepted, controller.rejected) == (0, 0)


def test_fold_equals_record_loop():
    rng = np.random.default_rng(8)
    n = 60
    status = rng.choice([200, 200, 503, 500], n)
    reason = np.where(
        status == 200, 0, np.where(status == 500, 4, rng.integers(1, 4, n))
    ).astype(np.int8)
    times = np.sort(rng.random(n))
    batch = OutcomeBatch(
        status, rng.integers(0, 3, n), times, times + 0.01,
        np.where(status == 200, rng.random(n) * 100.0, 0.0),
        np.where(status == 503, 1.0 + rng.random(n), 0.0),
        list(range(1, n + 1)), reason, rng.integers(0, 3, n), ("a", "", "b"),
    )
    rows = batch.rows()
    assert all(isinstance(row, TxnOutcome) for row in rows)
    assert [row.reason for row in rows] == [REASONS[code] for code in reason]

    folded, recorded = LoadgenReport(), LoadgenReport()
    folded.fold(batch)
    for row in rows:
        recorded.record(row)
    assert folded == recorded
    assert set(folded.tenants) == {"a", "b"}  # the untagged rows are not bucketed
    assert folded.brownout_shed > 0 and folded.errored > 0


def _bisect_many_reference(w2, d2, r2, qs, hi):
    """The loop this PR replaced with preallocated buffers, verbatim."""
    lo_b = np.zeros((len(hi), len(qs)))
    hi_b = np.broadcast_to(hi[:, None], lo_b.shape).copy()
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo_b + hi_b)
        gap = mid[:, :, None] - d2[:, None, :]
        mass = np.where(
            gap > 0, 1.0 - np.exp(-r2[:, None, :] * np.maximum(gap, 0.0)), 0.0
        )
        cdf = (mass * w2[:, None, :]).sum(-1)
        below = cdf < qs
        lo_b = np.where(below, mid, lo_b)
        hi_b = np.where(below, hi_b, mid)
    return 0.5 * (lo_b + hi_b)


def _assert_kernel_matches_reference(weights, delays, rates, qs):
    """``hi`` bounds every class, zero-weight ones included, as
    ``_upper_bracket`` does."""
    hi = (delays - np.log(1e-12) / rates).max(-1) + 1e-9
    expected = _bisect_many_reference(weights, delays, rates, qs, hi)
    assert _bisect_many(weights, delays, rates, qs, hi).tobytes() == expected.tobytes()


def _random_kernel_operands(rng, weights, quantiles):
    k, classes = weights.shape
    delays = rng.random((k, classes)) * rng.choice([0.01, 1.0, 10.0])
    rates = rng.random((k, classes)) * 300.0 + 0.1
    qs = np.clip(rng.random(quantiles), 1e-9, 1.0 - 1e-9)
    qs[0], qs[-1] = 1e-9, 1.0 - 1e-9
    return weights, delays, rates, qs


def _assert_bisection_matches_reference(rng, k, classes, quantiles, zero_first):
    weights = rng.random((k, classes))
    weights /= weights.sum(-1, keepdims=True)
    if zero_first:
        weights[:, 0] = 0.0
    _assert_kernel_matches_reference(*_random_kernel_operands(rng, weights, quantiles))


@pytest.mark.parametrize("seed", range(12))
def test_buffered_bisection_is_bit_identical_to_the_reference(seed):
    rng = np.random.default_rng(seed)
    k, classes = int(rng.integers(1, 4)), int(rng.integers(2, 14))
    quantiles = int(rng.integers(1, 250))
    _assert_bisection_matches_reference(rng, k, classes, quantiles, seed % 3 == 0)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("classes", [2, 4, 6, 7, 8, 16, 17, 129, 300])
def test_class_sum_follows_numpy_order_in_every_branch(classes, k):
    """Kernel rows for every branch of numpy's last-axis ``pairwise_sum``,
    the order the class sum must keep: left to right below 8 terms (2 is
    the ``serve_steady`` mixture), eight accumulators and a remainder up
    to 128 (8, 16, 17), recursive halves above (129; 300 recurses twice)."""
    rng = np.random.default_rng(1000 + 10 * classes + k)
    _assert_bisection_matches_reference(rng, k, classes, 240, classes % 2 == 0)


def test_class_sum_adds_in_last_axis_sum_order():
    """A last-bit change in a CDF value rarely flips a bisection step, so
    the kernel test alone can miss a wrong order; this compares the class
    sum itself with the last-axis ``sum`` of the class-minor layout, over
    terms spanning ten orders of magnitude."""
    rng = np.random.default_rng(5)
    for classes in [*range(2, 40), 63, 64, 65, 127, 128, 129, 136, 150, 255, 256, 257, 300]:
        mass = rng.random((2, classes, 7)) * 10.0 ** rng.integers(-5, 5, (2, classes, 7))
        expected = np.ascontiguousarray(mass.transpose(0, 2, 1)).sum(-1)
        out = np.empty((2, 7))
        _class_sum(mass, [mass[:, j] for j in range(classes)], out)
        assert out.tobytes() == expected.tobytes(), classes


def _weights_with_dead_classes(rng, k, classes):
    """Row-normalised weights where a random set of classes (never all)
    weighs zero in every row."""
    weights = rng.random((k, classes))
    dead = rng.random(classes) < 0.5
    dead[rng.integers(classes)] = False
    weights[:, dead] = 0.0
    return weights / weights.sum(-1, keepdims=True)


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("classes", range(2, 8))
def test_bisection_drops_dead_classes_without_moving_a_bit(classes, k):
    """Below 8 classes the kernel drops a class whose weight is zero in
    every row (a partition on an unallocated node).  Its rows equal the
    reference's byte for byte, with the zero columns anywhere; a column
    that is zero in only some rows is kept."""
    rng = np.random.default_rng(2000 + 10 * classes + k)
    for _ in range(4):
        weights = _weights_with_dead_classes(rng, k, classes)
        _assert_kernel_matches_reference(*_random_kernel_operands(rng, weights, 240))
    if k > 1:
        weights = rng.random((k, classes))
        weights[:-1, 0] = 0.0  # live in the last row only
        if classes > 2:
            weights[:, -1] = 0.0  # and one dead class beside it
        weights /= weights.sum(-1, keepdims=True)
        _assert_kernel_matches_reference(*_random_kernel_operands(rng, weights, 240))


@pytest.mark.parametrize("classes", [8, 9, 17])
def test_bisection_keeps_dead_classes_from_eight_up(classes):
    """From 8 classes numpy's accumulators would regroup the terms left
    after a drop, so zero columns stay in the sum."""
    rng = np.random.default_rng(3000 + classes)
    for k in (1, 3):
        weights = _weights_with_dead_classes(rng, k, classes)
        _assert_kernel_matches_reference(*_random_kernel_operands(rng, weights, 240))


@pytest.mark.parametrize("hi_from_dead", [False, True])
@pytest.mark.parametrize(
    "live",
    [[1.0], [math.nextafter(1.0, 0.0)], [1.0, math.nextafter(1.0, 0.0), 1.0]],
    ids=["unit", "below-unit", "mixed-rows"],
)
def test_bisection_of_a_lone_live_class_with_and_without_unit_weight(live, hi_from_dead):
    """``serve_steady``'s mixture: one live class beside a dead one.  A
    weight of exactly 1.0 skips the multiply, the largest double below
    it takes it, and in both the CDF is the live class's mass alone.
    With ``hi_from_dead`` the dead class's slower tail sets the bracket."""
    k = len(live)
    weights = np.zeros((k, 2))
    weights[:, 0] = live
    delays = np.full((k, 2), 0.025)
    rates = np.tile([29.5, 5.0 if hi_from_dead else 50.0], (k, 1))
    uniforms = np.clip(np.random.default_rng(11).random(240), 1e-9, 1.0 - 1e-9)
    _assert_kernel_matches_reference(weights, delays, rates, uniforms)
    flipped = weights[:, ::-1].copy(), delays, rates[:, ::-1].copy()
    _assert_kernel_matches_reference(*flipped, uniforms)
