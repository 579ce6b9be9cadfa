"""One differential suite over the serving front ends.

``ServeSession`` drives either one ``ServerEngine`` or a ``Fleet`` of
worker shards; ``DistributedServeSession`` is the second spelled out.
Every test here runs the same scenario through more than one front end
(or more than one way of driving the same front end) and asserts
``asdict(report)`` equality — lists of latencies and Retry-After hints
included, so equal means the same requests met the same fate in the same
order:

* a single engine against a one-worker ``inproc`` fleet on the same
  spec and schedule (the edge forwards everything; the worker *is* the
  engine);
* ``inproc`` against ``pipe`` against ``tcp``;
* ``run(N)`` against ``N x run(1.0)``;
* an uninterrupted run against checkpoint -> ``resume`` (one row under
  ``--control reactive``, snapshotted half way through its detection
  window; one with SLO monitors, whose windows must come back too), with
  the refusals: a due snapshot deferred while the state is not a plain
  value, a worker-count mismatch, and each front end handed the other's
  checkpoint;
* ``session.run`` against the same session paced by the HTTP front end
  (``ServeApp``, virtual clock);
* arrivals exactly on a tick boundary, tick by tick.

What is compared is ``outcome(session)``: ``asdict(report)`` plus the
state of every SLO monitor the front end keeps and its machine-hours.  The ``retried`` scenario
(a retry client over two overload bursts) is in every row but single engine ==
one-worker fleet: a worker-side shed reaches the client at the tick, an
engine's at submission, so the retries are scheduled differently.
"""

import asyncio
import json
import os
from contextlib import nullcontext
from dataclasses import asdict

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.serve import (
    CheckpointConfig,
    DistributedServeSession,
    RetryConfig,
    ServeSession,
    WorkerSpec,
    poisson_arrivals,
)
from repro.serve.engine import REASONS
from repro.serve.http import ServeApp
from repro.serve.worker import build_worker_engine
from repro.telemetry.slo import SLOConfig

TENANTS = ["gold", "silver"]


def spec(worker_id=0, **kwargs):
    defaults = dict(
        initial_nodes=1, max_nodes=2, saturation_rate_per_node=40.0,
        db_size_kb=5 * 1024.0, queue_limit_seconds=3.0, seed=31 + worker_id,
    )
    defaults.update(kwargs)
    return WorkerSpec(worker_id=worker_id, **defaults)


def _tagged(arrivals):
    return dict(
        tenant_indices=np.arange(len(arrivals)) % len(TENANTS), tenant_names=TENANTS
    )


def steady():
    return poisson_arrivals(30.0, 24.0, seed=41), {}


def overload():  # one node serves 40/s: the queue limit sheds from ~t=9
    return poisson_arrivals(55.0, 24.0, seed=43), {}


def tagged():  # tenant tags ride along untouched: no tenancy anywhere
    arrivals = poisson_arrivals(50.0, 24.0, seed=47)
    return arrivals, _tagged(arrivals)


def boundary():
    """Arrivals exactly on tick boundaries: some the first of their tick
    (3.0, 12.0 and 20.0 follow an empty second), some behind others."""
    arrivals = poisson_arrivals(45.0, 24.0, seed=53)
    quiet = (arrivals > 2.0) & (arrivals < 3.0)
    quiet |= (arrivals > 11.0) & (arrivals < 12.0)
    quiet |= (arrivals > 19.0) & (arrivals < 20.0)
    on_ticks = np.array([1.0, 3.0, 7.0, 7.0, 12.0, 12.0, 20.0, 23.0])
    return np.sort(np.concatenate([arrivals[~quiet], on_ticks])), {}


def reactive():
    """A step from 10/s to 70/s at t=5 under ``--control reactive`` with
    5 s slots and a two-slot detection window: the slots closing at 10
    and 15 are over target, so the snapshot at t=14 holds a half-counted
    window and the scale-out is due one second after it."""
    quiet = poisson_arrivals(10.0, 5.0, seed=59)
    loud = 5.0 + poisson_arrivals(70.0, 19.0, seed=61)
    return np.concatenate([quiet, loud]), {}


def retried():
    """Two bursts past what even two workers serve, under a retry client:
    every shed backs off and tries again (twice at most), so requests
    stay in flight across ticks — and the lull between the bursts lets
    them all settle, so a snapshot can be taken at t=14."""
    retry = RetryConfig(max_retries=2, backoff_base_s=1.0, budget_floor=400)
    bursts = [poisson_arrivals(130.0, 6.0, seed=43), 14.0 + poisson_arrivals(130.0, 6.0, seed=44)]
    return np.concatenate(bursts), dict(retry=retry, retry_seed=5)


SCENARIOS = {
    "steady": steady, "overload": overload, "tagged": tagged, "boundary": boundary,
    "reactive": reactive, "slo": overload, "retried": retried,
}
#: Worker-spec fields a scenario needs on top of ``spec()``'s.
SPEC_FIELDS = {"reactive": dict(control="reactive", slot_seconds=5.0)}
#: Policy a scenario runs under: handed to the single engine, or to the edge.
POLICY = {"slo": dict(slo=SLOConfig())}
SECONDS = 26


# ----------------------------------------------------------------------
# Front ends: build(scenario, **session kwargs) and resume(scenario, path)
# ----------------------------------------------------------------------
class SingleEngine:
    name = "engine"

    def build(self, scenario, **kwargs):
        arrivals, schedule = SCENARIOS[scenario]()
        return ServeSession(self._engine(scenario), arrivals, **schedule, **kwargs)

    def resume(self, scenario, path, **kwargs):
        arrivals, schedule = SCENARIOS[scenario]()
        return ServeSession.resume(self._engine(scenario), arrivals, path, **schedule, **kwargs)

    @staticmethod
    def _engine(scenario):
        return build_worker_engine(
            spec(**SPEC_FIELDS.get(scenario, {})), **POLICY.get(scenario, {})
        )

    @staticmethod
    def engines(session):
        return [session.engine]


class FleetOf:
    def __init__(self, workers, mode="inproc"):
        self.workers, self.mode = workers, mode
        self.name = f"fleet-{workers}x{mode}"

    def _recipe(self, scenario, kwargs):
        arrivals, schedule = SCENARIOS[scenario]()
        fields = SPEC_FIELDS.get(scenario, {})
        specs = [spec(index, **fields) for index in range(self.workers)]
        policy = POLICY.get(scenario, {})
        return specs, arrivals, dict(mode=self.mode, seed=3, **policy, **schedule, **kwargs)

    def build(self, scenario, **kwargs):
        specs, arrivals, kwargs = self._recipe(scenario, kwargs)
        return DistributedServeSession(specs, arrivals, **kwargs)

    def resume(self, scenario, path, **kwargs):
        specs, arrivals, kwargs = self._recipe(scenario, kwargs)
        return DistributedServeSession.resume(specs, arrivals, path, **kwargs)

    @staticmethod
    def engines(session):
        return [handle.server.engine for handle in session.workers]


ENGINE, FLEET_1, FLEET_2 = SingleEngine(), FleetOf(1), FleetOf(2)
BOTH = pytest.mark.parametrize("front_end", [ENGINE, FLEET_1, FLEET_2], ids=lambda f: f.name)


def closing(session):
    """Context manager that reaps a fleet's workers; a no-op otherwise."""
    return session if isinstance(session, DistributedServeSession) else nullcontext(session)


def outcome(session):
    """What two equal runs agree on: the report, every SLO window and
    the machine-hours bill."""
    report = session.loadgen.report
    assert report.conserved and report.tenants_consistent()
    engine = session.engine
    assert engine.pending_requests == 0
    return {
        **asdict(report),
        "monitors": [monitor.state_dict() for monitor in engine.ledger.monitors()],
        "machine_hours": engine.machine_hours,
    }


def never_into_the_past(session):
    """No retry may be scheduled before the session clock's ``now``
    (a worker's 503 reaches the client a tick after it was submitted)."""
    client = session.loadgen.client
    if client is not None:
        schedule = client.schedule

        def checked(when, callback):
            assert when >= session.clock.now
            schedule(when, callback)

        client.schedule = checked


def paced_over_http(session, seconds):
    """Serve ``seconds`` with the HTTP front end pacing the session."""
    app = ServeApp(session, virtual=True, duration_s=seconds)
    asyncio.run(asyncio.wait_for(app.run(), timeout=60))


def served(front_end, scenario, *, stepped=False, http=False, **kwargs):
    """``outcome(session)`` after ``SECONDS`` of the scenario."""
    with closing(front_end.build(scenario, **kwargs)) as session:
        never_into_the_past(session)
        if http:
            paced_over_http(session, float(SECONDS))
        elif stepped:
            for _ in range(SECONDS):
                session.run(1.0)
        else:
            session.run(float(SECONDS))
        return outcome(session)


# ----------------------------------------------------------------------
# Same scenario, different front end / transport / run granularity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scenario", sorted(set(SCENARIOS) - {"retried"}))
def test_one_worker_fleet_is_the_single_engine(scenario):
    reference = served(ENGINE, scenario)
    assert reference["offered"] > 0
    assert served(FLEET_1, scenario) == reference


@BOTH
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_second_by_second_equals_one_run(front_end, scenario):
    assert served(front_end, scenario, stepped=True) == served(front_end, scenario)


@pytest.mark.timeout(300)
@pytest.mark.parametrize("mode", ["pipe", "tcp"])
@pytest.mark.parametrize("scenario", ["overload", "tagged", "retried"])
def test_process_boundary_changes_nothing(scenario, mode):
    """Real worker processes behind the wire, two shards."""
    assert served(FleetOf(2, mode), scenario) == served(FLEET_2, scenario)


@BOTH
@pytest.mark.parametrize("scenario", ["overload", "retried"])
def test_http_pacer_equals_session_run(front_end, scenario):
    """``ServeApp`` only paces ``session.step``: behind HTTP a front end
    serves the embedded schedule exactly as ``session.run`` does."""
    assert served(front_end, scenario, http=True) == served(front_end, scenario)


def test_healthz_status_is_the_same_on_every_front_end():
    """The SLO alert firing at the end of the ``slo`` run degrades
    ``healthz()`` on a fleet as it does on an engine."""
    statuses = []
    for front_end in (ENGINE, FLEET_1, FLEET_2):
        with closing(front_end.build("slo")) as session:
            session.run(float(SECONDS))
            health = session.engine.healthz()
        assert health["slo"]["alerting"]
        statuses.append(health["status"])
    assert statuses == ["degraded"] * 3


def test_scenarios_do_what_they_say():
    assert served(ENGINE, "steady")["rejected"] == 0
    assert served(ENGINE, "overload")["rejected"] > 0
    tenants = served(FLEET_2, "tagged")["tenants"]
    assert sorted(tenants) == sorted(TENANTS)
    assert all(bucket["accepted"] > 0 for bucket in tenants.values())
    for front_end in (ENGINE, FLEET_2):
        retried = served(front_end, "retried")
        assert retried["retry_successes"] > 0 and retried["retries_exhausted"] > 0
        (fleet_wide,) = served(front_end, "slo")["monitors"]
        assert fleet_wide["bad_total"] > 0 and fleet_wide["good_total"] > 0


# ----------------------------------------------------------------------
# Tick boundaries: the clock's rule, for every front end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("front_end", [FLEET_1, FLEET_2], ids=lambda f: f.name)
def test_boundary_arrivals_land_in_the_same_tick_as_on_one_engine(front_end):
    """An arrival exactly at ``k * dt`` is an event at that instant on
    the session's ``VirtualClock`` whatever the engine: tick by tick the
    fleet has offered and served exactly what the single engine has."""
    with closing(front_end.build("boundary")) as fleet:
        single = ENGINE.build("boundary")
        for _ in range(SECONDS):
            fleet.run(1.0)
            single.run(1.0)
            if front_end is FLEET_1:
                assert asdict(fleet.report) == asdict(single.loadgen.report)
            assert fleet.report.offered == single.loadgen.report.offered


@pytest.mark.parametrize("front_end", [ENGINE, FLEET_1], ids=lambda f: f.name)
def test_boundary_arrival_fires_in_clock_order(front_end):
    """The rule itself (``(time, insertion)`` order): the arrival chain
    arms its next event when the previous arrival fires.  A boundary
    arrival that is the first of its tick was armed before that tick's
    own event and is served *by the tick at its boundary*; one that
    follows another arrival of the same tick is armed after it and
    waits for the next tick."""
    arrivals = np.array([0.5, 1.0, 3.0, 4.25, 5.0])
    engine_spec = spec()
    if front_end is ENGINE:
        session = ServeSession(build_worker_engine(engine_spec), arrivals)
    else:
        session = DistributedServeSession([engine_spec], arrivals, mode="inproc")
    offered_after_tick = []
    with closing(session):
        for _ in range(6):
            session.run(1.0)
            offered_after_tick.append(session.loadgen.report.offered)
    #                 tick 1: 0.5 | 2: 1.0 | 3: 3.0 | 4: - | 5: 4.25 | 6: 5.0
    assert offered_after_tick == [1, 2, 3, 3, 4, 5]


# ----------------------------------------------------------------------
# Checkpoint -> resume, one body for every front end
# ----------------------------------------------------------------------
@BOTH
@pytest.mark.parametrize(
    "scenario", ["overload", "tagged", "boundary", "reactive", "slo", "retried"]
)
def test_resume_continues_like_the_uninterrupted_run(front_end, scenario, tmp_path):
    reference = served(front_end, scenario)
    path = str(tmp_path / "front-end.ckpt")
    checkpoint = CheckpointConfig(path, every_s=7.0)

    with closing(front_end.build(scenario, checkpoint=checkpoint)) as first:
        first.run(17.0)
        assert first.checkpoints_written == 2
        assert "checkpoints written: 2" in first.format_report()
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    assert document["format"] == "repro-serve-checkpoint/1"
    assert document["state"]["clock_now"] == 14.0
    if scenario == "reactive":  # every controller is half way through its window
        state = document["state"]
        shards = state["engine"].get("workers", [state])
        assert [shard["control"]["over"] for shard in shards] == [1] * len(shards)

    with closing(front_end.resume(scenario, path, checkpoint=checkpoint)) as resumed:
        assert resumed.clock.now == 14.0 and resumed.loadgen.report.duration_s == 14.0
        never_into_the_past(resumed)
        resumed.run(SECONDS - 14.0)
        assert outcome(resumed) == reference  # the SLO windows too
        assert resumed.checkpoints_written == 1  # t=21; 28 is past the run


def _unresolved_fault(front_end, session):
    """A crash scheduled past the end of the run: fault activity that
    never resolves, so the engine is never a plain value."""
    engine = front_end.engines(session)[-1]
    engine.sim.fault_injector = FaultInjector(
        FaultPlan([NodeCrash(at_seconds=1e6, node_id=1)])
    )

    def unblock():
        engine.sim.fault_injector = None

    return unblock


def _dead_worker(front_end, session):
    session.workers[-1].kill()
    return None  # it stays dead


@pytest.mark.parametrize(
    "front_end, block",
    [
        (ENGINE, _unresolved_fault),
        (FLEET_2, _unresolved_fault),
        (FLEET_2, _dead_worker),
    ],
    ids=["engine-fault", "fleet-worker-fault", "fleet-worker-dead"],
)
def test_due_snapshot_waits_for_a_quiescent_tick(front_end, block, tmp_path):
    path = str(tmp_path / "deferred.ckpt")
    checkpoint = CheckpointConfig(path, every_s=5.0)
    with closing(front_end.build("steady", checkpoint=checkpoint)) as session:
        session.run(3.0)
        unblock = block(front_end, session)
        session.run(9.0)  # due at 5 and 10: deferred tick after tick
        assert session.checkpoints_written == 0 and not os.path.exists(path)
        with pytest.raises(CheckpointError):
            session.write_checkpoint(path)
        assert session.loadgen.report.conserved
        if unblock is not None:
            unblock()
            session.run(1.0)  # the overdue snapshot lands on the first clean tick
            assert session.checkpoints_written == 1
            session.run(1.0)
            assert session.checkpoints_written == 1  # next one is due at 15


def _snapshot(front_end, tmp_path, name):
    path = str(tmp_path / name)
    with closing(front_end.build("steady")) as session:
        session.run(6.0)
        session.write_checkpoint(path)
    return path


def test_fleet_refuses_a_checkpoint_of_another_size(tmp_path):
    path = _snapshot(FLEET_2, tmp_path, "two.ckpt")
    with pytest.raises(CheckpointError, match="2 workers"):
        FleetOf(3).resume("steady", path)
    with pytest.raises(CheckpointError, match="2 workers"):
        FLEET_1.resume("steady", path)


def test_each_front_end_refuses_the_others_checkpoint(tmp_path):
    with pytest.raises(CheckpointError, match="fleet snapshot"):
        FLEET_1.resume("steady", _snapshot(ENGINE, tmp_path, "engine.ckpt"))
    with pytest.raises(CheckpointError, match="single-engine snapshot"):
        ENGINE.resume("steady", _snapshot(FLEET_1, tmp_path, "fleet.ckpt"))


def test_pre_merge_distributed_checkpoints_fail_closed(tmp_path):
    """The second format tag is gone: an old fleet file is an unknown format."""
    path = tmp_path / "old.ckpt"
    path.write_text(
        json.dumps({"format": "repro-distributed-checkpoint/1", "sha256": "", "state": {}})
    )
    with pytest.raises(CheckpointError, match="unknown format"):
        FLEET_2.resume("steady", str(path))


# ----------------------------------------------------------------------
# The fleet's batch request path against its per-request definition
# ----------------------------------------------------------------------
def _policy_fleet():
    from repro.serve import BreakerConfig, BrownoutConfig, Fleet
    from repro.telemetry import Telemetry
    from repro.telemetry.slo import SLOConfig
    from repro.tenancy import TenantAdmission, TenantRegistry, TenantSpec

    registry = TenantRegistry(
        tenants=[
            TenantSpec(name="gold", profile="poisson:rate=1", weight=3),
            TenantSpec(name="silver", profile="poisson:rate=1", weight=2),
            TenantSpec(name="capped", profile="poisson:rate=1", weight=1, quota_rps=6.0),
        ]
    )
    return Fleet(
        [spec(0, queue_limit_seconds=2.0), spec(1, queue_limit_seconds=2.0)],
        mode="inproc",
        edge_queue_limit_s=1.5,
        breaker=BreakerConfig(miss_threshold=2, open_seconds=6.0),
        brownout=BrownoutConfig(),
        slo=SLOConfig(),
        low_priority_fraction=0.25,
        trace_requests=True,
        telemetry=Telemetry(),
        seed=61,
        tenancy=TenantAdmission(registry),
    )


def test_fleet_burst_equals_one_request_at_a_time():
    """``Fleet.submit_batch`` of a burst is *defined* as its rows
    submitted one by one: twin fleets — one fed each tick's arrivals
    whole, one a row at a time (every other row through ``Fleet.submit``,
    the batch of one with a per-request callback) — must sink the same
    outcomes and end in the same edge state, through overload, quota, a
    dead worker, an open breaker and brownout."""
    rng = np.random.default_rng(67)
    whole, by_row = _policy_fleet(), _policy_fleet()
    rows_whole, rows_by_row = [], []  # batches; rows
    names = ["capped", "gold", "silver"]  # not the registry's order
    try:
        for tick in range(24):
            n = int(rng.integers(0, 130))
            times = np.sort(tick + rng.random(n))
            tenants = rng.integers(0, 3, n)
            if tick == 9:
                whole.workers[1].kill()
                by_row.workers[1].kill()
            whole.submit_batch(times, tenants, None, rows_whole.append, tenant_names=names)
            for i in range(n):
                if i % 2:
                    decision = by_row.submit(
                        rows_by_row.append, now=times[i], tenant=names[tenants[i]]
                    )
                    assert decision.node_id in (0, 1) and decision.reason in REASONS
                    continue
                by_row.submit_batch(
                    times[i : i + 1], tenants[i : i + 1], None,
                    lambda batch: rows_by_row.extend(batch.rows()), tenant_names=names,
                )
            whole.tick()
            by_row.tick()
            assert [row for batch in rows_whole for row in batch.rows()] == rows_by_row
            rows_whole.clear()
            rows_by_row.clear()
            assert whole._rng.bit_generator.state == by_row._rng.bit_generator.state
            assert (whole.admission.accepted, whole.admission.rejected) == (
                by_row.admission.accepted, by_row.admission.rejected
            )
            assert whole.tenancy.state_dict() == by_row.tenancy.state_dict()
            assert whole.slo_monitor.state_dict() == by_row.slo_monitor.state_dict()
            assert whole.brownout_active == by_row.brownout_active
        assert whole.telemetry.metrics.records() == by_row.telemetry.metrics.records()
        assert whole.telemetry.tracer.records() == by_row.telemetry.tracer.records()
        assert whole.telemetry.timeline.events == by_row.telemetry.timeline.events
        assert whole.brownout_active and whole.admission.rejected > 0
        assert sum(whole.tenancy.brownout_shed.values()) > 0
        assert whole.tenancy.quota_shed["capped"] > 0
    finally:
        whole.close()
        by_row.close()


@pytest.mark.parametrize("workers", [0, 1, 2], ids=["engine", "fleet-1", "fleet-2"])
def test_each_call_of_a_tick_gets_its_own_rows_back(workers):
    """Three ``submit_batch`` calls in one tick, interleaved in time, two
    with sinks of their own and one with none: each sink receives exactly
    the rows of its call — the ones shed at submission, then each
    shard's sheds and completions, every batch in row order — however
    the shards' replies (rejects first, then completions) mix the calls."""
    from repro.serve import Fleet

    front_end = (
        Fleet([spec(i, queue_limit_seconds=1.0) for i in range(workers)], mode="inproc", seed=3)
        if workers
        else build_worker_engine(spec(queue_limit_seconds=1.0))
    )
    rng = np.random.default_rng(71)
    try:
        for tick in range(12):
            times = np.sort(tick + rng.random(int(rng.integers(60, 160))))
            calls = {"a": times[0::3], "b": times[1::3], "unsunk": times[2::3]}
            received = {"a": [], "b": []}
            for name, call_times in calls.items():
                sink = received[name].append if name in received else None
                decisions = front_end.submit_batch(call_times, None, None, sink)
                assert len(decisions) == len(call_times)
            front_end.tick()
            for name, batches in received.items():
                rows = [row for batch in batches for row in batch.rows()]
                assert sorted(row.submitted_at for row in rows) == calls[name].tolist()
                for batch in batches:
                    for kind in (batch.status == 200, batch.status != 200):
                        assert (np.diff(batch.submitted_at[kind]) > 0).all()
        assert front_end.pending_requests == 0
        statuses = {row.status for batch in received["a"] + received["b"] for row in batch.rows()}
        assert statuses == {200, 503}  # the shards shed, so replies were cut
    finally:
        if workers:
            front_end.close()


def test_untenanted_fleet_grows_its_tag_vocabulary_within_a_tick():
    """``Fleet.submit`` names one tenant per call.  Without a registry
    the edge's tag vocabulary is whatever its callers use, so calls of
    one tick may each bring a new name, or none: every call keeps its
    own tags, and a one-worker fleet serves each tick — the mixed tagged
    and untagged one included — as a single engine does."""
    from repro.serve import Fleet

    def served(front_end):
        done = []
        for tick in range(3):
            for name in ("gold", "silver", "gold", "bronze"):
                front_end.submit(done.append, now=tick + 0.5, tenant=name)
            assert front_end.pending_requests == 4
            front_end.tick()
        front_end.submit(done.append, now=3.5, tenant="gold")
        front_end.submit(done.append, now=3.5)
        front_end.tick()
        return done

    fleet = Fleet([spec()], mode="inproc", seed=3)
    try:
        done = served(fleet)
    finally:
        fleet.close()
    assert [row.tenant for row in done] == ["gold", "silver", "gold", "bronze"] * 3 + ["gold", ""]
    assert {row.status for row in done} == {200}
    assert done == served(build_worker_engine(spec()))


def test_quota_verdicts_are_the_same_at_an_engine_and_at_an_edge():
    """One policy chain and one outcome ledger, two callers: the tagged
    schedule with a quota on ``silver`` through a single engine with
    tenancy and through a one-worker fleet with tenancy at the edge.
    Token buckets are RNG-free and run before anything queue-dependent,
    so every ``quota`` shed is the same arrival with the same Retry-After
    on both — and with it the verdict stream: every SLO monitor's windows
    and the ``serve.tenant.*`` counters, whichever side owns tenancy.
    (The shard's RNG stream differs — the edge forwards fewer rows — so
    the latency objectives are lax: the ``slo`` scenario above compares
    latency verdicts, where the streams coincide.)"""
    from repro.serve import Fleet
    from repro.telemetry import Telemetry
    from repro.tenancy import TenantAdmission, TenantRegistry, TenantSpec

    LAX = 1e9  # ms: every served row is good, every shed one bad

    def tenancy():
        return TenantAdmission(
            TenantRegistry(
                tenants=[
                    TenantSpec(name="gold", profile="poisson:rate=1", latency_slo_ms=LAX),
                    TenantSpec(
                        name="silver", profile="poisson:rate=1", quota_rps=0.8, latency_slo_ms=LAX
                    ),
                ]
            )
        )

    arrivals, schedule = tagged()

    def quota_sheds(front_end):
        batches = []
        for tick in range(SECONDS):
            rows = (arrivals >= tick) & (arrivals < tick + 1)
            front_end.submit_batch(
                arrivals[rows], schedule["tenant_indices"][rows], None, batches.append,
                tenant_names=TENANTS,
            )
            front_end.tick()
        return [
            (
                int(np.searchsorted(arrivals, row.submitted_at)), row.reason,
                row.retry_after_s, row.tenant,
            )
            for batch in batches
            for row in batch.rows()
            if row.reason == "quota"
        ]

    slo = SLOConfig(latency_threshold_ms=LAX)
    engine = build_worker_engine(spec(), Telemetry(), slo=slo, tenancy=tenancy())
    fleet = Fleet(
        [spec()], mode="inproc", seed=3, slo=slo, telemetry=Telemetry(), tenancy=tenancy()
    )
    try:
        at_the_engine, at_the_edge = quota_sheds(engine), quota_sheds(fleet)
    finally:
        fleet.close()

    def verdicts(front_end):
        counters = [
            record
            for record in front_end.telemetry.metrics.records()
            if record["name"].startswith(("serve.tenant.", "slo."))
        ]
        return [monitor.state_dict() for monitor in front_end.ledger.monitors()], counters

    assert verdicts(engine) == verdicts(fleet)
    assert {record["name"] for record in verdicts(fleet)[1]} >= {
        'serve.tenant.offered{tenant="gold"}', 'serve.tenant.served{tenant="silver"}',
        'serve.tenant.quota_shed{tenant="silver"}',
    }
    assert fleet.slo_monitor.bad_total >= len(at_the_edge) and fleet.slo_monitor.good_total
    assert at_the_engine == at_the_edge
    assert len(at_the_edge) == fleet.tenancy.quota_shed["silver"] > 100
    assert {tenant for *_, tenant in at_the_edge} == {"silver"}
    assert len({hint for _, _, hint, _ in at_the_edge}) > 10  # not just the 1 s floor
    assert engine.tenancy.state_dict() == fleet.tenancy.state_dict()
