"""Golden pins for the serving path, taken on the commit *before* the
tick-batched request path (PR 12) touched any code.

Three small seeded sessions cover the layers the batch path rewires:

* ``bare`` — engine + loadgen only, overloaded so the queue limit sheds
  mid-tick, with duplicate arrivals and arrivals exactly on tick
  boundaries spliced into the schedule;
* ``full`` — tenants + a quota'd tenant + ``Telemetry`` + ``SLOConfig``
  + ``TimeSeriesStore`` + ``OnlineControlLoop``;
* ``chaos`` — retry client (hedging, low-priority tagging) over a fault
  plan with breakers and brownout;
* ``chaos_tenants`` — the same fault plan with no retry client (so the
  loadgen bursts), tenants of unequal weight (brownout sheds the light
  ones whole), a quota and request tracing.

Each digest covers the report counters, the per-tenant buckets, the
latency and Retry-After lists, the engine's float accumulators and —
where telemetry is on — every metric record and the time-series dump.
Every scenario is asserted for ``run(N)`` and for ``N x run(1.0)``, and
a worker ``step`` exchange is compared row for row against
``tests/golden/worker_step_replies.json``: the arrivals go in as columns
and the reply's columns are turned into that file's records by
``_reply_records``.  The file was regenerated when the reply shrank to
the worker's decisions in posted order; every row equals the row the
earlier, echoing reply gave the same request.

Three more pin the distributed path, taken on the commit *before* the
edge became a ``Fleet`` engine under ``ServeSession`` (``60750f7``,
where the fleet state lived on the session object itself):

* ``fleet_bare`` — two inproc workers, no edge policy;
* ``fleet_policy`` — three tenants of unequal weight with one quota,
  an edge queue limit, low-priority tagging, brownout, SLOs, worker
  telemetry (a delta on every reply) and a time-series store sampling
  the fleet registry; one worker's transport
  breaks mid-tick (its routed batch dies as 500s), its breaker opens,
  the edge reroutes and browns out;
* ``fleet_traced`` — request tracing on both sides of the wire, with
  the span tree after ``collect_telemetry``.

No arrival of theirs lies within 1e-9 of a tick boundary: what happens
there changed with that commit and has its own test
(``tests/test_front_ends.py``).

``OFFLINE_PINS`` pin the Predictive Controller on a bare
``EngineSimulator`` — the ``fig9`` P-Store run, ``fig11``'s boosted
flash-crowd run and ``ext-faults``' chaos run, all at ``--fast`` sizes —
taken on the commit *before* ``PredictiveController`` was folded into
``OnlineControlLoop`` (``e48c419``).  Each digest covers the controller's
decision log (time, measured rate, machines before, target, kind, boost)
and the per-step machine count.  The one declared rename of that fold,
the reactive decision kind becoming ``cold-start-reactive``, touches
none of them: a pre-fitted SPAR never takes the reactive branch.

Regenerate (only ever on a commit whose behaviour is the reference)::

    PYTHONPATH=src python tests/test_golden_pins.py

A deliberate re-pin is reviewed as a diff of the hashed documents, not as
new hex strings: dump them on the parent and on the change and diff::

    PYTHONPATH=src python tests/test_golden_pins.py --documents DIR chaos_tenants fleet_policy
"""

import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.params import SystemParameters
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.experiments import ext_fault_tolerance, fig9_elasticity, fig11_spike_reaction
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.prediction.online import OnlinePredictor
from repro.prediction.spar import SPARPredictor
from dataclasses import asdict

from repro.errors import TransportError
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    BrownoutConfig,
    DistributedServeSession,
    OnlineControlLoop,
    ResilienceConfig,
    RetryConfig,
    ServeSession,
    ServerEngine,
    poisson_arrivals,
)
from repro.serve.engine import REASONS
from repro.serve.worker import STEP_REPLY_COLUMNS, WorkerServer, WorkerSpec
from repro.telemetry import Telemetry, TimeSeriesStore
from repro.telemetry.slo import SLOConfig
from repro.tenancy import TenantAdmission, TenantRegistry, TenantSpec, composite_arrivals

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
WORKER_GOLDEN = os.path.join(GOLDEN_DIR, "worker_step_replies.json")

SAT = 12.0


def _config(**kwargs):
    defaults = dict(max_nodes=4, saturation_rate_per_node=SAT, db_size_kb=5 * 1024)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


# ----------------------------------------------------------------------
# Scenarios: each returns (session, duration in whole seconds)
# ----------------------------------------------------------------------
def bare_session():
    arrivals = poisson_arrivals(30.0, 60.0, seed=7)
    # Duplicates and arrivals exactly on tick boundaries (dt = 1 s).
    extra = np.array([5.0, 5.0, 17.0, 17.25, 17.25, 30.0, 59.0])
    arrivals = np.sort(np.concatenate([arrivals, extra]))
    engine = ServerEngine(
        _config(),
        initial_nodes=2,
        admission=AdmissionConfig(queue_limit_seconds=3.0),
        seed=7,
    )
    return ServeSession(engine, arrivals), 64


def full_session():
    slot_s = 2.0
    registry = TenantRegistry(
        tenants=[
            TenantSpec(
                name="checkout", weight=3,
                profile="spike:rate=8,at=60,magnitude=3,ramp=6,plateau=30,decay=12",
            ),
            TenantSpec(name="search", profile="poisson:rate=6", weight=2),
            TenantSpec(name="batch", profile="poisson:rate=5", weight=1, quota_rps=3.0),
        ]
    )
    arrivals, indices = composite_arrivals(registry, 120.0, seed=5)
    control = OnlineControlLoop(
        SystemParameters.from_saturation(SAT, interval_seconds=slot_s),
        OnlinePredictor(
            SPARPredictor(period=4, n_periods=2, n_recent=2, max_horizon=4), refit_every=10
        ),
        measurement_slot_seconds=slot_s,
        max_machines=4,
    )
    engine = ServerEngine(
        _config(),
        initial_nodes=2,
        slot_seconds=slot_s,
        admission=AdmissionConfig(queue_limit_seconds=4.0),
        controller=control,
        seed=5,
        telemetry=Telemetry(),
        slo=SLOConfig(),
        tenancy=TenantAdmission(registry),
    )
    session = ServeSession(
        engine, arrivals, tenant_indices=indices, tenant_names=registry.names(),
        timeseries=TimeSeriesStore(),
    )
    return session, 124


def chaos_session():
    plan = FaultPlan([NodeCrash(at_seconds=20.0, node_id=1, recover_after_seconds=30.0)])
    engine = ServerEngine(
        _config(),
        initial_nodes=3,
        admission=AdmissionConfig(queue_limit_seconds=2.0),
        resilience=ResilienceConfig(
            breaker=BreakerConfig(miss_threshold=3, open_seconds=10.0, half_open_successes=2)
        ),
        fault_injector=FaultInjector(plan),
        telemetry=Telemetry(),
        seed=3,
    )
    retry = RetryConfig(
        max_retries=3, backoff_base_s=1.0, budget_floor=100,
        hedge_queue_seconds=0.5, low_priority_fraction=0.3,
    )
    arrivals = poisson_arrivals(28.0, 80.0, seed=3)
    return ServeSession(engine, arrivals, retry=retry, retry_seed=3), 90


def chaos_tenants_session():
    registry = TenantRegistry(
        tenants=[
            TenantSpec(name="gold", profile="poisson:rate=12", weight=3),
            TenantSpec(name="silver", profile="poisson:rate=9", weight=2),
            TenantSpec(name="capped", profile="poisson:rate=9", weight=1, quota_rps=5.0),
        ]
    )
    arrivals, indices = composite_arrivals(registry, 70.0, seed=13)
    plan = FaultPlan([NodeCrash(at_seconds=20.0, node_id=1, recover_after_seconds=25.0)])
    engine = ServerEngine(
        _config(),
        initial_nodes=3,
        admission=AdmissionConfig(queue_limit_seconds=2.0),
        resilience=ResilienceConfig(
            breaker=BreakerConfig(miss_threshold=3, open_seconds=10.0, half_open_successes=2)
        ),
        fault_injector=FaultInjector(plan),
        telemetry=Telemetry(),
        trace_requests=True,
        slo=SLOConfig(),
        tenancy=TenantAdmission(registry),
        seed=13,
    )
    session = ServeSession(
        engine, arrivals, tenant_indices=indices, tenant_names=registry.names()
    )
    return session, 75


SCENARIOS = {
    "bare": bare_session,
    "full": full_session,
    "chaos": chaos_session,
    "chaos_tenants": chaos_tenants_session,
}

#: sha256 per scenario, taken on the parent of PR 12 — except
#: ``chaos_tenants``, re-pinned by PR 24 (one outcome ledger): the
#: engine's fleet-wide monitor now counts stale-router 500s as bad, as its
#: per-tenant monitors and the edge always did, which moves the unlabelled
#: ``slo.fast_burn`` / ``slo.slow_burn`` gauges and nothing else (was
#: ``1d3dda6dba64...``; the document diff is in CHANGES.md).
PINS = {
    "bare": "bb2bbd2e9d603fe30b28ebb87847b492f24c13c642f038e15dfe4afe4b90c5c3",
    "full": "cef04aa48495a06ccc712efc0804e8f897f18a78f90afadfd91eafb249655578",
    "chaos": "706084ffe971452f1214a0fd3c70d3e27d1d78ea164b8086edd9885c202f883c",
    "chaos_tenants": "77856e1c69d9c403e7d204d60bbe539276a6779282a1ff5bd72048b8ee21609f",
}


def _digest(document, report) -> str:
    """sha256 of a scenario's document plus its two float lists, bit for bit."""
    digest = hashlib.sha256()
    digest.update(json.dumps(document, sort_keys=True, default=str).encode())
    digest.update(np.asarray(report.latencies_ms, dtype=np.float64).tobytes())
    digest.update(np.asarray(report.retry_after_s, dtype=np.float64).tobytes())
    return digest.hexdigest()


def session_document(session) -> dict:
    """Everything the batch path could perturb (what ``session_digest``
    hashes, beside the report's latency and Retry-After lists)."""
    report = session.loadgen.report
    engine = session.engine
    counters = {
        name: getattr(report, name)
        for name in (
            "offered", "accepted", "rejected", "errored", "retries",
            "retry_successes", "retries_exhausted", "hedges", "hedge_wins",
            "brownout_shed",
        )
    }
    document = {
        "counters": counters,
        "tenants": report.tenants,
        "duration_s": report.duration_s,
        "engine": {
            "completed": engine.completed,
            "latency_sum_ms": engine.latency_sum_ms.hex(),
            "machine_seconds": engine.machine_seconds.hex(),
            "errors": engine.errors,
            "brownout_sheds": engine.brownout_sheds,
            "admitted": engine.admission.accepted,
            "rejected": engine.admission.rejected,
            "rng": engine._rng.bit_generator.state["state"],
        },
    }
    if engine.telemetry is not None:
        document["metrics"] = engine.telemetry.metrics.records()
        document["events"] = engine.telemetry.timeline.events
        document["spans"] = engine.telemetry.tracer.records()
    if session.timeseries is not None:
        document["timeseries"] = session.timeseries.dump()
    if engine.tenancy is not None:
        document["tenancy"] = engine.tenancy.state_dict()
    return document


def session_digest(session) -> str:
    return _digest(session_document(session), session.loadgen.report)


def run_whole(name: str, of=session_digest):
    session, seconds = SCENARIOS[name]()
    session.run(float(seconds))
    return of(session)


def run_stepped(name: str) -> str:
    session, seconds = SCENARIOS[name]()
    for _ in range(seconds):
        session.run(1.0)
    return session_digest(session)


# ----------------------------------------------------------------------
# Fleet scenarios: each returns (session, [(seconds, then), ...]) — serve
# that many seconds, then call ``then(session)`` (or nothing)
# ----------------------------------------------------------------------
def _fleet_specs(n, **kwargs):
    defaults = dict(
        initial_nodes=1, max_nodes=2, saturation_rate_per_node=40.0,
        db_size_kb=5 * 1024.0, queue_limit_seconds=4.0,
    )
    defaults.update(kwargs)
    return [WorkerSpec(worker_id=i, seed=20 + i, **defaults) for i in range(n)]


def _off_boundaries(arrivals):
    distance = np.abs(arrivals - np.round(arrivals))
    assert len(arrivals) and distance.min() > 1e-6
    return arrivals


def _break_transport_mid_tick(session):
    """The next ``step`` post to worker 1 kills it: the batch already
    routed to it fails closed."""
    victim = session.workers[1]

    def post(message):
        victim.kill()
        raise TransportError("worker 1 died mid-tick")

    victim.post = post


def fleet_bare_session():
    arrivals = _off_boundaries(poisson_arrivals(95.0, 40.0, seed=17))
    session = DistributedServeSession(_fleet_specs(2), arrivals, mode="inproc", seed=17)
    return session, [(44, None)]


def fleet_policy_session():
    registry = TenantRegistry(
        tenants=[
            TenantSpec(name="gold", profile="poisson:rate=60", weight=3),
            TenantSpec(name="silver", profile="poisson:rate=30", weight=2),
            TenantSpec(name="capped", profile="poisson:rate=25", weight=1, quota_rps=9.0),
        ]
    )
    arrivals, indices = composite_arrivals(registry, 60.0, seed=19)
    session = DistributedServeSession(
        _fleet_specs(2, collect_telemetry=True, queue_limit_seconds=2.0),
        _off_boundaries(arrivals),
        mode="inproc",
        edge_queue_limit_s=1.5,
        breaker=BreakerConfig(miss_threshold=3, open_seconds=12.0, half_open_successes=2),
        brownout=BrownoutConfig(),
        slo=SLOConfig(),
        low_priority_fraction=0.2,
        telemetry=Telemetry(),
        seed=19,
        tenancy=TenantAdmission(registry),
        tenant_indices=indices,
        tenant_names=registry.names(),
        timeseries=TimeSeriesStore(),
    )
    return session, [(20, _break_transport_mid_tick), (44, None)]


def fleet_traced_session():
    arrivals = _off_boundaries(poisson_arrivals(100.0, 24.0, seed=23))
    session = DistributedServeSession(
        _fleet_specs(
            2, trace_requests=True, collect_telemetry=True, queue_limit_seconds=2.0
        ),
        arrivals,
        mode="inproc",
        edge_queue_limit_s=1.0,
        trace_requests=True,
        telemetry=Telemetry(),
        seed=23,
    )
    return session, [(28, lambda session: session.collect_telemetry())]


FLEET_SCENARIOS = {
    "fleet_bare": fleet_bare_session,
    "fleet_policy": fleet_policy_session,
    "fleet_traced": fleet_traced_session,
}

#: sha256 per fleet scenario, taken on 60750f7 — except ``fleet_policy``,
#: re-pinned three times: once when an edge that owns tenancy began to emit the
#: ``serve.tenant.*{tenant=...}`` counters an engine does (nine metric
#: records and their time-series; was ``fe9c377b6016...``), and once when
#: the time-series store began to sample a fleet registry fresh every
#: tick, not one refreshed every fourth tick (only ``timeseries`` moved;
#: was ``885d3a7e3757...``; the document diff is in CHANGES.md), and once
#: when the edge's breakers began to report through the engine's
#: ``NodeHealthMonitor`` (breaker and brownout telemetry records and their
#: time-series only; was ``4e42cb3c2432...``; diff in CHANGES.md).
FLEET_PINS = {
    "fleet_bare": "51d067a0b4e8f913cbd5d4e82a3e1783bbe021b103c84d41387b4e32e845df2c",
    "fleet_policy": "381c591b4f5de5bf40367e5a6ef5ce9622ee1542465e432cc327dc7d20b847a3",
    "fleet_traced": "a75b7bce2f56f84803a318f66a3f5932943ad52984bd479495285e0ae0d26f19",
}


def fleet_document(session) -> dict:
    """Everything the edge owns, plus what it merged."""
    fleet = session.engine
    report = session.report
    document = {
        "report": asdict(report),
        "advertised": {str(k): list(v) for k, v in fleet.advertised.items()},
        "breakers": {str(k): b.state_dict() for k, b in fleet.health.breakers.items()},
        "transitions": {str(k): b.transitions for k, b in fleet.health.breakers.items()},
        "brownout_active": fleet.brownout_active,
        "rng": fleet._rng.bit_generator.state["state"],
        "healthz": session.healthz(),
    }
    if fleet.slo_monitor is not None:
        document["slo"] = fleet.slo_monitor.state_dict()
        document["tenant_slos"] = {
            name: monitor.state_dict() for name, monitor in fleet.tenant_slos.items()
        }
    if fleet.tenancy is not None:
        document["tenancy"] = fleet.tenancy.state_dict()
    if fleet.telemetry is not None:
        document["metrics"] = fleet.telemetry.metrics.records()
        document["events"] = fleet.telemetry.timeline.events
        document["spans"] = fleet.telemetry.tracer.records()
    if session.timeseries is not None:
        document["timeseries"] = session.timeseries.dump()
    return document


def fleet_digest(session) -> str:
    return _digest(fleet_document(session), session.report)


def run_fleet(name: str, *, stepped: bool, of=fleet_digest):
    session, legs = FLEET_SCENARIOS[name]()
    with session:
        for seconds, then in legs:
            if stepped:
                for _ in range(seconds):
                    session.run(1.0)
            else:
                session.run(float(seconds))
            if then is not None:
                then(session)
        return of(session)


# ----------------------------------------------------------------------
# Worker step exchange
# ----------------------------------------------------------------------
def _reply_records(reply):
    """A columnar ``step`` reply as JSON records: per posted row, its
    ``STEP_REPLY_COLUMNS`` (``reason`` by name) under ``outcomes``, then
    the capacity ad."""
    columns = [reply[name].tolist() for name in STEP_REPLY_COLUMNS]
    outcomes = [dict(zip(STEP_REPLY_COLUMNS, row)) for row in zip(*columns)]
    for row in outcomes:
        row["reason"] = REASONS[row["reason"]]
    records = {"ok": reply["ok"], "outcomes": outcomes}
    for key in ("worker", "machines", "queue_seconds"):
        records[key] = reply[key]
    return records


def worker_step_replies():
    """A traced worker stepped through an overload: every reply, as records."""
    server = WorkerServer(
        WorkerSpec(
            worker_id=0, initial_nodes=1, max_nodes=2, saturation_rate_per_node=6.0,
            db_size_kb=1024.0, queue_limit_seconds=1.5, seed=9,
            trace_requests=True, collect_telemetry=True,
        )
    )
    rng = np.random.default_rng(9)
    replies = []
    trace_id = 1
    for tick in range(6):
        count = (14, 0, 9, 3, 11, 1)[tick]
        rows = np.arange(count)
        message = {
            "cmd": "step",
            "times": np.sort(tick + rng.random(count)),
            # 0 = untraced request: the worker mints the id
            "trace_id": np.where(rows % 5 == 4, 0, trace_id + rows),
        }
        trace_id += count
        replies.append(_reply_records(server.handle(message)))
    return replies


# ----------------------------------------------------------------------
# The Predictive Controller on a bare EngineSimulator (no serving layer)
# ----------------------------------------------------------------------
def _fig9_run():
    return fig9_elasticity.run_pstore(
        fig9_elasticity.build_setup(eval_days=1, train_days=10)
    ).result


def _fig11_boost_run():
    setup = fig9_elasticity.build_setup(
        eval_days=1, train_days=10, seed=1109, with_skew=False
    )
    setup = fig11_spike_reaction._spiked_setup(setup, 1109)
    return fig9_elasticity.run_pstore(setup, spike_policy="boost").result


def _chaos_run():
    return ext_fault_tolerance.run(fast=True).faulted.result


OFFLINE_SCENARIOS = {
    "fig9_pstore": _fig9_run,
    "fig11_boost": _fig11_boost_run,
    "ext_faults_chaos": _chaos_run,
}

OFFLINE_PINS = {
    "fig9_pstore": "ff81a2a594acf2ca6ae5b2a9d95c3e46ab3822fe225a91369dcdf7a49e58a379",
    "fig11_boost": "d123a955ef1e500787e0270cc03586eb1cac095cc275eba8ddff3e712d9765e7",
    "ext_faults_chaos": "ada7534683c46ee757c73a54522e9ba9672e72f099404b845c2c22f892749730",
}


def offline_digest(name: str, monkeypatch) -> str:
    """Run the scenario, catching the controller its last
    ``EngineSimulator.run`` was handed (the experiments do not return it)."""
    controllers = []
    run = EngineSimulator.run

    def capturing_run(self, trace, controller=None, **kwargs):
        controllers.append(controller)
        return run(self, trace, controller=controller, **kwargs)

    monkeypatch.setattr(EngineSimulator, "run", capturing_run)
    result = OFFLINE_SCENARIOS[name]()
    rows = [
        (d.sim_time, d.measured_rate, d.machines_before, d.target, d.kind, d.boost)
        for d in controllers[-1].decision_log
    ]
    digest = hashlib.sha256(repr(rows).encode())
    digest.update(result.machines.tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(OFFLINE_SCENARIOS))
def test_offline_run_matches_pin(name, monkeypatch):
    assert offline_digest(name, monkeypatch) == OFFLINE_PINS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_whole_matches_pin(name):
    assert run_whole(name) == PINS[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_run_one_second_at_a_time_matches_pin(name):
    assert run_stepped(name) == PINS[name]


@pytest.mark.parametrize("stepped", [False, True], ids=["whole", "stepped"])
@pytest.mark.parametrize("name", sorted(FLEET_SCENARIOS))
def test_fleet_matches_pin(name, stepped):
    assert run_fleet(name, stepped=stepped) == FLEET_PINS[name]


def test_fleet_scenarios_exercise_the_paths_they_claim():
    session, legs = fleet_policy_session()
    with session:
        for seconds, then in legs:
            session.run(float(seconds))
            if then is not None:
                then(session)
    fleet, report = session.engine, session.report
    assert report.errored > 0  # the batch routed to the broken worker
    assert ("closed", "open") in [t[1:] for t in fleet.health.breakers[1].transitions]
    tenant_brownout = sum(fleet.tenancy.brownout_shed.values())  # light tenants, whole
    assert fleet.tenancy.quota_shed["capped"] > 0 and tenant_brownout > 0
    assert report.brownout_shed > tenant_brownout  # and low-priority requests
    # ... and the edge queue limit, on top of what the workers shed themselves.
    assert fleet.admission.rejected > report.brownout_shed + fleet.tenancy.quota_shed["capped"]
    assert fleet.admission.accepted > 0
    assert session.timeseries.samples_taken == 64
    assert 'serve.machines{worker="1"}' in session.timeseries.names()  # the workers' views
    assert report.conserved and report.tenants_consistent()

    traced, legs = fleet_traced_session()
    with traced:
        traced.run(28.0)
        traced.collect_telemetry()
    names = {span["name"] for span in traced.engine.telemetry.tracer.records()}
    assert {"edge.request", "request"} <= names


def test_scenarios_exercise_the_paths_they_claim():
    """Guards the pins against silently testing nothing."""
    bare, _ = bare_session()
    bare.run(64.0)
    assert bare.loadgen.report.rejected > 0 and bare.loadgen.report.accepted > 0
    full, _ = full_session()
    full.run(124.0)
    assert full.engine.tenancy.quota_shed["batch"] > 0
    assert full.engine.moves_completed >= 1
    chaos, _ = chaos_session()
    report = chaos.run(90.0)
    assert report.retries > 0 and report.hedges > 0 and report.brownout_shed > 0
    assert chaos.engine.errors > 0
    tenants, _ = chaos_tenants_session()
    report = tenants.run(75.0)
    assert report.errored > 0 and report.brownout_shed > 0
    assert tenants.engine.tenancy.quota_shed["capped"] > 0
    assert sum(tenants.engine.tenancy.brownout_shed.values()) > 0
    assert report.rejected > report.brownout_shed + tenants.engine.tenancy.quota_shed["capped"]


def test_worker_step_reply_rows_match_pre_change_json():
    with open(WORKER_GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    replies = json.loads(json.dumps(worker_step_replies()))
    assert len(replies) == len(golden)
    for reply, expected in zip(replies, golden):
        assert list(reply) == list(expected)  # same keys, same order
        assert len(reply["outcomes"]) == len(expected["outcomes"])
        for row, expected_row in zip(reply["outcomes"], expected["outcomes"]):
            assert list(row.items()) == list(expected_row.items())
        assert reply == expected


if __name__ == "__main__":  # pragma: no cover - pin regeneration
    import sys

    if sys.argv[1:2] == ["--documents"]:
        # A re-pin is reviewed as a diff of what is hashed: run this on
        # the parent and on the change, then diff the two directories.
        os.makedirs(sys.argv[2], exist_ok=True)
        for scenario in sys.argv[3:]:
            if scenario in SCENARIOS:
                document = run_whole(scenario, of=session_document)
            else:
                document = run_fleet(scenario, stepped=False, of=fleet_document)
            with open(os.path.join(sys.argv[2], scenario + ".json"), "w") as handle:
                json.dump(document, handle, indent=1, sort_keys=True, default=str)
        sys.exit(0)
    for scenario in sorted(SCENARIOS):
        whole, stepped = run_whole(scenario), run_stepped(scenario)
        print(scenario, whole, "stepped-equal" if whole == stepped else f"STEPPED {stepped}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with open(WORKER_GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(worker_step_replies(), handle, indent=1)
        handle.write("\n")
    print("wrote", WORKER_GOLDEN)
    for scenario in sorted(FLEET_SCENARIOS):
        whole, stepped = run_fleet(scenario, stepped=False), run_fleet(scenario, stepped=True)
        print(scenario, whole, "stepped-equal" if whole == stepped else f"STEPPED {stepped}")
    for scenario in sorted(OFFLINE_SCENARIOS):
        with pytest.MonkeyPatch.context() as patch:
            print(scenario, offline_digest(scenario, patch))
