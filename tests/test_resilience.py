"""Serving-path fault tolerance: breakers, brownout, retries, chaos e2e.

The end-to-end tests run a live chaos scenario on the virtual clock: a
node crashes mid-serve, the stale router keeps feeding it (errors), the
consecutive-miss detector opens its breaker (traffic reroutes), the node
recovers, the breaker half-opens and closes — and request conservation
(offered = served + shed + errored + in-flight) holds exactly.
"""

import pytest

from repro.engine.simulator import EngineConfig
from repro.errors import ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.serve import (
    AdmissionConfig,
    BreakerConfig,
    BrownoutConfig,
    ResilienceConfig,
    RetryConfig,
    ServeSession,
    ServerEngine,
    poisson_arrivals,
)
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN, CircuitBreaker
from repro.telemetry import Telemetry
from repro.telemetry.metrics import labeled

SAT = 12.0


def small_config(**kwargs):
    defaults = dict(max_nodes=4, saturation_rate_per_node=SAT, db_size_kb=5 * 1024)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def chaos_engine(plan=None, *, resilience=None, telemetry=None, **kwargs):
    defaults = dict(
        engine_config=small_config(),
        initial_nodes=3,
        admission=AdmissionConfig(queue_limit_seconds=8.0),
        resilience=resilience,
        telemetry=telemetry,
    )
    if plan is not None:
        defaults["fault_injector"] = FaultInjector(plan)
    defaults.update(kwargs)
    return ServerEngine(**defaults)


def fast_breakers(**kwargs):
    defaults = dict(miss_threshold=3, open_seconds=20.0, half_open_successes=2)
    defaults.update(kwargs)
    return ResilienceConfig(breaker=BreakerConfig(**defaults))


# ----------------------------------------------------------------------
# Circuit breaker state machine
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_consecutive_misses(self):
        breaker = CircuitBreaker(0, BreakerConfig(miss_threshold=3))
        breaker.record_failure(1.0)
        breaker.record_failure(2.0)
        assert breaker.state == CLOSED
        breaker.record_failure(3.0)
        assert breaker.state == OPEN
        assert not breaker.allows_traffic

    def test_success_resets_miss_streak(self):
        breaker = CircuitBreaker(0, BreakerConfig(miss_threshold=2))
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        assert breaker.state == CLOSED

    def test_half_open_after_dwell_then_closes(self):
        config = BreakerConfig(miss_threshold=1, open_seconds=10.0, half_open_successes=2)
        breaker = CircuitBreaker(0, config)
        breaker.record_failure(5.0)
        assert breaker.state == OPEN
        breaker.poll(14.0)
        assert breaker.state == OPEN
        breaker.poll(15.0)
        assert breaker.state == HALF_OPEN
        breaker.record_success(16.0)
        assert breaker.state == HALF_OPEN
        breaker.record_success(17.0)
        assert breaker.state == CLOSED
        assert [t[1:] for t in breaker.transitions] == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]

    def test_half_open_failure_reopens_with_fresh_dwell(self):
        config = BreakerConfig(miss_threshold=1, open_seconds=10.0)
        breaker = CircuitBreaker(0, config)
        breaker.record_failure(0.0)
        breaker.poll(10.0)
        assert breaker.state == HALF_OPEN
        breaker.record_failure(11.0)
        assert breaker.state == OPEN
        assert breaker.opened_at == 11.0
        breaker.poll(20.0)
        assert breaker.state == OPEN  # the dwell restarted at 11

    def test_state_dict_roundtrip(self):
        breaker = CircuitBreaker(3, BreakerConfig(miss_threshold=1))
        breaker.record_failure(2.0)
        clone = CircuitBreaker(3, BreakerConfig(miss_threshold=1))
        clone.load_state_dict(breaker.state_dict())
        assert clone.state == OPEN
        assert clone.opened_at == 2.0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(miss_threshold=0)
        with pytest.raises(ConfigurationError):
            BreakerConfig(open_seconds=0)
        with pytest.raises(ConfigurationError):
            BrownoutConfig(queue_factor=0.0)
        with pytest.raises(ConfigurationError):
            RetryConfig(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryConfig(backoff_base_s=5.0, backoff_cap_s=1.0)
        with pytest.raises(ConfigurationError):
            RetryConfig(low_priority_fraction=1.5)


# ----------------------------------------------------------------------
# End-to-end chaos on the virtual clock
# ----------------------------------------------------------------------
class TestChaosServing:
    PLAN = FaultPlan([NodeCrash(at_seconds=30.0, node_id=1, recover_after_seconds=60.0)])

    def run_chaos(self, *, retry=None, telemetry=None, seed=0):
        engine = chaos_engine(
            self.PLAN, resilience=fast_breakers(), telemetry=telemetry
        )
        arrivals = poisson_arrivals(10.0, 150.0, seed=seed)
        session = ServeSession(engine, arrivals, retry=retry, retry_seed=seed)
        report = session.run(160.0)
        return engine, session, report

    def test_crash_detect_reroute_recover_close_arc(self):
        engine, _, report = self.run_chaos()

        # The stale router fed the corpse until the breaker opened.
        assert engine.errors > 0
        assert report.errored > 0

        breaker = engine.health.breakers[1]
        arcs = [t[1:] for t in breaker.transitions]
        assert (CLOSED, OPEN) in arcs  # detected
        assert (OPEN, HALF_OPEN) in arcs  # dwell expired, probing resumed
        assert arcs[-1] == (HALF_OPEN, CLOSED)  # recovered and confirmed
        assert breaker.state == CLOSED

        # Detection happened within miss_threshold ticks of the crash
        # (request failures can trip the detector even sooner).
        opened_at = next(t[0] for t in breaker.transitions if t[2] == OPEN)
        assert 30.0 <= opened_at <= 34.0

        # While the breaker was open no further errors accrued: every
        # error has a submission time inside the undetected window.
        assert engine.brownout_sheds == 0  # no low-priority traffic here

    def test_request_conservation_exact(self):
        _, _, report = self.run_chaos()
        assert report.offered > 0
        assert report.in_flight == 0
        assert report.conserved
        assert (
            report.offered
            == report.accepted + report.rejected + report.errored
        )
        assert "(exact)" in report.conservation_line()

    def test_retries_recover_errored_requests(self):
        _, _, bare = self.run_chaos()
        _, _, retried = self.run_chaos(
            retry=RetryConfig(max_retries=3, backoff_base_s=1.0, budget_floor=100)
        )
        # Retries convert most stale-window errors into successes.
        assert retried.retries > 0
        assert retried.retry_successes > 0
        assert retried.errored < bare.errored
        assert retried.conserved

    def test_chaos_run_is_deterministic(self):
        _, _, a = self.run_chaos(retry=RetryConfig())
        _, _, b = self.run_chaos(retry=RetryConfig())
        assert a.summary() == b.summary()
        assert a.latencies_ms == b.latencies_ms

    def test_breaker_telemetry_and_events(self):
        telemetry = Telemetry()
        engine, _, _ = self.run_chaos(telemetry=telemetry)
        assert telemetry.counter("serve.breaker.transitions").value >= 3
        assert telemetry.counter("serve.errors").value == engine.errors
        assert telemetry.timeline.events_of("breaker")
        assert telemetry.timeline.events_of("brownout")
        assert telemetry.counter("serve.brownout.engaged").value >= 1
        assert telemetry.counter("serve.brownout.released").value >= 1

    def test_healthz_exposes_resilience_state(self):
        engine, _, _ = self.run_chaos()
        health = engine.healthz()
        assert health["errors"] == engine.errors
        assert health["brownout"] is False
        assert health["breakers"]["1"] == CLOSED


class TestBrownout:
    def test_low_priority_shed_while_breaker_open(self):
        plan = FaultPlan([NodeCrash(at_seconds=20.0, node_id=1)])  # never recovers
        resilience = ResilienceConfig(
            breaker=BreakerConfig(miss_threshold=2, open_seconds=1000.0),
            brownout=BrownoutConfig(queue_factor=0.5, shed_low_priority=True),
        )
        engine = chaos_engine(plan, resilience=resilience)
        arrivals = poisson_arrivals(6.0, 80.0, seed=1)
        session = ServeSession(
            engine,
            arrivals,
            retry=RetryConfig(max_retries=0, low_priority_fraction=0.5),
            retry_seed=1,
        )
        report = session.run(90.0)
        assert engine.brownout_active
        assert engine.brownout_sheds > 0
        assert report.brownout_shed > 0
        assert report.conserved
        assert engine.healthz()["status"] == "brownout"

    def test_no_brownout_when_disabled(self):
        plan = FaultPlan([NodeCrash(at_seconds=20.0, node_id=1)])
        resilience = ResilienceConfig(
            breaker=BreakerConfig(miss_threshold=2, open_seconds=1000.0),
            brownout=None,
        )
        engine = chaos_engine(plan, resilience=resilience)
        session = ServeSession(engine, poisson_arrivals(6.0, 80.0, seed=1))
        session.run(90.0)
        assert engine.health.breakers[1].state == OPEN
        assert not engine.brownout_active


class TestRetriesAndHedging:
    def test_shed_requests_retry_after_backoff(self):
        # A tiny queue limit sheds aggressively during a 30s burst;
        # retries back off past the burst's end and then succeed.
        engine = chaos_engine(
            admission=AdmissionConfig(queue_limit_seconds=0.3),
            resilience=fast_breakers(),
        )
        arrivals = poisson_arrivals(20.0, 30.0, seed=3)
        session = ServeSession(
            engine,
            arrivals,
            retry=RetryConfig(max_retries=2, backoff_base_s=2.0, budget_floor=1000),
            retry_seed=3,
        )
        report = session.run(80.0)
        assert report.retries > 0
        assert report.retry_successes > 0
        assert report.conserved

    def test_retry_budget_bounds_amplification(self):
        engine = chaos_engine(
            admission=AdmissionConfig(queue_limit_seconds=0.1),
            resilience=fast_breakers(),
        )
        arrivals = poisson_arrivals(20.0, 30.0, seed=4)
        budget_floor = 5
        session = ServeSession(
            engine,
            arrivals,
            retry=RetryConfig(
                max_retries=3, budget_fraction=0.0, budget_floor=budget_floor
            ),
            retry_seed=4,
        )
        report = session.run(40.0)
        assert report.retries <= budget_floor
        assert report.conserved

    def test_hedging_fires_on_long_queue_estimates(self):
        engine = chaos_engine(
            admission=AdmissionConfig(queue_limit_seconds=30.0),
            resilience=fast_breakers(),
        )
        arrivals = poisson_arrivals(30.0, 40.0, seed=5)  # way past saturation
        session = ServeSession(
            engine,
            arrivals,
            retry=RetryConfig(max_retries=0, hedge_queue_seconds=1.0),
            retry_seed=5,
        )
        report = session.run(50.0)
        assert report.hedges > 0
        assert report.hedge_wins >= 0
        assert report.conserved

    def test_resilience_without_faults_is_bit_identical(self):
        # With no faults, enabling detection must not perturb serving:
        # probes consume no RNG and the router view matches the cluster,
        # so results are bit-identical to the resilience-off path.
        def run(**kwargs):
            engine = chaos_engine(**kwargs)
            session = ServeSession(engine, poisson_arrivals(6.0, 60.0, seed=6))
            return session.run(70.0)

        a = run(resilience=None)
        b = run(resilience=fast_breakers())
        assert a.summary() == b.summary()
        assert a.latencies_ms == b.latencies_ms


# ----------------------------------------------------------------------
# Distributed chaos: worker crash → breaker opens → edge reroutes
# ----------------------------------------------------------------------
class TestDistributedWorkerCrash:
    """The crash arc across the process boundary (inproc transport:
    identical protocol, deterministic scheduling)."""

    def make_session(self, *, brownout=None, low_priority_fraction=0.0, telemetry=None):
        from repro.serve import DistributedServeSession, WorkerSpec

        workers = [
            WorkerSpec(
                worker_id=i,
                initial_nodes=1,
                max_nodes=2,
                saturation_rate_per_node=120.0,
                queue_limit_seconds=8.0,
                seed=i,
            )
            for i in range(2)
        ]
        arrivals = poisson_arrivals(120.0, 60.0, seed=8)
        return DistributedServeSession(
            workers,
            arrivals,
            mode="inproc",
            breaker=BreakerConfig(miss_threshold=3, open_seconds=20.0),
            brownout=brownout,
            low_priority_fraction=low_priority_fraction,
            seed=8,
            telemetry=telemetry,
        )

    def test_crash_opens_breaker_and_reroutes(self):
        with self.make_session() as session:
            session.run(10.0)
            victim = session.workers[1]
            victim.kill()
            report = session.run(30.0)

        assert session.engine.health.breakers[1].state == OPEN
        assert session.engine.health.breakers[0].state == CLOSED
        # Post-crash traffic all lands on the survivor; the fleet keeps
        # serving and every request still gets a terminal answer.
        assert report.accepted > 0
        assert report.conserved
        health = session.healthz()
        assert health["status"] == "degraded"
        assert health["workers"]["1"]["status"] == "dead"

    def test_breaker_transitions_reach_fleet_telemetry(self):
        """The edge's breakers report like an engine's node breakers:
        ``serve.breaker.*`` metrics, ``breaker`` events and the engine's
        brownout signals, with the worker id as the node."""
        telemetry = Telemetry()
        with self.make_session(brownout=BrownoutConfig(), telemetry=telemetry) as session:
            session.run(10.0)
            session.workers[1].kill()
            session.run(30.0)
        assert telemetry.counter("serve.breaker.transitions").value > 0
        transitions = session.engine.health.breakers[1].transitions
        assert ("closed", "open") in [t[1:] for t in transitions]
        assert telemetry.counter("serve.breaker.transitions").value == len(transitions)
        assert telemetry.gauge(labeled("serve.breaker.state", node=1)).value == 2.0
        assert [(e["node"], e["to_state"]) for e in telemetry.timeline.events_of("breaker")][0] == (
            1, "open"
        )
        assert telemetry.counter("serve.brownout.engaged").value == 1
        assert telemetry.gauge("serve.brownout").value == 1.0
        [brownout] = telemetry.timeline.events_of("brownout")
        assert brownout["engaged"] and brownout["open_nodes"] == [1]

    def test_crash_mid_batch_fails_closed_not_lost(self):
        # Kill between ticks but after routing state is warm: the batch
        # already routed to the dead worker terminates as 500s with
        # reason "connection" — errored, not vanished.
        with self.make_session() as session:
            session.run(5.0)
            session.workers[0].kill()
            session.workers[1].kill()
            report = session.run(10.0)
        assert report.errored > 0
        assert report.accepted + report.rejected + report.errored == (
            report.offered
        )
        assert report.conserved
        assert session.healthz()["status"] == "degraded"

    def test_open_breaker_triggers_edge_brownout(self):
        with self.make_session(
            brownout=BrownoutConfig(), low_priority_fraction=0.5
        ) as session:
            session.run(10.0)
            assert not session.engine.brownout_active
            session.workers[1].kill()
            report = session.run(30.0)
            assert session.engine.brownout_active
        assert report.rejected > 0, "low-priority work sheds under brownout"
        assert report.conserved
