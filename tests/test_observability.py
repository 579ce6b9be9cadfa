"""Tests for the serving-path observability layer: per-request trace
context, planner decision audit + ``repro.cli explain``, SLO burn-rate
monitoring, debug bundles, and the labelled Prometheus export.

Everything runs on simulated/virtual time — zero real sleeps — and the
end-to-end class pins the acceptance criterion that enabling tracing
and SLO monitoring leaves engine results bit-identical.
"""

import json

import numpy as np
import pytest

from repro.core.audit import (
    DecisionAudit,
    PlanCandidate,
    audit_event_fields,
)
from repro.core.params import SystemParameters
from repro.core.policy import PredictivePolicy
from repro.engine.simulator import EngineConfig
from repro.errors import ConfigurationError
from repro.prediction.online import OnlinePredictor
from repro.prediction.spar import SPARPredictor
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    OnlineControlLoop,
    ServeSession,
    ServerEngine,
    trace_arrivals,
)
from repro.telemetry import Telemetry
from repro.telemetry.bundle import (
    resolve_dump_path,
    verify_bundle,
    write_debug_bundle,
)
from repro.telemetry.export import read_jsonl, render_prometheus, write_jsonl
from repro.telemetry.metrics import labeled, split_labels
from repro.telemetry.report import format_explain, render_explain
from repro.telemetry.requesttrace import SHED_QUEUE_LIMIT, RequestTracer
from repro.telemetry.slo import SLOConfig, SLOMonitor
from repro.telemetry.tracer import Tracer
from repro.workloads.trace import LoadTrace

SAT = 12.0  # small per-node saturation keeps arrival counts test-sized


def small_config(**kwargs):
    defaults = dict(max_nodes=4, saturation_rate_per_node=SAT, db_size_kb=5 * 1024)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def small_params(**kwargs):
    defaults = dict(interval_seconds=60.0, d_seconds=120.0)
    defaults.update(kwargs)
    return SystemParameters.from_saturation(SAT, **defaults)


def small_online(refit_every=12):
    spar = SPARPredictor(period=12, n_periods=2, n_recent=2, max_horizon=4)
    return OnlinePredictor(spar, refit_every=refit_every)


def traced_engine(**kwargs):
    defaults = dict(
        initial_nodes=1,
        slot_seconds=60.0,
        admission=AdmissionConfig(queue_limit_seconds=5.0),
        seed=3,
        telemetry=Telemetry(),
        trace_requests=True,
    )
    defaults.update(kwargs)
    return ServerEngine(small_config(), **defaults)


# ----------------------------------------------------------------------
# Satellite regressions: tracer sequence clock, labelled metrics
# ----------------------------------------------------------------------
class TestSpanSequenceClock:
    def test_untimestamped_finish_advances_past_start(self):
        # Regression: finish(at=None) used to collapse the span to zero
        # duration; it must close at the tracer's sequence clock instead.
        tracer = Tracer()
        outer = tracer.begin("plan")
        tracer.begin("inner").finish()
        outer.finish()
        assert outer.closed
        assert outer.end > outer.start
        assert outer.duration > 0.0

    def test_simulated_time_span_clamps_to_its_start(self):
        # A span dated on the simulated clock sits far ahead of the
        # sequence counter; an untimestamped finish must not rewind it.
        tracer = Tracer()
        span = tracer.begin("migration", at=500.0)
        span.finish()
        assert span.end == 500.0
        assert span.duration == 0.0

    def test_finish_all_closes_detached_spans(self):
        tracer = Tracer()
        root = tracer.begin_detached("request", at=10.0)
        child = tracer.begin_detached("serve", at=10.0, parent=root)
        tracer.finish_all()
        assert root.closed and child.closed
        assert root.status == "abandoned"
        assert root.end >= root.start and child.end >= child.start


class TestLabelledMetrics:
    def test_labeled_is_canonical(self):
        assert labeled("serve.admit.shed", node=2) == 'serve.admit.shed{node="2"}'
        # Keys sort, so label order never changes the registry key.
        assert labeled("m", b=1, a=2) == labeled("m", a=2, b=1)
        assert labeled("m") == "m"
        with pytest.raises(ConfigurationError):
            labeled('m{a="1"}', b=2)

    def test_split_labels_round_trips(self):
        name = labeled("serve.admit.shed", node=3, zone="a")
        base, pairs = split_labels(name)
        assert base == "serve.admit.shed"
        assert dict(pairs) == {"node": "3", "zone": "a"}
        assert split_labels("plain") == ("plain", ())
        with pytest.raises(ConfigurationError):
            split_labels("m{node=3}")

    def test_prometheus_emits_one_family_with_sorted_series(self):
        tel = Telemetry()
        tel.counter(labeled("serve.admit.shed", node=1)).inc(2)
        tel.counter(labeled("serve.admit.shed", node=0)).inc(5)
        tel.counter("serve.ticks").inc(7)
        text = render_prometheus(tel.metrics)
        assert text.count("# TYPE repro_serve_admit_shed_total counter") == 1
        assert 'repro_serve_admit_shed_total{node="0"} 5' in text
        assert 'repro_serve_admit_shed_total{node="1"} 2' in text
        assert text.index('{node="0"}') < text.index('{node="1"}')
        # Byte-stable: rendering twice is identical.
        assert render_prometheus(tel.metrics) == text

    def test_per_node_admission_counters(self):
        tel = Telemetry()
        ctl = AdmissionController(AdmissionConfig(queue_limit_seconds=1.0), tel)
        ctl.decide(0, 0.5)
        ctl.decide(0, 3.0)
        ctl.decide(1, 0.1)
        assert tel.counter(labeled("serve.admit.accepted", node=0)).value == 1
        assert tel.counter(labeled("serve.admit.shed", node=0)).value == 1
        assert tel.counter(labeled("serve.admit.accepted", node=1)).value == 1
        # Aggregates stay alongside the labelled pair (dashboards grep them).
        assert tel.counter("serve.admitted").value == 2
        assert tel.counter("serve.rejected").value == 1
        assert tel.gauge("serve.admit.retry_after_s").value == pytest.approx(2.0)


# ----------------------------------------------------------------------
# SLO burn-rate monitor
# ----------------------------------------------------------------------
class TestSLOMonitor:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SLOConfig(objective=1.0)
        with pytest.raises(ConfigurationError):
            SLOConfig(objective=0.0)
        with pytest.raises(ConfigurationError):
            SLOConfig(latency_threshold_ms=0.0)
        with pytest.raises(ConfigurationError):
            SLOConfig(fast_window_s=600.0, slow_window_s=300.0)
        with pytest.raises(ConfigurationError):
            SLOConfig(burn_threshold=0.0)
        with pytest.raises(ConfigurationError):
            SLOConfig(min_samples=0)

    def test_classify_uses_latency_threshold(self):
        mon = SLOMonitor(SLOConfig(latency_threshold_ms=500.0))
        assert mon.classify(499.9) and mon.classify(500.0)
        assert not mon.classify(500.1)

    def test_burn_rate_is_error_rate_over_budget(self):
        mon = SLOMonitor(SLOConfig(objective=0.9, burn_threshold=100.0))
        mon.observe(1.0, good=8, bad=2)  # error rate 0.2, budget 0.1
        assert mon.fast_burn == pytest.approx(2.0)
        assert mon.slow_burn == pytest.approx(2.0)
        assert not mon.alerting

    def test_fires_once_and_resolves_on_fast_window(self):
        tel = Telemetry()
        config = SLOConfig(
            objective=0.9,
            latency_threshold_ms=100.0,
            fast_window_s=10.0,
            slow_window_s=1000.0,
            burn_threshold=2.0,
        )
        mon = SLOMonitor(config, tel)
        for t in range(1, 21):
            mon.observe(float(t), good=6, bad=4)  # burn 4.0 in both windows
        assert mon.alerting and mon.alerts_fired == 1
        fires = [e for e in tel.timeline.events_of("slo_alert")]
        assert [e["state"] for e in fires] == ["fire"]
        assert tel.counter("slo.alerts_fired").value == 1

        # Good traffic clears the fast window; the slow window still
        # remembers the incident, but the page resolves anyway.
        for t in range(21, 33):
            mon.observe(float(t), good=10, bad=0)
        assert not mon.alerting
        assert mon.slow_burn >= config.burn_threshold
        states = [e["state"] for e in tel.timeline.events_of("slo_alert")]
        assert states == ["fire", "resolve"]
        assert mon.alerts_fired == 1  # resolve is not a new page

    def test_needs_both_windows_to_fire(self):
        mon = SLOMonitor(
            SLOConfig(
                objective=0.9,
                fast_window_s=5.0,
                slow_window_s=1000.0,
                burn_threshold=2.0,
            )
        )
        # Long good history keeps the slow burn low; a short error blip
        # saturates only the fast window.
        for t in range(1, 200):
            mon.observe(float(t), good=10, bad=0)
        for t in range(200, 204):
            mon.observe(float(t), good=0, bad=10)
        assert mon.fast_burn >= 2.0
        assert mon.slow_burn < 2.0
        assert not mon.alerting

    def test_min_samples_guards_startup_blips(self):
        mon = SLOMonitor(
            SLOConfig(objective=0.9, burn_threshold=2.0, min_samples=20)
        )
        # One bad request among the first few saturates both windows,
        # but the sample guard keeps the page quiet...
        mon.observe(1.0, good=3, bad=1)
        assert mon.fast_burn >= 2.0 and mon.slow_burn >= 2.0
        assert not mon.alerting
        # ...until enough traffic has been seen to trust the rate.
        for t in range(2, 8):
            mon.observe(float(t), good=3, bad=1)
        assert mon.alerting

    def test_idle_status_reports_full_budget(self):
        mon = SLOMonitor()
        state = mon.status()
        assert state["good_fraction"] == 1.0
        assert state["alerting"] is False
        assert state["alerts_fired"] == 0

    def test_shed_requests_burn_budget(self):
        engine = traced_engine(
            admission=AdmissionConfig(queue_limit_seconds=0.01),
            slo=SLOConfig(objective=0.5, burn_threshold=1000.0),
        )
        for _ in range(5):
            engine.submit()
        engine.tick()
        assert engine.slo_monitor.bad_total >= 1  # 503s count as bad
        assert engine.slo_monitor.good_total + engine.slo_monitor.bad_total == 5

    def test_healthz_degraded_outranks_shedding(self):
        engine = traced_engine(
            admission=AdmissionConfig(queue_limit_seconds=0.01),
            slo=SLOConfig(
                objective=0.9, fast_window_s=60.0, slow_window_s=60.0,
                burn_threshold=1.0, min_samples=1,
            ),
        )
        for _ in range(10):
            engine.submit()
        engine.tick()
        health = engine.healthz()
        assert engine.slo_monitor.alerting
        assert health["status"] == "degraded"
        assert health["slo"]["alerts_fired"] == 1


# ----------------------------------------------------------------------
# Planner decision audit
# ----------------------------------------------------------------------
class TestDecisionAudit:
    def test_plateau_fast_path_skips_the_dp(self):
        params = small_params()
        policy = PredictivePolicy(params, max_machines=4)
        load = np.full(5, params.q * 0.9)
        audit = DecisionAudit()
        decision = policy.decide(load, 1, audit=audit)
        assert decision.target is None and not decision.planned
        assert audit.reason == "plateau"
        assert audit.chosen_machines == 1
        assert audit.candidates == []

    def test_move_records_candidates_schedule_and_runner_up(self):
        params = small_params()
        policy = PredictivePolicy(params, max_machines=4)
        # Demand doubles next interval: the DP must start the scale-out
        # now for the capacity to be there in time.
        load = np.array([0.9, 1.8, 1.8, 1.8]) * params.q
        audit = DecisionAudit()
        decision = policy.decide(load, 1, audit=audit)
        assert decision.target == 2 and decision.planned and not decision.fallback
        assert audit.reason == "move"
        assert audit.target == 2 and audit.chosen_machines == 2
        assert audit.plan_cost is not None and np.isfinite(audit.plan_cost)
        assert audit.schedule  # rendered coalesced moves
        assert audit.candidates and any(c.feasible for c in audit.candidates)
        if audit.runner_up is not None:
            assert audit.runner_up.machines != 2
            assert "tie-break" in audit.rejection

    def test_deferred_move_audits_as_receding_hold(self):
        params = small_params()
        policy = PredictivePolicy(params, max_machines=4)
        # The rise is two intervals out, so the plan schedules the move
        # for later and this cycle holds (replan with fresher data).
        load = np.array([0.9, 0.9, 1.8, 1.8]) * params.q
        audit = DecisionAudit()
        decision = policy.decide(load, 1, audit=audit)
        assert decision.target is None and decision.planned
        assert audit.reason == "receding-hold"
        assert any("scale-out" in move for move in audit.schedule)

    def test_fallback_records_infeasibility_and_candidates(self):
        params = small_params()
        policy = PredictivePolicy(params, max_machines=4)
        # The spike exceeds what even max_machines can serve: no plan.
        load = np.array([0.5, 4.5, 4.5]) * params.q
        audit = DecisionAudit()
        decision = policy.decide(load, 1, audit=audit)
        assert decision.fallback and decision.target == 4
        assert audit.reason == "fallback"
        assert audit.infeasible_detail
        assert audit.candidates  # filled even on the infeasible path
        assert all(not c.feasible for c in audit.candidates if c.cost == float("inf"))
        fields = audit_event_fields(
            audit,
            interval=7,
            measured_rate=0.5 * params.q,
            predicted_rate=3.8 * params.q,
            window_intervals=2,
            interval_seconds=60.0,
        )
        json.dumps(fields)  # inf costs must be JSON-safe (None)
        assert all(
            c["cost"] is None
            for c, orig in zip(fields["candidates"], audit.candidates)
            if not orig.feasible
        )

    def test_scale_in_waits_for_confirmation_votes(self):
        params = small_params()
        policy = PredictivePolicy(params, max_machines=4, scale_in_confirmations=3)
        load = np.full(4, params.q * 0.4)
        audit = DecisionAudit()
        decision = policy.decide(load, 3, audit=audit)
        assert decision.target is None
        assert audit.reason == "scale-in-pending"
        assert audit.scale_in_votes == 1

    def test_machine_hours_delta(self):
        audit = DecisionAudit(
            plan_cost=8.0, runner_up=PlanCandidate(machines=3, cost=10.0)
        )
        assert audit.machine_hours_delta(3600.0) == pytest.approx(2.0)
        assert audit.machine_hours_delta(60.0) == pytest.approx(2.0 / 60.0)
        assert DecisionAudit().machine_hours_delta(60.0) is None
        infeasible = DecisionAudit(
            plan_cost=8.0, runner_up=PlanCandidate(machines=3, cost=float("inf"))
        )
        assert infeasible.machine_hours_delta(60.0) is None


# ----------------------------------------------------------------------
# Per-request trace context
# ----------------------------------------------------------------------
class TestRequestTracing:
    def test_requires_enabled_telemetry(self):
        with pytest.raises(ConfigurationError):
            ServerEngine(small_config(), trace_requests=True)
        with pytest.raises(ConfigurationError):
            RequestTracer(Telemetry(enabled=False))

    def test_accepted_request_span_tree(self):
        engine = traced_engine()
        outcomes = []
        for _ in range(3):
            engine.submit(outcomes.append)
        engine.tick()

        tracer = engine.telemetry.tracer
        roots = tracer.named("request")
        assert len(roots) == 3
        assert [r.attrs["trace_id"] for r in roots] == [1, 2, 3]
        admissions = tracer.named("admission")
        serves = tracer.named("serve")
        assert len(admissions) == len(serves) == 3
        for root, adm, srv, outcome in zip(roots, admissions, serves, outcomes):
            assert outcome.trace_id == root.attrs["trace_id"]
            assert root.attrs["origin"] == "engine"
            assert root.attrs["node"] == outcome.node_id
            assert "queue_estimate" in root.attrs
            assert adm.parent_id == root.span_id and adm.attrs["decision"] == "accept"
            assert srv.parent_id == root.span_id
            assert srv.attrs["latency_ms"] == pytest.approx(
                outcome.latency_ms, abs=1e-6
            )
            assert root.end == pytest.approx(outcome.completed_at)
            assert root.duration > 0.0

    def test_shed_request_closes_with_reason(self):
        engine = traced_engine(
            admission=AdmissionConfig(queue_limit_seconds=0.01)
        )
        outcomes = []
        engine.submit(outcomes.append)  # empty queue: admitted
        engine.submit(outcomes.append)  # behind the first: shed
        shed_roots = [
            s
            for s in engine.telemetry.tracer.named("request")
            if s.status == "shed"
        ]
        assert len(shed_roots) == 1
        root = shed_roots[0]
        assert root.attrs["shed_reason"] == SHED_QUEUE_LIMIT
        assert root.closed and root.end == root.start  # failed fast
        admission = [
            s
            for s in engine.telemetry.tracer.named("admission")
            if s.parent_id == root.span_id
        ][0]
        assert admission.attrs["decision"] == "shed"
        assert admission.attrs["shed_reason"] == SHED_QUEUE_LIMIT
        assert admission.attrs["retry_after_s"] >= 1.0
        assert outcomes[-1].status == 503
        assert outcomes[-1].trace_id == root.attrs["trace_id"]

    def test_request_overlapping_migration_links_to_its_span(self):
        engine = traced_engine()
        engine.sim.start_move(2)
        migration_id = engine.sim.migration_span_id
        assert migration_id is not None

        engine.submit()
        root = engine.telemetry.tracer.named("request")[-1]
        assert root.attrs["migration_span"] == migration_id

        for _ in range(10_000):
            if not engine.sim.migration_active:
                break
            engine.tick()
        assert not engine.sim.migration_active

        engine.submit()
        after = engine.telemetry.tracer.named("request")[-1]
        assert "migration_span" not in after.attrs

    def test_minted_context_carries_the_edge_origin(self):
        engine = traced_engine()
        ctx = engine.request_tracer.mint("loadgen")
        engine.submit(trace=ctx)
        engine.tick()
        root = engine.telemetry.tracer.named("request")[0]
        assert root.attrs["origin"] == "loadgen"
        assert root.attrs["trace_id"] == ctx.trace_id
        assert ctx.trace_id == 1


# ----------------------------------------------------------------------
# repro.cli explain — golden rendering
# ----------------------------------------------------------------------
def _synthetic_dump(path):
    """A hand-built run: one plateau, one audited move, a scored
    forecast, an SLO fire/resolve pair, shedding on node 0 and two
    request traces (one of which overlapped a migration)."""
    tel = Telemetry()
    tel.event(
        "audit", 240.0, interval=3, measured_rate=4.0, predicted_rate=4.2,
        window_intervals=4, reason="plateau", candidates=[],
        chosen_machines=1, plan_cost=None, schedule=[], target=None,
        runner_up=None, rejection=None, machine_hours_delta=None,
        scale_in_votes=0, infeasible_detail=None,
    )
    tel.event(
        "audit", 300.0, interval=4, measured_rate=9.0, predicted_rate=10.5,
        window_intervals=4, reason="move",
        candidates=[
            {"machines": 1, "cost": None},
            {"machines": 2, "cost": 8.0},
            {"machines": 3, "cost": 9.0},
        ],
        chosen_machines=2, plan_cost=8.0,
        schedule=["interval 0: 1 -> 2 (+1)"], target=2, runner_up=3,
        rejection=(
            "3 machines feasible at cost 9 vs 8 machine-intervals; "
            "fewest-machines tie-break prefers 2"
        ),
        machine_hours_delta=0.016667, scale_in_votes=0, infeasible_detail=None,
    )
    tel.event("forecast", 360.0, interval=5, predicted=10.5, actual=9.8)
    tel.event(
        "slo_alert", 420.0, state="fire", fast_burn=12.5, slow_burn=10.2,
        objective=0.999,
    )
    tel.event(
        "slo_alert", 600.0, state="resolve", fast_burn=1.5, slow_burn=10.0,
        objective=0.999,
    )
    tel.counter(labeled("serve.admit.accepted", node=0)).inc(90)
    tel.counter(labeled("serve.admit.shed", node=0)).inc(10)

    tracer = tel.tracer
    root = tracer.begin_detached(
        "request", at=299.0, trace_id=1, origin="loadgen", node=0,
        partition=0, queue_estimate=0.5, migration_span=7,
    )
    tracer.begin_detached(
        "admission", at=299.0, parent=root, decision="accept"
    ).finish(at=299.0)
    tracer.begin_detached("serve", at=299.0, parent=root).finish(at=299.4)
    root.finish(at=299.4)
    shed = tracer.begin_detached(
        "request", at=420.0, trace_id=2, origin="http", node=0,
        partition=1, queue_estimate=9.0,
    )
    shed.attrs["shed_reason"] = SHED_QUEUE_LIMIT
    shed.finish(at=420.0, status="shed")

    write_jsonl(tel, path)
    return path


EXPECTED_EXPLAIN = """\
Planner decisions (2 replans audited)
t s  interval  reason   measured/s  predicted/s  actual/s  action
---  --------  -------  ----------  -----------  --------  ------
240         3  plateau         4.0          4.2         -    hold
300         4     move         9.0         10.5       9.8       2

Decision detail @ t=300s (interval 4, move)
  candidates (machine-intervals): 1m=inf, 2m=8, 3m=9
  schedule: interval 0: 1 -> 2 (+1)
  runner-up rejected: 3 machines feasible at cost 9 vs 8 machine-intervals; fewest-machines tie-break prefers 2
  machine-hours saved vs runner-up: 0.017

SLO burn-rate alerts
t s  state    fast burn  slow burn  objective
---  -------  ---------  ---------  ---------
420     fire      12.50      10.20    99.900%
600  resolve       1.50      10.00    99.900%

Admission by node
node  shed  accepted
----  ----  --------
   0    10        90

Request traces
  2 traced requests | 1 shed | 1 overlapped a migration"""


class TestExplainGolden:
    def test_format_explain_matches_golden(self, tmp_path):
        path = _synthetic_dump(tmp_path / "dump.jsonl")
        assert format_explain(read_jsonl(path)) == EXPECTED_EXPLAIN

    def test_render_explain_accepts_bare_dump(self, tmp_path):
        path = _synthetic_dump(tmp_path / "dump.jsonl")
        assert render_explain(str(path)) == EXPECTED_EXPLAIN

    def test_empty_dump_renders_placeholders(self, tmp_path):
        tel = Telemetry()
        tel.counter("serve.ticks").inc()
        path = tmp_path / "empty.jsonl"
        write_jsonl(tel, path)
        out = format_explain(read_jsonl(path))
        assert "no audit events recorded" in out
        assert "none fired" in out


# ----------------------------------------------------------------------
# Debug bundles
# ----------------------------------------------------------------------
def _bundle_telemetry():
    tel = Telemetry()
    tel.counter("serve.ticks").inc(4)
    tel.gauge("serve.machines").set(2.0)
    tel.event("audit", 60.0, interval=0, reason="plateau")
    tel.tracer.begin_detached("request", at=10.0, trace_id=1)  # left open
    return tel


class TestDebugBundle:
    def test_layout_manifest_and_verify(self, tmp_path):
        out = tmp_path / "bundle"
        manifest = write_debug_bundle(
            _bundle_telemetry(), out,
            config={"command": "serve"}, report={"offered": 4},
        )
        names = set(manifest["files"])
        assert names == {
            "telemetry.jsonl", "metrics.prom", "config.json", "report.json"
        }
        assert verify_bundle(out)["files"] == manifest["files"]
        assert json.loads((out / "config.json").read_text()) == {
            "command": "serve"
        }
        # The open request span was finished before export.
        dump = read_jsonl(out / "telemetry.jsonl")
        (span,) = dump.spans_named("request")
        assert span["end"] is not None and span["status"] == "abandoned"

    def test_bundles_are_reproducible(self, tmp_path):
        a = write_debug_bundle(
            _bundle_telemetry(), tmp_path / "a", config={"seed": 1}
        )
        b = write_debug_bundle(
            _bundle_telemetry(), tmp_path / "b", config={"seed": 1}
        )
        assert a == b  # same digests byte for byte

    def test_verify_detects_corruption_and_truncation(self, tmp_path):
        out = tmp_path / "bundle"
        write_debug_bundle(_bundle_telemetry(), out)
        dump = out / "telemetry.jsonl"
        dump.write_text(dump.read_text() + "\n")
        with pytest.raises(ConfigurationError, match="digest mismatch"):
            verify_bundle(out)
        dump.unlink()
        with pytest.raises(ConfigurationError, match="missing file"):
            verify_bundle(out)
        with pytest.raises(ConfigurationError, match="MANIFEST"):
            verify_bundle(tmp_path / "nowhere")

    def test_resolve_dump_path(self, tmp_path):
        out = tmp_path / "bundle"
        write_debug_bundle(_bundle_telemetry(), out)
        assert resolve_dump_path(out) == out / "telemetry.jsonl"
        bare = tmp_path / "dump.jsonl"
        bare.write_text("")
        assert resolve_dump_path(bare) == bare
        with pytest.raises(ConfigurationError):
            resolve_dump_path(tmp_path)  # a directory, but not a bundle


# ----------------------------------------------------------------------
# End to end: traced + SLO-monitored serve run, bundle, explain
# ----------------------------------------------------------------------
class TestObservabilityEndToEnd:
    """One virtual-clock serve run with every observability layer on:
    request tracing, decision audit via the online control loop, SLO
    burn-rate alerting during an unpredicted flash crowd, and a debug
    bundle that round-trips through ``repro.cli explain``.

    The twin run with all of it off pins the acceptance criterion:
    instrumentation never touches the engine's RNG or state, so the
    served latencies are bit-identical.
    """

    N_SLOTS = 80
    FIT_SLOT = 62  # min_training for the small SPAR above

    def build(self, *, observed):
        online = small_online(refit_every=12)
        assert online.min_training == self.FIT_SLOT
        loop = OnlineControlLoop(
            small_params(), online,
            measurement_slot_seconds=60.0, horizon=4, max_machines=4,
        )
        engine = ServerEngine(
            small_config(),
            initial_nodes=1,
            slot_seconds=60.0,
            admission=AdmissionConfig(queue_limit_seconds=5.0),
            controller=loop,
            seed=7,
            telemetry=Telemetry() if observed else None,
            trace_requests=observed,
            # Availability-flavoured SLO: the latency threshold sits far
            # above this small config's normal tail, so only shed
            # requests burn budget — the alert isolates the flash crowd.
            slo=SLOConfig(
                objective=0.9,
                latency_threshold_ms=60_000.0,
                fast_window_s=120.0,
                slow_window_s=600.0,
                burn_threshold=2.0,
            ) if observed else None,
        )
        t = np.arange(self.N_SLOTS, dtype=float)
        rates = 4.0 + 3.0 * np.sin(2 * np.pi * t / 12.0)
        rates[66:] = 10.0 + 7.0 * np.sin(2 * np.pi * t[66:] / 12.0)
        rates[70:76] *= 5.0  # unpredicted flash crowd, post-fit
        trace = LoadTrace(rates * 60.0, slot_seconds=60.0, name="obs-e2e")
        arrivals = trace_arrivals(trace, seed=9)
        return engine, loop, ServeSession(engine, arrivals)

    @pytest.fixture(scope="class")
    def outcome(self, tmp_path_factory):
        engine, loop, session = self.build(observed=True)
        report = session.run(self.N_SLOTS * 60.0)
        report_text = session.format_report()
        bundle_dir = tmp_path_factory.mktemp("observed") / "bundle"
        write_debug_bundle(
            engine.telemetry, bundle_dir,
            config={"scenario": "obs-e2e", "slots": self.N_SLOTS},
            report=dict(report.summary()),
        )
        return engine, loop, report, bundle_dir, report_text

    def test_tracing_leaves_engine_results_bit_identical(self, outcome):
        engine, _, report, _, _ = outcome
        twin_engine, _, twin_session = self.build(observed=False)
        twin_report = twin_session.run(self.N_SLOTS * 60.0)
        assert twin_report.latencies_ms == report.latencies_ms
        assert twin_report.summary() == report.summary()
        assert twin_engine.sim.machines_allocated == engine.sim.machines_allocated
        assert twin_engine.sim.moves_started == engine.sim.moves_started
        assert twin_engine.max_node_queue_seconds == engine.max_node_queue_seconds

    def test_every_request_left_a_trace(self, outcome):
        engine, _, report, _, _ = outcome
        roots = engine.telemetry.tracer.named("request")
        assert len(roots) == report.offered
        assert sorted(r.attrs["trace_id"] for r in roots) == list(range(1, report.offered + 1))
        assert all(r.attrs["origin"] == "loadgen" for r in roots)
        shed = [r for r in roots if r.status == "shed"]
        assert len(shed) == report.rejected > 0
        overlapped = [r for r in roots if "migration_span" in r.attrs]
        assert overlapped  # reconfigurations ran under live traffic

    def test_audit_trail_joins_predictions_with_measurements(self, outcome):
        engine, loop, _, bundle_dir, _ = outcome
        dump = read_jsonl(bundle_dir / "telemetry.jsonl")
        audits = dump.events_of("audit")
        assert audits
        assert len(audits) == int(dump.counters["control.replans"])
        # Replans only happen once the SPAR model is fitted (the first
        # fit closes at exactly the FIT_SLOT interval boundary).
        assert all(float(e["t"]) >= self.FIT_SLOT * 60.0 for e in audits)
        assert all(e["predicted_rate"] is not None for e in audits)
        forecasts = {int(e["interval"]): e for e in dump.events_of("forecast")}
        scored = [
            (e, forecasts[int(e["interval"]) + 1])
            for e in audits
            if int(e["interval"]) + 1 in forecasts
        ]
        assert scored
        for audit, forecast in scored:
            assert forecast["predicted"] == pytest.approx(
                float(audit["predicted_rate"])
            )
        reasons = {e["reason"] for e in audits}
        assert "fallback" in reasons  # the flash crowd outran the plan

    def test_slo_alert_fired_during_flash_crowd(self, outcome):
        engine, _, _, bundle_dir, _ = outcome
        dump = read_jsonl(bundle_dir / "telemetry.jsonl")
        alerts = dump.events_of("slo_alert")
        assert any(e["state"] == "fire" for e in alerts)
        assert engine.slo_monitor.alerts_fired >= 1
        fire_times = [float(e["t"]) for e in alerts if e["state"] == "fire"]
        # Shedding only starts with the late-run overload (the demand
        # regime shift at slot 66 into the slot-70 flash crowd), so no
        # alert can fire during the long calm phase before it.
        assert min(fire_times) >= 66 * 60.0
        health = engine.healthz()
        assert health["slo"]["alerts_fired"] == engine.slo_monitor.alerts_fired
        assert health["slo"]["objective"] == 0.9
        assert 0.0 < health["slo"]["good_fraction"] <= 1.0

    def test_bundle_round_trips_through_explain(self, outcome):
        _, _, report, bundle_dir, _ = outcome
        verify_bundle(bundle_dir)
        text = render_explain(str(bundle_dir))
        assert "Planner decisions" in text and "replans audited" in text
        assert "SLO burn-rate alerts" in text and "fire" in text
        assert "Admission by node" in text
        assert f"{report.offered} traced requests" in text
        assert json.loads((bundle_dir / "report.json").read_text())[
            "offered"
        ] == report.offered

    def test_cli_explain_command(self, outcome, capsys):
        from repro.cli import main

        _, _, _, bundle_dir, _ = outcome
        assert main(["explain", str(bundle_dir)]) == 0
        out = capsys.readouterr().out
        assert "Planner decisions" in out
        assert "SLO burn-rate alerts" in out
        assert main(["explain", str(bundle_dir / "missing")]) == 2

    def test_session_report_includes_slo_line(self, outcome):
        _, _, _, _, report_text = outcome
        assert "SLO 90.000%" in report_text
        assert "burn fast/slow" in report_text
        assert "alerts fired" in report_text
