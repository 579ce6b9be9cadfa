"""Tests for the serving layer: clock, admission, engine, loadgen, control.

Everything here runs on the virtual clock — zero real sleeps; the
asyncio HTTP transport has its own suite in ``test_serve_http.py``.
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.core.params import SystemParameters
from repro.engine import queueing
from repro.engine.queueing import sample_latencies
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.errors import ConfigurationError
from repro.prediction.online import OnlinePredictor
from repro.prediction.spar import SPARPredictor
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    OnlineControlLoop,
    ServeSession,
    ServerEngine,
    VirtualClock,
    poisson_arrivals,
    spike_arrivals,
    trace_arrivals,
)
from repro.serve.loadgen import LoadGenerator, LoadgenReport, parse_profile
from repro.telemetry import Telemetry
from repro.workloads.spikes import FlashCrowd
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


class TestVirtualClock:
    def test_events_fire_in_time_then_insertion_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(2.0, lambda: fired.append("late"))
        clock.call_at(1.0, lambda: fired.append("a"))
        clock.call_at(1.0, lambda: fired.append("b"))
        assert clock.run_until(5.0) == 3
        assert fired == ["a", "b", "late"]
        assert clock.now == 5.0

    def test_callbacks_can_reschedule(self):
        clock = VirtualClock()
        ticks = []

        def tick():
            ticks.append(clock.now)
            if clock.now < 3.0:
                clock.call_at(clock.now + 1.0, tick)

        clock.call_at(1.0, tick)
        clock.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_run_until_ignores_future_events(self):
        clock = VirtualClock()
        fired = []
        clock.call_at(7.0, lambda: fired.append(7.0))
        assert clock.run_until(5.0) == 0
        assert fired == [] and clock.pending == 1
        assert clock.run() == 1
        assert clock.now == 7.0

    def test_scheduling_in_the_past_rejected(self):
        clock = VirtualClock(start=10.0)
        with pytest.raises(ConfigurationError):
            clock.call_at(9.0, lambda: None)


class TestAdmission:
    def test_accepts_below_limit(self):
        ctl = AdmissionController(AdmissionConfig(queue_limit_seconds=5.0))
        decision = ctl.decide(0, 4.9)
        assert decision.accepted and decision.status == 200
        assert decision.retry_after_s == 0.0
        assert ctl.accepted == 1 and ctl.rejected == 0

    def test_rejects_above_limit_with_retry_hint(self):
        ctl = AdmissionController(
            AdmissionConfig(queue_limit_seconds=5.0, retry_after_floor_s=1.0)
        )
        decision = ctl.decide(2, 9.5)
        assert not decision.accepted and decision.status == 503
        assert decision.retry_after_s == pytest.approx(4.5)
        # Barely-over rejects still carry the floor hint.
        assert ctl.decide(2, 5.01).retry_after_s == pytest.approx(1.0)
        ctl.decide(0, 0.0)
        assert ctl.reject_rate() == pytest.approx(2 / 3)

    def test_counters_reach_telemetry(self):
        telemetry = Telemetry()
        ctl = AdmissionController(AdmissionConfig(queue_limit_seconds=1.0), telemetry)
        ctl.decide(0, 0.5)
        ctl.decide(0, 2.0)
        assert telemetry.counter("serve.admitted").value == 1
        assert telemetry.counter("serve.rejected").value == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionConfig(queue_limit_seconds=0.0)
        with pytest.raises(ConfigurationError):
            AdmissionConfig(retry_after_floor_s=-1.0)


class TestLatencySampling:
    def test_quantiles_match_mixture(self):
        sim = EngineSimulator(small_config(), initial_nodes=2)
        sim.step(10.0)
        components = sim.last_latency_components
        assert components is not None
        u = np.linspace(0.05, 0.95, 19)
        samples = sample_latencies(components, u)
        assert samples.shape == u.shape
        assert np.all(np.diff(samples) >= 0)  # quantile function is monotone
        assert np.all(samples > 0)

    def test_empty_and_extreme_uniforms(self):
        sim = EngineSimulator(small_config(), initial_nodes=1)
        sim.step(5.0)
        components = sim.last_latency_components
        assert sample_latencies(components, np.empty(0)).size == 0
        extremes = sample_latencies(components, np.array([0.0, 1.0]))
        assert np.all(np.isfinite(extremes))


class TestStepSolvesOnlyForItsReaders:
    """``EngineSimulator.step`` builds the step's latency mixture; its
    p50/p95/p99 are solved only when attached telemetry reads them."""

    @staticmethod
    def _serve(engine, ticks=15):
        """Tick ``engine`` under random load, idle every third tick;
        returns the requests each tick completed.  Two of four nodes are
        allocated, so every step's mixture has a zero-weight class."""
        rng = np.random.default_rng(4)
        completed = []
        for tick in range(ticks):
            arrivals = int(rng.integers(1, 40)) if tick % 3 else 0
            engine.submit_batch(tick + rng.random(arrivals))
            before = engine.completed
            engine.tick()
            completed.append(engine.completed - before)
        return completed

    def test_no_step_solve_without_telemetry(self, monkeypatch):
        sizes = []
        solve = queueing.mixture_quantiles
        monkeypatch.setattr(
            queueing, "mixture_quantiles", lambda c, q: sizes.append(len(q)) or solve(c, q)
        )
        completed = self._serve(ServerEngine(small_config(), initial_nodes=2, seed=3))
        # Every call samples one tick's admitted requests; none is a step's.
        assert sizes == [n for n in completed if n]
        assert 0 in completed

    def test_timeline_quantiles_match_run(self):
        telemetry = Telemetry()
        config = small_config()
        engine = ServerEngine(config, initial_nodes=2, seed=3, telemetry=telemetry)
        self._serve(engine)
        ticks = telemetry.timeline.ticks
        offered = np.array([tick["offered"] for tick in ticks])
        trace = LoadTrace(offered * config.dt_seconds, slot_seconds=config.dt_seconds)
        result = EngineSimulator(config, initial_nodes=2).run(trace)
        for column in ("p50_ms", "p95_ms", "p99_ms"):
            assert [tick[column] for tick in ticks] == getattr(result, column).tolist()

    def test_run_solves_a_memoised_mixture_it_reuses(self):
        """An untelemetered ``step`` memoises a mixture it never solved;
        a ``run`` whose first step hits that memo solves it there and
        matches a run from the same state with the memo cleared."""
        trace = LoadTrace(np.full(3, 600.0), slot_seconds=60.0)
        results = []
        for keep_memo in (True, False):
            sim = EngineSimulator(small_config(), initial_nodes=2)
            sim.step(10.0)
            memoised = sim.last_latency_components
            assert "summary" not in vars(memoised)
            if not keep_memo:
                sim._step_memo = None
            results.append(sim.run(trace))
            assert ("summary" in vars(memoised)) is keep_memo
        kept, fresh = results
        for field in fields(kept):
            a, b = getattr(kept, field.name), getattr(fresh, field.name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


class TestServerEngine:
    def test_accepted_requests_complete_on_next_tick(self):
        engine = ServerEngine(small_config(), initial_nodes=2, seed=3)
        outcomes = []
        for _ in range(20):
            decision = engine.submit(outcomes.append, now=0.5)
            assert decision.accepted
        assert outcomes == []  # nothing resolves before the tick
        admission = engine.admission
        before = (admission.accepted, admission.rejected)
        engine.tick()
        # The tick resolves what was admitted and admits nothing itself.
        assert before == (20, 0)
        assert (admission.accepted, admission.rejected) == before
        assert len(outcomes) == 20
        for outcome in outcomes:
            assert outcome.accepted and outcome.status == 200
            assert outcome.latency_ms > 0
            assert outcome.completed_at > outcome.submitted_at

    def test_slot_must_be_multiple_of_tick(self):
        with pytest.raises(ConfigurationError):
            ServerEngine(small_config(), slot_seconds=1.5)

    def test_healthz_shape(self):
        engine = ServerEngine(small_config(), initial_nodes=1)
        engine.tick()
        health = engine.healthz()
        assert health["status"] == "ok"
        assert health["machines"] == 1 and health["ticks"] == 1
        assert health["moves_started"] == 0 and health["moves_completed"] == 0

    def test_rejects_fail_fast_with_retry_hint(self):
        engine = ServerEngine(
            small_config(),
            initial_nodes=1,
            admission=AdmissionConfig(queue_limit_seconds=0.001),
            seed=1,
        )
        outcomes = []
        for _ in range(50):
            engine.submit(outcomes.append)
        rejected = [o for o in outcomes if not o.accepted]
        assert rejected, "tiny queue limit must shed in-tick pileup"
        for outcome in rejected:
            assert outcome.status == 503
            assert outcome.retry_after_s >= 1.0
            assert outcome.completed_at == outcome.submitted_at

    def test_routing_follows_data_shares(self):
        engine = ServerEngine(small_config(), initial_nodes=2, seed=0)
        nodes = engine.submit_batch(np.zeros(200)).node_id
        assert set(nodes.tolist()) == {0, 1}  # only active nodes receive traffic

    def test_deterministic_given_seed(self):
        def run():
            engine = ServerEngine(small_config(), initial_nodes=2, seed=42)
            arrivals = poisson_arrivals(8.0, 120.0, seed=5)
            session = ServeSession(engine, arrivals)
            report = session.run(120.0)
            return report.summary(), engine.healthz()

        assert run() == run()


class TestLoadgenSchedules:
    def test_poisson_rate_and_determinism(self):
        a = poisson_arrivals(50.0, 100.0, seed=1)
        b = poisson_arrivals(50.0, 100.0, seed=1)
        assert np.array_equal(a, b)
        assert np.all((a >= 0) & (a < 100.0))
        assert len(a) == pytest.approx(5000, rel=0.1)
        assert poisson_arrivals(0.0, 100.0).size == 0

    def test_trace_replay_tracks_slot_counts(self):
        trace = LoadTrace(np.array([600.0, 0.0, 1200.0]), slot_seconds=60.0)
        times = trace_arrivals(trace, seed=2)
        assert np.all(np.diff(times) >= 0)
        first = np.sum(times < 60.0)
        second = np.sum((times >= 60.0) & (times < 120.0))
        third = np.sum(times >= 120.0)
        assert second == 0
        assert first == pytest.approx(600, rel=0.2)
        assert third == pytest.approx(1200, rel=0.2)

    def test_spike_concentrates_arrivals(self):
        spike = FlashCrowd(
            start_seconds=300.0, ramp_seconds=30.0, plateau_seconds=120.0,
            decay_seconds=60.0, magnitude=5.0,
        )
        times = spike_arrivals(10.0, 600.0, spike, seed=3)
        during = np.sum((times >= 330.0) & (times < 450.0)) / 120.0
        before = np.sum(times < 300.0) / 300.0
        assert during > 3.0 * before

    def test_parse_profile_variants(self):
        assert parse_profile("poisson:rate=20", 30.0, seed=1).size > 0
        spike = parse_profile("spike:rate=5,at=60,magnitude=4", 300.0, seed=1)
        assert spike.size > 0
        trace = parse_profile("trace:kind=b2w,days=1,rate=3,slot=300", 3600.0, seed=1)
        assert np.all(trace < 3600.0)

    def test_parse_profile_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            parse_profile("sawtooth:rate=5", 60.0)
        with pytest.raises(ConfigurationError):
            parse_profile("poisson:rate=5,bogus=1", 60.0)
        with pytest.raises(ConfigurationError):
            parse_profile("poisson:rate", 60.0)
        with pytest.raises(ConfigurationError):
            parse_profile("trace:kind=nyse", 60.0)

    def test_unsorted_arrivals_rejected(self):
        engine = ServerEngine(small_config())
        with pytest.raises(ConfigurationError):
            LoadGenerator(engine, np.array([2.0, 1.0]), VirtualClock())


class TestLoadgenReport:
    def test_percentiles_and_summary(self):
        report = LoadgenReport(duration_s=10.0)
        for latency in (10.0, 20.0, 30.0, 40.0):
            report.record(_ok(latency))
        report.record(_shed(3.0))
        assert report.offered == 5 and report.accepted == 4 and report.rejected == 1
        assert report.reject_rate == pytest.approx(0.2)
        assert report.throughput_per_s == pytest.approx(0.4)
        assert report.latency_percentile(50.0) == pytest.approx(25.0)
        summary = report.summary()
        assert summary["max_retry_after_s"] == 3.0
        text = report.format_report()
        assert "rejected 1" in text and "retry-after" in text

    def test_empty_report_is_quiet(self):
        report = LoadgenReport()
        assert report.reject_rate == 0.0
        assert report.latency_percentile(99.0) == 0.0
        assert report.summary()["p99_ms"] == 0.0


def _ok(latency_ms):
    from repro.serve import TxnOutcome

    return TxnOutcome(True, 200, 0, 0.0, latency_ms / 1000.0, latency_ms)


def _shed(retry_after):
    from repro.serve import TxnOutcome

    return TxnOutcome(False, 503, 0, 0.0, 0.0, 0.0, retry_after_s=retry_after)


class TestSheddingUnderSpike:
    def make_session(self):
        engine = ServerEngine(
            small_config(),
            initial_nodes=1,
            admission=AdmissionConfig(queue_limit_seconds=5.0),
            seed=11,
        )
        spike = FlashCrowd(
            start_seconds=120.0, ramp_seconds=30.0, plateau_seconds=180.0,
            decay_seconds=60.0, magnitude=6.0,
        )
        arrivals = spike_arrivals(6.0, 600.0, spike, seed=13)
        return engine, ServeSession(engine, arrivals)

    def test_shedding_bounds_queues(self):
        engine, session = self.make_session()
        report = session.run(600.0)
        assert report.rejected > 0, "open-loop spike must trigger shedding"
        assert report.accepted > 0
        # Shedding (limit 5s), not the engine cap (30s), bounds the queue:
        # the estimate can overshoot by at most one tick's arrivals.
        assert engine.max_node_queue_seconds < 10.0
        assert engine.max_node_queue_seconds < engine.sim.config.max_queue_seconds
        assert max(report.retry_after_s) >= 1.0
        # After the spike drains the server reports healthy again.
        assert engine.healthz()["status"] == "ok"

    def test_spike_session_is_deterministic(self):
        def run():
            engine, session = self.make_session()
            report = session.run(600.0)
            return report.summary(), engine.healthz()

        assert run() == run()


class TestOnlineControlLoopUnit:
    # Slot/interval misalignment is rejected by the same constructor in
    # tests/test_controller.py::TestPredictiveController::
    # test_rejects_misaligned_slots.
    def test_horizon_capped_by_predictor(self):
        with pytest.raises(ConfigurationError):
            OnlineControlLoop(
                small_params(), small_online(),
                measurement_slot_seconds=60.0, horizon=99,
            )

    def test_cold_start_scales_out_reactively(self):
        loop = OnlineControlLoop(
            small_params(), small_online(),
            measurement_slot_seconds=60.0, max_machines=4,
        )
        sim = EngineSimulator(small_config(), initial_nodes=1)
        # One interval of load far above a single node's target rate.
        loop.on_slot(sim, 0, measured_count=20.0 * 60.0)
        assert loop.cold_start_decisions == 1
        assert loop.predictive_decisions == 0
        assert not loop.is_fitted
        assert loop.decision_log[-1].kind == "cold-start-reactive"
        assert sim.migration_active or sim.machines_allocated > 1

    def test_cold_start_never_scales_in(self):
        loop = OnlineControlLoop(
            small_params(), small_online(),
            measurement_slot_seconds=60.0, max_machines=4,
        )
        sim = EngineSimulator(small_config(), initial_nodes=3)
        loop.on_slot(sim, 0, measured_count=1.0)  # nearly idle
        assert loop.decision_log == []
        assert sim.machines_allocated == 3


class TestServeEndToEnd:
    """Acceptance scenario: server + loadgen + online SPAR control loop.

    One virtual-clock run (zero real sleeps) drives the full lifecycle:
    cold-start reactive fallback, first SPAR fit at ``min_training``,
    refits on cadence, predictive reconfigurations completing mid-run,
    and admission shedding under an unpredicted flash crowd.
    """

    N_SLOTS = 110
    FIT_SLOT = 62  # min_training for the small SPAR above

    def build(self):
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
            telemetry=Telemetry(),
        )
        t = np.arange(self.N_SLOTS, dtype=float)
        rates = 4.0 + 3.0 * np.sin(2 * np.pi * t / 12.0)
        rates[66:] = 10.0 + 7.0 * np.sin(2 * np.pi * t[66:] / 12.0)
        rates[80:86] *= 5.0  # unpredicted flash crowd, post-fit
        trace = LoadTrace(rates * 60.0, slot_seconds=60.0, name="e2e")
        arrivals = trace_arrivals(trace, seed=9)
        return engine, loop, ServeSession(engine, arrivals)

    @pytest.fixture(scope="class")
    def outcome(self):
        engine, loop, session = self.build()
        report = session.run(self.N_SLOTS * 60.0)
        return engine, loop, report

    def test_lifecycle_cold_start_fit_refit(self, outcome):
        _, loop, _ = outcome
        assert loop.cold_start_decisions >= 1
        assert loop.is_fitted
        assert loop.refits >= 2  # first fit plus at least one cadence refit
        assert loop.intervals_observed == self.N_SLOTS
        kinds = [d.kind for d in loop.decision_log]
        assert kinds[0] == "cold-start-reactive"
        # Every pre-fit decision is reactive; predictive ones only after.
        first_fit_time = self.FIT_SLOT * 60.0
        for decision in loop.decision_log:
            if decision.kind == "cold-start-reactive":
                assert decision.sim_time <= first_fit_time
            else:
                assert decision.sim_time > first_fit_time

    def test_predictive_reconfiguration_completes_mid_run(self, outcome):
        engine, loop, _ = outcome
        assert loop.predictive_decisions >= 1
        assert any(d.kind in ("planned", "fallback") for d in loop.decision_log)
        assert engine.moves_completed >= 2
        assert not engine.sim.migration_active  # all moves ran to completion

    def test_spike_sheds_and_queues_stay_bounded(self, outcome):
        engine, _, report = outcome
        assert report.rejected > 0
        assert report.reject_rate < 0.5  # shedding, not collapse
        assert engine.max_node_queue_seconds < 10.0
        assert engine.max_node_queue_seconds < engine.sim.config.max_queue_seconds

    def test_telemetry_counters_track_the_run(self, outcome):
        engine, loop, report = outcome
        telemetry = engine.telemetry
        assert telemetry.counter("serve.admitted").value == report.accepted
        assert telemetry.counter("serve.rejected").value == report.rejected
        assert telemetry.counter("control.refits").value == loop.refits
        assert telemetry.counter("control.decisions").value == len(loop.decision_log)
        assert telemetry.histogram("serve.latency_ms").count == report.accepted


class TestObservabilityBitIdentity:
    """Sampling and perf spans must be invisible to the simulation.

    Two identical workloads — one instrumented with a time-series store,
    an active perf recorder and a checkpoint cadence, one bare — must
    produce byte-identical results everywhere the run can be observed:
    the loadgen report, the latency stream, the telemetry records and
    the checkpoint digest.  This is the invariant that lets operators
    leave live observability on in production runs.
    """

    def _run(self, tmp_path, tag, *, instrumented):
        import json

        from repro.serve.checkpoint import CheckpointConfig
        from repro.telemetry import PerfRecorder, TimeSeriesStore, perf_session

        engine = ServerEngine(
            small_config(),
            initial_nodes=2,
            admission=AdmissionConfig(queue_limit_seconds=2.0),
            seed=11,
            telemetry=Telemetry(),
        )
        arrivals = poisson_arrivals(240.0, 120.0, seed=13)
        path = str(tmp_path / f"{tag}.ckpt")
        store = TimeSeriesStore() if instrumented else None
        session = ServeSession(
            engine,
            arrivals,
            checkpoint=CheckpointConfig(path, every_s=60.0),
            timeseries=store,
        )
        perf = PerfRecorder() if instrumented else None
        with perf_session(perf):
            report = session.run(120.0)
        if instrumented:
            assert store.samples_taken > 0, "sampling must actually run"
            assert perf.stage("engine.tick") is not None
        with open(path) as f:
            checkpoint = json.load(f)
        return report, engine, checkpoint

    def test_instrumented_run_is_bit_identical(self, tmp_path):
        bare_report, bare_engine, bare_ckpt = self._run(
            tmp_path, "bare", instrumented=False
        )
        inst_report, inst_engine, inst_ckpt = self._run(
            tmp_path, "inst", instrumented=True
        )
        assert inst_report.summary() == bare_report.summary()
        assert inst_report.latencies_ms == bare_report.latencies_ms

        def scrub(records):
            # The checkpoint event embeds the file path, which necessarily
            # differs between the two runs; everything else must match.
            return [
                {k: ("<path>" if k == "path" else v) for k, v in r.items()}
                for r in records
            ]

        assert scrub(inst_engine.telemetry.records()) == scrub(
            bare_engine.telemetry.records()
        )
        assert inst_ckpt["sha256"] == bare_ckpt["sha256"]
