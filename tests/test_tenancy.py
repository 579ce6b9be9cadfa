"""Tests for repro.tenancy: specs, quotas, composite workloads, and the
tenant-tagged serve path.

The two load-bearing guarantees pinned here:

* **bit-identity** — a single unthrottled default tenant leaves the
  serve path bit-identical to the untagged code (list equality on every
  sampled latency), because tenancy adds zero RNG draws;
* **per-tenant conservation** — ``offered = served + shed + errored +
  in-flight`` holds exactly for every tenant and the per-tenant buckets
  sum to the fleet identity, under arbitrary quota/priority mixes
  (a Hypothesis property).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.simulator import EngineConfig
from repro.errors import ConfigurationError
from repro.serve import (
    BreakerConfig,
    BrownoutConfig,
    DistributedServeSession,
    ServeSession,
    ServerEngine,
    WorkerSpec,
    poisson_arrivals,
)
from repro.serve.admission import AdmissionConfig
from repro.telemetry import Telemetry
from repro.telemetry.metrics import labeled
from repro.telemetry.slo import SLOConfig, SLOMonitor
from repro.tenancy import (
    DEFAULT_TENANT,
    TenantAdmission,
    TenantRegistry,
    TenantSpec,
    TokenBucket,
    build_registry,
    composite_arrivals,
)

SAT = 12.0


def small_config(**kwargs):
    defaults = dict(max_nodes=4, saturation_rate_per_node=SAT, db_size_kb=5 * 1024)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def spec(name="a", **kwargs):
    defaults = dict(profile="poisson:rate=5")
    defaults.update(kwargs)
    return TenantSpec(name=name, **defaults)


# ----------------------------------------------------------------------
# Specs and registry
# ----------------------------------------------------------------------
class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TenantSpec(name="", profile="poisson:rate=1")
        with pytest.raises(ConfigurationError):
            spec(name='bad"name')  # label-unsafe
        with pytest.raises(ConfigurationError):
            spec(weight=0)
        with pytest.raises(ConfigurationError):
            spec(quota_rps=0.0)
        with pytest.raises(ConfigurationError):
            spec(quota_burst=0.5)
        with pytest.raises(ConfigurationError):
            spec(slo_objective=1.0)
        with pytest.raises(ConfigurationError):
            spec(shed_slo=1.5)

    def test_effective_burst_defaults_to_two_seconds_of_refill(self):
        assert spec(quota_rps=10.0).effective_burst == 20.0
        assert spec(quota_rps=0.2).effective_burst == 1.0  # floor of one
        assert spec(quota_rps=10.0, quota_burst=5.0).effective_burst == 5.0
        assert spec().effective_burst is None


class TestTenantRegistry:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ConfigurationError):
            TenantRegistry(tenants=[])
        with pytest.raises(ConfigurationError):
            build_registry([spec("a"), spec("a")])

    def test_weighted_fair_aggregate_quota(self):
        registry = TenantRegistry(
            tenants=[
                spec("pinned", quota_rps=10.0),
                spec("heavy", weight=3),
                spec("light", weight=1),
            ],
            aggregate_quota_rps=50.0,
        )
        # Explicit quota wins; the remaining 40 rps pool splits 3:1.
        assert registry.quota_for("pinned") == 10.0
        assert registry.quota_for("heavy") == pytest.approx(30.0)
        assert registry.quota_for("light") == pytest.approx(10.0)

    def test_no_quota_means_unthrottled(self):
        registry = build_registry([spec("a"), spec("b")])
        assert registry.quota_for("a") is None
        with pytest.raises(ConfigurationError):
            registry.quota_for("nope")

    def test_json_roundtrip_and_unknown_fields(self, tmp_path):
        registry = TenantRegistry(
            tenants=[spec("a", weight=2, quota_rps=3.0), spec("b")],
            aggregate_quota_rps=9.0,
        )
        path = tmp_path / "spec.json"
        registry.save(path)
        loaded = TenantRegistry.load(path)
        assert loaded == registry

        with pytest.raises(ConfigurationError):
            TenantRegistry.load(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text('{"tenants": [{"name": "a", "profile": "p", "typo": 1}]}')
        with pytest.raises(ConfigurationError, match="typo"):
            TenantRegistry.load(bad)
        bad.write_text("not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            TenantRegistry.load(bad)


# ----------------------------------------------------------------------
# Token buckets and tenant admission
# ----------------------------------------------------------------------
class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0, burst=3.0)
        assert [bucket.admit(0.0) for _ in range(3)] == [None, None, None]
        retry = bucket.admit(0.0)
        assert retry == pytest.approx(0.5)  # one token at 2/s
        assert bucket.admit(0.5) is None  # exactly refilled
        # Tokens cap at the burst, idle time does not bank extra.
        for _ in range(3):
            bucket.admit(100.0)
        assert bucket.admit(100.0) is not None

    def test_zero_rate_sheds_forever(self):
        bucket = TokenBucket(rate=0.0, burst=1.0)
        assert bucket.admit(0.0) is None
        assert bucket.admit(1e9) == float("inf")

    def test_clock_never_rewinds(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        bucket.admit(10.0)
        bucket.admit(5.0)  # out-of-order timestamp must not refill
        assert bucket.last_t == 10.0

    def test_state_roundtrip(self):
        bucket = TokenBucket(rate=2.0, burst=4.0)
        bucket.admit(3.0)
        twin = TokenBucket(rate=2.0, burst=4.0)
        twin.load_state_dict(bucket.state_dict())
        assert twin.tokens == bucket.tokens and twin.last_t == bucket.last_t


class TestTenantAdmission:
    def test_quota_charging_and_counters(self):
        registry = build_registry([spec("free"), spec("capped", quota_rps=1.0)])
        admission = TenantAdmission(registry)
        assert admission.quota_admit("free", 0.0) is None
        # burst = max(1, 2*rate) = 2 tokens, then sheds with retry hints.
        assert admission.quota_admit("capped", 0.0) is None
        assert admission.quota_admit("capped", 0.0) is None
        assert admission.quota_admit("capped", 0.0) == pytest.approx(1.0)
        assert admission.summary()["capped"] == {
            "offered": 3, "quota_shed": 1, "brownout_shed": 0,
        }
        with pytest.raises(KeyError):
            admission.quota_admit("ghost", 0.0)

    def test_brownout_sheddable_below_max_weight(self):
        admission = TenantAdmission(
            build_registry([spec("gold", weight=2), spec("bronze")])
        )
        assert admission.names == ("gold", "bronze")
        assert admission.sheddable.tolist() == [False, True]
        # A uniform-weight registry never sheds whole tenants.
        uniform = TenantAdmission(build_registry([spec("a"), spec("b")]))
        assert not uniform.sheddable.any()

    def test_state_roundtrip(self):
        registry = build_registry([spec("capped", quota_rps=1.0)])
        admission = TenantAdmission(registry)
        for _ in range(5):
            admission.quota_admit("capped", 0.0)
        twin = TenantAdmission(registry)
        twin.load_state_dict(admission.state_dict())
        assert twin.summary() == admission.summary()
        assert twin.quota_admit("capped", 0.0) == admission.quota_admit(
            "capped", 0.0
        )


# ----------------------------------------------------------------------
# Composite workloads
# ----------------------------------------------------------------------
class TestCompositeArrivals:
    def test_merged_sorted_with_parallel_indices(self):
        registry = build_registry(
            [spec("a", profile="poisson:rate=3"), spec("b", profile="poisson:rate=2")]
        )
        times, indices = composite_arrivals(registry, 200.0, seed=5)
        assert len(times) == len(indices)
        assert np.all(np.diff(times) >= 0)
        assert set(np.unique(indices)) == {0, 1}
        # Each tenant's sub-schedule is its own profile, bit-for-bit.
        own = poisson_arrivals(3.0, 200.0, seed=5)
        assert np.array_equal(times[indices == 0], own)

    def test_tenant_zero_uses_bare_seed(self):
        # The single-default-tenant composite equals the untagged
        # schedule exactly — the bit-identity anchor.
        registry = TenantRegistry.default("poisson:rate=4")
        times, indices = composite_arrivals(registry, 300.0, seed=9)
        assert np.array_equal(times, poisson_arrivals(4.0, 300.0, seed=9))
        assert np.all(indices == 0)

    def test_arrival_seed_pins_the_stream(self):
        pinned = build_registry([spec("a", arrival_seed=77)])
        times_a, _ = composite_arrivals(pinned, 100.0, seed=1)
        times_b, _ = composite_arrivals(pinned, 100.0, seed=2)
        assert np.array_equal(times_a, times_b)


# ----------------------------------------------------------------------
# SLO monitor label keys satellite
# ----------------------------------------------------------------------
class TestSLOMonitorLabels:
    def test_metric_and_monitor_keys_are_canonical(self):
        monitor = SLOMonitor(SLOConfig(), labels={"tenant": "checkout"})
        assert (
            monitor.metric_key("slo.fast_burn")
            == labeled("slo.fast_burn", tenant="checkout")
        )
        plain = SLOMonitor(SLOConfig())
        assert plain.metric_key("slo.fast_burn") == "slo.fast_burn"

    def test_labelled_monitor_writes_labelled_gauges_and_events(self):
        tel = Telemetry()
        config = SLOConfig(
            objective=0.9, fast_window_s=10.0, slow_window_s=10.0,
            burn_threshold=1.0,
        )
        monitor = SLOMonitor(config, tel, labels={"tenant": "t1"})
        monitor.observe(1.0, good=0, bad=50)
        key = labeled("slo.fast_burn", tenant="t1")
        assert tel.gauge(key).value > 0
        alerts = [
            e for e in tel.timeline.events if e["type"] == "slo_alert"
        ]
        assert alerts and alerts[0]["tenant"] == "t1"


# ----------------------------------------------------------------------
# Tenant-tagged serve path
# ----------------------------------------------------------------------
def run_session(registry=None, *, duration=600.0, seed=3, rate=None, **engine_kwargs):
    engine = ServerEngine(
        small_config(),
        initial_nodes=2,
        slot_seconds=60.0,
        admission=AdmissionConfig(queue_limit_seconds=5.0),
        seed=seed,
        tenancy=TenantAdmission(registry) if registry is not None else None,
        **engine_kwargs,
    )
    if registry is not None:
        arrivals, indices = composite_arrivals(registry, duration, seed=seed)
        session = ServeSession(
            engine, arrivals, tenant_indices=indices,
            tenant_names=registry.names(),
        )
    else:
        arrivals = poisson_arrivals(rate, duration, seed=seed)
        session = ServeSession(engine, arrivals)
    report = session.run(duration)
    return engine, session, report


class TestServePathTenancy:
    def test_single_default_tenant_is_bit_identical_to_untagged(self):
        rate = 8.0
        registry = TenantRegistry.default(f"poisson:rate={rate:g}")
        _, _, tagged = run_session(registry)
        _, _, plain = run_session(None, rate=rate)
        # List equality, not statistics: same arrivals, same admission
        # verdicts, same sampled latency for every single request.
        assert tagged.latencies_ms == plain.latencies_ms
        assert (tagged.offered, tagged.accepted, tagged.rejected) == (
            plain.offered, plain.accepted, plain.rejected,
        )

    def test_quota_shed_conservation_and_labelled_counters(self):
        registry = build_registry(
            [spec("free", profile="poisson:rate=5"),
             spec("capped", profile="poisson:rate=5", quota_rps=2.0)]
        )
        tel = Telemetry()
        engine, _, report = run_session(registry, telemetry=tel)
        assert report.tenants_consistent()
        for line in report.tenant_conservation_lines():
            assert line.endswith("(exact)")
        capped = report.tenants["capped"]
        assert capped["rejected"] > 0
        shed_counter = tel.counter(
            labeled("serve.tenant.quota_shed", tenant="capped")
        )
        assert shed_counter.value == engine.tenancy.quota_shed["capped"]
        assert engine.healthz()["tenants"]["capped"]["quota_shed"] > 0

    def test_per_tenant_slo_monitors_use_spec_objectives(self):
        registry = build_registry(
            [spec("tight", latency_slo_ms=1.0, slo_objective=0.5),
             spec("loose", latency_slo_ms=60_000.0)]
        )
        engine, _, _ = run_session(registry)
        tight = engine.tenant_slos["tight"].status()
        loose = engine.tenant_slos["loose"].status()
        assert tight["objective"] == 0.5
        assert tight["good_fraction"] < loose["good_fraction"]
        assert loose["good_fraction"] == pytest.approx(1.0)

    def test_report_renders_tenant_sections(self):
        registry = build_registry(
            [spec("a", profile="poisson:rate=4"), spec("b", profile="poisson:rate=2")]
        )
        _, session, report = run_session(registry)
        text = session.format_report()
        assert 'conservation{tenant="a"}' in text
        assert "SLO[a]" in text and "SLO[b]" in text


class TestEdgeTenancy:
    """Tenant policy at the edge of a fleet (``Fleet(tenancy=...)``)."""

    @staticmethod
    def run_with_a_dead_worker(brownout):
        registry = build_registry(
            [spec("gold", profile="poisson:rate=30", weight=2),
             spec("bronze", profile="poisson:rate=30")]
        )
        times, indices = composite_arrivals(registry, 40.0, seed=5)
        workers = [
            WorkerSpec(
                worker_id=wid, initial_nodes=2, max_nodes=2, seed=11 + wid,
                saturation_rate_per_node=40.0, db_size_kb=5 * 1024.0,
            )
            for wid in range(2)
        ]
        with DistributedServeSession(
            workers, times, mode="inproc", seed=3, brownout=brownout,
            breaker=BreakerConfig(miss_threshold=2, open_seconds=60.0),
            tenancy=TenantAdmission(registry),
            tenant_indices=indices, tenant_names=registry.names(),
        ) as session:
            session.run(10.0)
            session.workers[1].kill()
            report = session.run(32.0)
            health = session.healthz()
            assert report.conserved and report.tenants_consistent()
            assert all(line.endswith("(exact)") for line in report.tenant_conservation_lines())
            assert health["status"] == "degraded" and health["breakers"]["1"] == "open"
            return session.engine, report, health

    def test_no_brownout_config_sheds_no_tenant(self):
        """``brownout=None`` disables brownout at the edge: a dead worker
        opens its breaker, but no tenant is shed for its weight and
        nothing reports a brownout nobody configured."""
        fleet, report, health = self.run_with_a_dead_worker(None)
        assert fleet.tenancy.brownout_shed == {"gold": 0, "bronze": 0}
        assert report.brownout_shed == 0 and report.rejected == 0
        assert not fleet.brownout_active and not health["brownout_active"]

    def test_brownout_config_sheds_the_light_tenant(self):
        fleet, report, health = self.run_with_a_dead_worker(BrownoutConfig())
        assert fleet.brownout_active and health["brownout_active"]
        assert fleet.tenancy.brownout_shed["gold"] == 0
        assert fleet.tenancy.brownout_shed["bronze"] == report.brownout_shed > 0
        assert report.tenants["bronze"]["rejected"] == report.brownout_shed


# ----------------------------------------------------------------------
# Property: per-tenant conservation under random quota/priority mixes
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(
    quotas=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.5, max_value=6.0)),
        min_size=1, max_size=4,
    ),
    weights=st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_per_tenant_conservation_property(quotas, weights, seed):
    """offered = served + shed + errored + in-flight holds exactly per
    tenant, and the per-tenant buckets sum to the fleet identity, for
    arbitrary quota/weight mixes."""
    specs = [
        TenantSpec(
            name=f"t{i}",
            profile=f"poisson:rate={2 + i}",
            weight=weights[i % len(weights)],
            quota_rps=quota,
        )
        for i, quota in enumerate(quotas)
    ]
    registry = build_registry(specs)
    engine = ServerEngine(
        small_config(),
        initial_nodes=1,
        slot_seconds=60.0,
        admission=AdmissionConfig(queue_limit_seconds=2.0),
        seed=seed % 97,
        tenancy=TenantAdmission(registry),
    )
    duration = 240.0
    arrivals, indices = composite_arrivals(registry, duration, seed=seed)
    session = ServeSession(
        engine, arrivals, tenant_indices=indices, tenant_names=registry.names()
    )
    report = session.run(duration)

    assert report.tenants_consistent()
    totals = {"offered": 0, "accepted": 0, "rejected": 0, "errored": 0}
    for name in registry.names():
        bucket = report.tenants.get(name, {})
        in_flight = report.tenant_in_flight(name)
        assert bucket.get("offered", 0) == (
            bucket.get("accepted", 0)
            + bucket.get("rejected", 0)
            + bucket.get("errored", 0)
            + in_flight
        )
        for key in totals:
            totals[key] += bucket.get(key, 0)
    assert totals["offered"] == report.offered
    assert totals["accepted"] == report.accepted
    assert totals["rejected"] == report.rejected
    assert totals["errored"] == report.errored
