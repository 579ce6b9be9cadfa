"""Tests for the asyncio HTTP transport (`repro serve` / `repro loadgen`).

Each test boots a real :class:`ServeApp` on a free localhost port inside
``asyncio.run`` and talks to it over actual sockets; wall-clock runs use
aggressive speedups so the whole module stays fast.
"""

import asyncio
import json
import math
import urllib.parse
from dataclasses import asdict

import numpy as np
import pytest

from repro.engine.simulator import EngineConfig
from repro.serve import (
    CheckpointConfig,
    RetryConfig,
    ServerEngine,
    ServeSession,
    poisson_arrivals,
)
from repro.serve.admission import AdmissionConfig
from repro.serve.http import ServeApp, run_loadgen_client
from repro.telemetry import Telemetry
from repro.telemetry.metrics import labeled
from tests.test_front_ends import paced_over_http


def make_engine(**kwargs):
    defaults = dict(
        engine_config=EngineConfig(max_nodes=4, saturation_rate_per_node=60.0),
        initial_nodes=2,
        telemetry=Telemetry(),
    )
    defaults.update(kwargs)
    return ServerEngine(**defaults)


def make_session(engine=None, arrivals=(), **kwargs):
    """A session over ``engine`` (a fresh one by default) for the app to pace."""
    return ServeSession(engine or make_engine(), np.asarray(arrivals, dtype=float), **kwargs)


async def http_request(port, method="GET", path="/", host="127.0.0.1", headers=None):
    reader, writer = await asyncio.open_connection(host, port)
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    writer.write(
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n{extra}"
        "Content-Length: 0\r\nConnection: close\r\n\r\n".encode("ascii")
    )
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = await reader.read()
    writer.close()
    await writer.wait_closed()
    return status, headers, body


async def start_app(app):
    """Run the app in a background task; returns once the port is bound.

    Binding goes through ``transport.bind_listener``, which retries
    transient ``EADDRINUSE``/``EADDRNOTAVAIL`` with backoff — the
    port-allocation flake class that used to kill parallel CI runs of
    this module.
    """
    ready = asyncio.Event()
    task = asyncio.create_task(app.run(on_ready=lambda _: ready.set()))
    await asyncio.wait_for(ready.wait(), timeout=10)
    return task


class TestBindRetry:
    """``ServeApp.run`` binds through the transport layer's one bind-retry
    policy (``transport.bind_listener``)."""

    @staticmethod
    def run_app(app):
        async def scenario():
            task = await start_app(app)
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_run_retries_transient_bind_failure(self, monkeypatch):
        """A port in TIME_WAIT (EADDRINUSE) is retried, then succeeds."""
        import errno
        import socket

        real_bind = socket.socket.bind
        attempts = {"n": 0}

        def flaky_bind(sock, address):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError(errno.EADDRINUSE, "address in use")
            return real_bind(sock, address)

        monkeypatch.setattr(socket.socket, "bind", flaky_bind)
        app = ServeApp(make_session(), virtual=True)
        self.run_app(app)
        assert attempts["n"] == 3
        assert app.port > 0

    def test_bind_gives_up_after_retries(self):
        from repro.errors import TransportError
        from repro.serve.transport import bind_listener

        busy = bind_listener()
        try:
            app = ServeApp(make_session(), virtual=True, port=busy.getsockname()[1])
            with pytest.raises(TransportError, match="could not bind"):
                asyncio.run(app.run())
        finally:
            busy.close()

    def test_real_misconfiguration_raises_immediately(self, monkeypatch):
        import errno
        import socket

        attempts = {"n": 0}

        def denied(sock, address):
            attempts["n"] += 1
            raise OSError(errno.EACCES, "permission denied")

        monkeypatch.setattr(socket.socket, "bind", denied)
        app = ServeApp(make_session(), virtual=True)
        with pytest.raises(PermissionError):
            asyncio.run(app.run())
        assert attempts["n"] == 1, "EACCES is not the retry class"


class TestAdminEndpoints:
    def test_healthz_and_metrics(self):
        async def scenario():
            app = ServeApp(
                make_session(), virtual=True, duration_s=120.0, linger_s=30.0
            )
            task = await start_app(app)
            # The virtual run finishes almost immediately; then it lingers.
            for _ in range(200):
                status, _, body = await http_request(app.port, path="/healthz")
                assert status == 200
                health = json.loads(body)
                if health["run_complete"]:
                    break
                await asyncio.sleep(0.05)
            assert health["run_complete"] and health["ticks"] == 120
            assert health["status"] == "ok"

            status, headers, body = await http_request(app.port, path="/metrics")
            assert status == 200
            assert headers["content-type"].startswith("text/plain")
            text = body.decode()
            assert "repro_serve_ticks_total 120" in text
            assert "# TYPE repro_serve_machines gauge" in text

            status, _, _ = await http_request(app.port, path="/unknown")
            assert status == 404

            status, _, _ = await http_request(
                app.port, method="POST", path="/shutdown"
            )
            assert status == 200
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_txn_round_trip_and_shed(self):
        async def scenario():
            # Tight admission: the node queue estimate exceeds the limit
            # as soon as a couple of requests stack up in one tick.
            engine = make_engine(
                initial_nodes=1,
                admission=AdmissionConfig(queue_limit_seconds=0.01),
            )
            app = ServeApp(
                make_session(engine), speedup=20.0, duration_s=600.0, linger_s=30.0
            )
            task = await start_app(app)

            results = await asyncio.gather(
                *(http_request(app.port, method="POST", path="/txn")
                  for _ in range(8))
            )
            statuses = sorted(status for status, _, _ in results)
            assert statuses[0] == 200, "an empty server must accept work"
            assert statuses[-1] == 503, "stacked submissions must shed"
            for status, headers, body in results:
                payload = json.loads(body)
                if status == 200:
                    assert payload["status"] == "ok"
                    assert payload["latency_ms"] > 0
                else:
                    assert payload["status"] == "shed"
                    assert int(headers["retry-after"]) == math.ceil(
                        payload["retry_after_s"]
                    )

            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    async def _health(self, app):
        status, _, body = await http_request(app.port, path="/healthz")
        assert status == 200
        return json.loads(body)

    def test_idle_forever_virtual_server_does_not_tick(self):
        """Without a duration, virtual time passes only when work is due:
        an idle server takes no tick and records no timeline row."""

        async def scenario():
            app = ServeApp(make_session(), virtual=True)
            task = await start_app(app)
            await asyncio.sleep(0.3)
            assert (await self._health(app))["ticks"] == 0
            assert app.engine.telemetry.timeline.ticks == []
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_forever_virtual_server_ticks_once_per_sequential_txn(self):
        async def scenario():
            app = ServeApp(make_session(), virtual=True)
            task = await start_app(app)
            for _ in range(20):
                status, _, _ = await asyncio.wait_for(
                    http_request(app.port, method="POST", path="/txn"), timeout=10
                )
                assert status == 200
            health = await self._health(app)
            assert health["ticks"] == 20
            assert health["accepted"] == health["completed"] == 20
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_concurrent_txns_share_ticks_on_a_forever_virtual_server(self):
        async def scenario():
            app = ServeApp(make_session(), virtual=True)
            task = await start_app(app)
            results = await asyncio.wait_for(
                asyncio.gather(
                    *(http_request(app.port, method="POST", path="/txn") for _ in range(8))
                ),
                timeout=10,
            )
            assert [status for status, _, _ in results] == [200] * 8
            assert 1 <= (await self._health(app))["ticks"] <= 8
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_txn_after_run_completes_is_draining(self):
        async def scenario():
            app = ServeApp(
                make_session(), virtual=True, duration_s=30.0, linger_s=30.0
            )
            task = await start_app(app)
            for _ in range(200):
                _, _, body = await http_request(app.port, path="/healthz")
                if json.loads(body)["run_complete"]:
                    break
                await asyncio.sleep(0.05)
            status, headers, body = await http_request(
                app.port, method="POST", path="/txn"
            )
            assert status == 503
            assert json.loads(body)["error"] == "server is draining"
            assert headers["retry-after"] == "1"
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())


class TestObservabilityEndpoints:
    def _observable_app(self, **kwargs):
        from repro.telemetry import PerfRecorder, TimeSeriesStore

        defaults = dict(
            virtual=True, duration_s=60.0, linger_s=30.0, perf=PerfRecorder()
        )
        defaults.update(kwargs)
        session = make_session(
            arrivals=poisson_arrivals(30.0, 60.0, seed=4), timeseries=TimeSeriesStore()
        )
        return ServeApp(session, **defaults)

    async def _wait_complete(self, app):
        for _ in range(200):
            _, _, body = await http_request(app.port, path="/healthz")
            health = json.loads(body)
            if health["run_complete"]:
                return health
            await asyncio.sleep(0.05)
        raise AssertionError("virtual run never completed")

    def test_timeseries_endpoint(self):
        async def scenario():
            app = self._observable_app()
            task = await start_app(app)
            await self._wait_complete(app)

            # Index: series names plus the rollup windows.
            status, headers, body = await http_request(
                app.port, path="/timeseries"
            )
            assert status == 200
            assert headers["content-type"].startswith("application/json")
            summary = json.loads(body)
            assert "serve.admitted" in summary["series"]
            assert summary["windows"] == [1, 10, 100]
            assert summary["samples"] == 60

            # Named series at a rollup tier.
            status, _, body = await http_request(
                app.port, path="/timeseries?name=serve.machines&window=10"
            )
            assert status == 200
            payload = json.loads(body)
            assert payload["name"] == "serve.machines"
            assert payload["window"] == 10
            assert len(payload["points"]) == 6
            assert all(
                set(p) == {"t", "min", "max", "mean", "last"}
                for p in payload["points"]
            )

            # Bad window values are 400s, not stack traces.
            for query in ("name=serve.machines&window=7",
                          "name=serve.machines&window=soon"):
                status, _, body = await http_request(
                    app.port, path=f"/timeseries?{query}"
                )
                assert status == 400
                assert "error" in json.loads(body)

            # Unknown series: valid query, empty data.
            status, _, body = await http_request(
                app.port, path="/timeseries?name=no.such.series"
            )
            assert status == 200
            assert json.loads(body)["points"] == []

            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_timeseries_404_when_store_disabled(self):
        async def scenario():
            app = ServeApp(
                make_session(), virtual=True, duration_s=10.0, linger_s=30.0
            )
            task = await start_app(app)
            status, _, body = await http_request(app.port, path="/timeseries")
            assert status == 404
            assert "timeseries" in json.loads(body)["error"]
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_dashboard_serves_html(self):
        async def scenario():
            app = self._observable_app()
            task = await start_app(app)
            status, headers, body = await http_request(app.port, path="/dashboard")
            assert status == 200
            assert headers["content-type"].startswith("text/html")
            text = body.decode()
            assert "<!doctype html>" in text.lower()
            # One request per refresh: the server-built operator view.
            assert text.count("fetch(") == 1 and 'fetch("/view")' in text
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_metrics_include_perf_families(self):
        import re

        from repro.telemetry import PerfRecorder, perf_session

        async def scenario():
            perf = PerfRecorder()
            # Instrumentation sites resolve the recorder through the
            # scoped default, exactly like `repro serve --perf` does.
            with perf_session(perf):
                app = self._observable_app(perf=perf)
                task = await start_app(app)
                await self._wait_complete(app)
                status, _, body = await http_request(app.port, path="/metrics")
                assert status == 200
                text = body.decode()
                assert "# TYPE repro_perf_engine_tick_ms histogram" in text
                match = re.search(r"repro_perf_engine_tick_ms_count (\d+)", text)
                assert match and int(match.group(1)) >= 60
                assert "repro_perf_overhead_ms" in text
                await http_request(app.port, method="POST", path="/shutdown")
                await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_metrics_time_http_requests(self):
        from repro.telemetry import PerfRecorder

        async def scenario():
            app = ServeApp(make_session(), virtual=True, perf=PerfRecorder())
            task = await start_app(app)
            status, _, _ = await asyncio.wait_for(
                http_request(app.port, method="POST", path="/txn"), timeout=10
            )
            assert status == 200
            _, _, body = await http_request(app.port, path="/metrics")
            text = body.decode()
            assert "# TYPE repro_perf_http_request_ms histogram" in text
            assert "repro_perf_http_request_ms_count 1" in text
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_healthz_reports_machine_hours_and_cost(self):
        async def scenario():
            app = self._observable_app(cost_per_machine_hour=1.5)
            task = await start_app(app)
            health = await self._wait_complete(app)
            # 2 machines for 60 simulated seconds = 1/30 machine-hour
            # (reported rounded to 6 decimal places).
            assert health["machine_hours"] == pytest.approx(
                2 * 60 / 3600.0, abs=1e-6
            )
            assert health["cost_dollars"] == pytest.approx(
                1.5 * health["machine_hours"], abs=1e-4
            )
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())


class TestOperatorView:
    """``GET /view`` is what the endpoints it summarises say at the same
    instant, on one engine and on a fleet."""

    async def _probe(self, app):
        """Once the run is complete: ``(view, healthz, perf records and
        overhead as the view was built, /timeseries means per series)``."""
        for _ in range(400):
            _, _, body = await http_request(app.port, path="/healthz")
            if json.loads(body)["run_complete"]:
                break
            await asyncio.sleep(0.05)
        _, _, body = await http_request(app.port, path="/healthz")
        health = json.loads(body)
        # The /view request's own http.request span lands after its reply.
        perf = (app.perf.records(), app.perf.overhead_ms())
        status, headers, body = await http_request(app.port, path="/view")
        assert status == 200 and headers["content-type"].startswith("application/json")
        view = json.loads(body)
        means = {}
        for name in view["series"]:
            _, _, body = await http_request(
                app.port, path=f"/timeseries?name={urllib.parse.quote(name)}"
            )
            means[name] = [point["mean"] for point in json.loads(body)["points"]]
        return view, health, perf, means

    def _check(self, app, view, health, perf, means):
        assert view["health"] == health
        assert view["perf"] == {"stages": perf[0], "overhead_ms": perf[1]}
        assert any(row["name"] == "engine.tick" for row in perf[0])
        assert 0 < len(view["series"]) <= 8 and view["series"] == means
        counters = app.engine.live_metrics.counters()
        assert sorted(view["tenants"]) == sorted(health["tenants"])
        for name, block in view["tenants"].items():
            served = counters[labeled("serve.tenant.served", tenant=name)].value
            assert block.pop("served") == served > 0
            assert block == health["tenants"][name]

    async def _serve(self, session, seconds):
        from repro.telemetry import PerfRecorder, perf_session

        perf = PerfRecorder()
        with perf_session(perf):
            app = ServeApp(session, virtual=True, duration_s=seconds, linger_s=30.0, perf=perf)
            task = await start_app(app)
            probed = await self._probe(app)
            _, _, body = await http_request(app.port, path="/view?series=serve.admitted")
            picked = json.loads(body)["series"]
            _, _, metrics = await http_request(app.port, path="/metrics")
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)
        return app, probed, picked, metrics.decode()

    def test_engine_view_matches_its_endpoints(self):
        from repro.telemetry import TimeSeriesStore
        from repro.tenancy import TenantAdmission, composite_arrivals

        registry = _tenant_registry()
        arrivals, indices = composite_arrivals(registry, 60.0, seed=6)
        session = make_session(
            make_engine(tenancy=TenantAdmission(registry)), arrivals,
            tenant_indices=indices, tenant_names=registry.names(),
            timeseries=TimeSeriesStore(),
        )
        app, probed, picked, _ = asyncio.run(self._serve(session, 60.0))
        self._check(app, *probed)
        assert "serve.machines" in probed[0]["series"]
        assert list(picked) == ["serve.admitted"]

    def test_fleet_view_and_metrics_read_the_fleet_registry(self):
        """Over a fleet whose workers keep telemetry the view and
        ``/metrics`` both read the fleet registry, so worker counters such
        as ``serve.ticks`` show."""
        from repro.serve import DistributedServeSession, WorkerSpec
        from repro.telemetry import TimeSeriesStore
        from repro.tenancy import TenantAdmission, composite_arrivals

        registry = _tenant_registry()
        arrivals, indices = composite_arrivals(registry, 30.0, seed=6)
        specs = [
            WorkerSpec(worker_id=i, seed=i, max_nodes=2, saturation_rate_per_node=60.0,
                       collect_telemetry=True)
            for i in range(2)
        ]
        with DistributedServeSession(
            specs, arrivals, mode="inproc", telemetry=Telemetry(),
            tenancy=TenantAdmission(registry), tenant_indices=indices,
            tenant_names=registry.names(), timeseries=TimeSeriesStore(),
        ) as session:
            app, probed, _, metrics = asyncio.run(self._serve(session, 30.0))
        self._check(app, *probed)
        assert "repro_serve_ticks_total " in metrics

    def test_view_without_tenancy_perf_or_store(self):
        view = ServeApp(make_session()).view()
        assert view["health"]["status"] == "ok"
        assert view["tenants"] is view["perf"] is view["series"] is None


class TestTenantHeader:
    def _tenant_engine(self):
        from repro.tenancy import TenantAdmission, TenantRegistry, TenantSpec

        registry = TenantRegistry(
            tenants=[
                TenantSpec(name="checkout", profile="poisson:rate=5"),
                TenantSpec(name="search", profile="poisson:rate=5"),
            ]
        )
        return make_engine(tenancy=TenantAdmission(registry))

    def test_known_tenant_is_tagged_on_the_outcome(self):
        async def scenario():
            app = ServeApp(
                make_session(self._tenant_engine()),
                speedup=20.0,
                duration_s=600.0,
                linger_s=30.0,
            )
            task = await start_app(app)
            status, _, body = await http_request(
                app.port,
                method="POST",
                path="/txn",
                headers={"X-Tenant": "checkout"},
            )
            assert status == 200
            assert json.loads(body)["tenant"] == "checkout"
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_unknown_tenant_is_403_and_counted(self):
        async def scenario():
            engine = self._tenant_engine()
            app = ServeApp(
                make_session(engine), speedup=20.0, duration_s=600.0, linger_s=30.0
            )
            task = await start_app(app)
            status, _, body = await http_request(
                app.port,
                method="POST",
                path="/txn",
                headers={"X-Tenant": "mallory"},
            )
            assert status == 403
            payload = json.loads(body)
            assert "mallory" in payload["error"]
            assert payload["tenants"] == ["checkout", "search"]
            counter = engine.telemetry.metrics.counter("serve.tenant.rejected")
            assert counter.value == 1.0
            # The request never reached admission.
            assert engine.admission.total == 0
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_tenant_header_without_tenancy_is_403(self):
        async def scenario():
            app = ServeApp(
                make_session(), speedup=20.0, duration_s=600.0, linger_s=30.0
            )
            task = await start_app(app)
            status, _, body = await http_request(
                app.port,
                method="POST",
                path="/txn",
                headers={"X-Tenant": "checkout"},
            )
            assert status == 403
            assert json.loads(body)["tenants"] == []
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_no_header_serves_default_tenant(self):
        async def scenario():
            app = ServeApp(
                make_session(self._tenant_engine()),
                speedup=20.0,
                duration_s=600.0,
                linger_s=30.0,
            )
            task = await start_app(app)
            status, _, body = await http_request(
                app.port, method="POST", path="/txn"
            )
            assert status == 200
            # Untagged traffic lands on the first registered tenant.
            assert json.loads(body)["tenant"] == "checkout"
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# One driver: the HTTP pacer and ServeSession.run are the same loop
# ----------------------------------------------------------------------
def _tenant_registry():
    from repro.tenancy import TenantRegistry, TenantSpec

    return TenantRegistry(
        tenants=[
            TenantSpec(name="checkout", profile="poisson:rate=14", weight=3),
            TenantSpec(name="search", profile="poisson:rate=10", weight=2),
            TenantSpec(name="batch", profile="poisson:rate=8", quota_rps=4.0),
        ]
    )


def _bare_case():
    return {}, poisson_arrivals(30.0, 60.0, seed=4), {}


def _retries_case():
    # Two overload bursts feed the retry client's backoff timers; the lull
    # between them lets every retry settle, so a checkpoint can be taken.
    engine = dict(initial_nodes=1, admission=AdmissionConfig(queue_limit_seconds=0.5))
    retry = RetryConfig(max_retries=3, backoff_base_s=1.0, budget_floor=500)
    arrivals = np.concatenate(
        [poisson_arrivals(90.0, 12.0, seed=5), poisson_arrivals(90.0, 12.0, seed=6, start_s=40.0)]
    )
    return engine, arrivals, dict(retry=retry, retry_seed=5)


def _tenants_case():
    from repro.tenancy import TenantAdmission, composite_arrivals

    registry = _tenant_registry()
    arrivals, indices = composite_arrivals(registry, 60.0, seed=6)
    engine = dict(tenancy=TenantAdmission(registry))
    return engine, arrivals, dict(tenant_indices=indices, tenant_names=registry.names())


#: name -> () -> (engine kwargs, arrivals, session kwargs); each call
#: builds fresh policy objects so twin sessions share nothing.
DRIVER_CASES = {"bare": _bare_case, "retries": _retries_case, "tenants": _tenants_case}


class TestOneDriver:
    """The engine-policy cases (retry client, tenants, a checkpoint
    written under HTTP); the same assertion over every front end —
    single engine, fleets — is ``tests/test_front_ends.py``'s
    ``test_http_pacer_equals_session_run``."""

    @pytest.mark.parametrize("case", sorted(DRIVER_CASES))
    def test_http_pacer_equals_session_run(self, case, tmp_path):
        def build(**extra):
            engine_kwargs, arrivals, session_kwargs = DRIVER_CASES[case]()
            return make_session(
                make_engine(**engine_kwargs), arrivals, **session_kwargs, **extra
            )

        reference = build()
        reference.run(60.0)
        expected = asdict(reference.loadgen.report)
        assert expected["offered"] and expected["duration_s"] == 60.0
        if case != "bare":
            assert expected["rejected"], "the case must exercise shedding"

        path = str(tmp_path / "http.ckpt")
        paced = build(checkpoint=CheckpointConfig(path, every_s=25.0))
        paced_over_http(paced, 60.0)
        assert asdict(paced.loadgen.report) == expected
        assert paced.checkpoints_written

        # The snapshot written under HTTP is an ordinary session snapshot.
        engine_kwargs, arrivals, session_kwargs = DRIVER_CASES[case]()
        resumed = ServeSession.resume(
            make_engine(**engine_kwargs), arrivals, path, **session_kwargs
        )
        assert 0.0 < resumed.clock.now < 60.0
        resumed.run(60.0 - resumed.clock.now)
        assert asdict(resumed.loadgen.report) == expected

    def test_same_instant_arrival_and_retry_fire_in_clock_insertion_order(self):
        """The one place the old embedded loadgen disagreed with the
        session: it fired a due retry before an arrival at the same
        instant.  Now the VirtualClock decides, and the arrival's event
        (armed at t=1.2) predates the retry's (scheduled at t=1.25)."""
        # One node that admits one request per tick and sheds the rest
        # with a 1 s hint; backoff 1 s then 2 s, no jitter.
        arrivals = np.array([0.2, 0.25, 1.2, 3.25])
        retry = RetryConfig(max_retries=3, backoff_base_s=1.0, jitter=0.0, budget_floor=50)

        def build():
            engine = make_engine(
                initial_nodes=1, admission=AdmissionConfig(queue_limit_seconds=0.01)
            )
            session = make_session(engine, arrivals, retry=retry)
            attempts = []
            client = session.loadgen.client
            attempt = client._attempt

            def spy(now, number, *args):
                attempts.append((now, number))
                attempt(now, number, *args)

            client._attempt = spy
            return session, attempts

        session, attempts = build()
        session.run(10.0)
        paced, paced_attempts = build()
        paced_over_http(paced, 10.0)

        # 0.25 is shed -> retry 1 at 1.25 is shed -> retry 2 at 3.25, tied
        # with the last arrival, which goes first and takes the tick's slot.
        assert attempts == [
            (0.2, 0), (0.25, 0), (1.2, 0), (1.25, 1), (3.25, 0), (3.25, 2), (7.25, 3)
        ]
        assert paced_attempts == attempts
        assert asdict(paced.loadgen.report) == asdict(session.loadgen.report)
        assert session.loadgen.report.retry_successes == 1


class TestEmbeddedLoadgen:
    def test_virtual_run_reports_offered_traffic(self):
        arrivals = poisson_arrivals(30.0, 60.0, seed=4)
        session = make_session(arrivals=arrivals)
        paced_over_http(session, 60.0)
        report = session.loadgen.report
        assert report.offered == len(arrivals)
        assert report.accepted == report.offered
        assert report.duration_s == pytest.approx(60.0)
        assert report.latency_percentile(50.0) > 0

    def test_forever_virtual_app_serves_the_schedule_then_parks(self):
        arrivals = poisson_arrivals(20.0, 30.0, seed=4)
        session = make_session(arrivals=arrivals)

        async def scenario():
            app = ServeApp(session, virtual=True)
            task = await start_app(app)
            for _ in range(200):
                if session.idle:
                    break
                await asyncio.sleep(0.01)
            report = session.loadgen.report
            assert report.offered == len(arrivals)
            assert report.conserved
            ticks = app.engine.ticks
            await asyncio.sleep(0.1)
            assert app.engine.ticks == ticks
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())


class TestGracefulDrain:
    def test_shutdown_drains_in_flight_and_rejects_new_work(self):
        async def scenario():
            # Slow wall-clock ticks: a submitted txn stays in flight
            # until the drain's final tick resolves it.
            app = ServeApp(
                make_session(), speedup=0.25, duration_s=600.0, linger_s=30.0
            )
            task = await start_app(app)

            in_flight = asyncio.create_task(
                http_request(app.port, method="POST", path="/txn")
            )
            for _ in range(100):
                if app.engine.pending_requests:
                    break
                await asyncio.sleep(0.02)
            assert app.engine.pending_requests == 1

            status, _, body = await http_request(
                app.port, method="POST", path="/shutdown"
            )
            assert status == 200
            assert json.loads(body)["draining"] is True

            # The in-flight transaction is resolved by the drain tick,
            # not dropped — and the client is not left hanging.
            status, _, body = await asyncio.wait_for(in_flight, timeout=10)
            assert status == 200
            assert json.loads(body)["status"] == "ok"
            await asyncio.wait_for(task, timeout=10)
            assert app.engine.pending_requests == 0

        asyncio.run(scenario())

    async def _until_pending(self, app):
        for _ in range(100):
            if app.engine.pending_requests:
                return
            await asyncio.sleep(0.02)
        raise AssertionError("the /txn never reached the engine")

    def test_wall_clock_txn_waits_for_its_paced_tick(self):
        """A submit wakes only a virtual pacer; the wall clock keeps its
        ``dt / speedup`` cadence (4 s here)."""

        async def scenario():
            app = ServeApp(make_session(), speedup=0.25, duration_s=600.0)
            task = await start_app(app)
            in_flight = asyncio.create_task(
                http_request(app.port, method="POST", path="/txn")
            )
            await self._until_pending(app)
            await asyncio.sleep(0.2)
            assert app.engine.pending_requests == 1
            assert app.engine.ticks == 0
            await http_request(app.port, method="POST", path="/shutdown")
            status, _, _ = await asyncio.wait_for(in_flight, timeout=10)
            assert status == 200
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_txn_in_flight_when_the_server_is_cancelled_gets_503(self):
        """No drain tick comes when ``run()`` is cancelled: the waiting
        client is told to retry, not left hanging, and the request stays
        accounted as in flight."""

        async def scenario():
            engine = make_engine()
            app = ServeApp(make_session(engine), speedup=0.25, duration_s=600.0)
            task = await start_app(app)
            in_flight = asyncio.create_task(
                http_request(app.port, method="POST", path="/txn")
            )
            await self._until_pending(app)
            task.cancel()
            status, headers, body = await asyncio.wait_for(in_flight, timeout=10)
            assert status == 503
            assert json.loads(body)["error"] == "server is draining"
            assert headers["retry-after"] == "1"
            with pytest.raises(asyncio.CancelledError):
                await task
            assert engine.admission.total == (
                engine.completed + engine.admission.rejected + engine.pending_requests
            )

        asyncio.run(scenario())

    def test_new_txn_during_drain_gets_503_retry_after(self):
        async def scenario():
            app = ServeApp(
                make_session(), speedup=0.25, duration_s=600.0, linger_s=30.0
            )
            task = await start_app(app)
            await http_request(app.port, method="POST", path="/shutdown")
            # The listener keeps answering while the drain completes;
            # new work is refused fast with a retry hint.
            try:
                status, headers, body = await http_request(
                    app.port, method="POST", path="/txn"
                )
            except (ConnectionError, OSError):
                pass  # drain already finished and closed the listener
            else:
                assert status == 503
                assert json.loads(body)["error"] == "server is draining"
                assert headers["retry-after"] == "1"
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_drain_accounts_for_every_request(self):
        async def scenario():
            engine = make_engine()
            app = ServeApp(
                make_session(engine), speedup=0.5, duration_s=600.0, linger_s=30.0
            )
            task = await start_app(app)
            submitted = [
                asyncio.create_task(
                    http_request(app.port, method="POST", path="/txn")
                )
                for _ in range(5)
            ]
            for _ in range(100):
                if engine.admission.total >= 5:
                    break
                await asyncio.sleep(0.02)
            await http_request(app.port, method="POST", path="/shutdown")
            results = await asyncio.wait_for(
                asyncio.gather(*submitted), timeout=10
            )
            await asyncio.wait_for(task, timeout=10)
            # Conservation across the drain: every submitted request got
            # a terminal answer (served or shed), none vanished.
            statuses = sorted(status for status, _, _ in results)
            assert all(status in (200, 503) for status in statuses)
            assert engine.admission.total == 5
            assert engine.completed + engine.admission.rejected == 5
            assert engine.pending_requests == 0

        asyncio.run(scenario())


class TestLoadgenClient:
    def test_open_loop_client_round_trip(self):
        async def scenario():
            app = ServeApp(
                make_session(), speedup=20.0, duration_s=600.0, linger_s=30.0
            )
            task = await start_app(app)
            arrivals = poisson_arrivals(8.0, 10.0, seed=6)
            report = await run_loadgen_client(
                f"http://127.0.0.1:{app.port}", arrivals, speedup=20.0
            )
            assert report.offered == len(arrivals)
            assert report.accepted > 0
            assert report.latency_percentile(50.0) > 0
            await http_request(app.port, method="POST", path="/shutdown")
            await asyncio.wait_for(task, timeout=10)

        asyncio.run(scenario())

    def test_client_survives_unreachable_server(self):
        async def scenario():
            arrivals = poisson_arrivals(5.0, 1.0, seed=1)
            report = await run_loadgen_client(
                "http://127.0.0.1:1", arrivals, speedup=100.0
            )
            assert report.offered == len(arrivals)
            assert report.accepted == 0
            assert report.rejected == report.offered

        asyncio.run(scenario())
