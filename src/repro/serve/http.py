"""Asyncio HTTP front-end for the serving layer (``repro serve``).

A deliberately dependency-free HTTP/1.1 server over ``asyncio`` streams
(the container bakes in no web framework, and the endpoints are tiny):

* ``POST /txn`` (``GET`` also accepted) — submit one transaction.  The
  response resolves on the next engine tick: ``200`` with the sampled
  latency, or ``503`` with a ``Retry-After`` header when admission
  control sheds the request.  With tenancy configured an ``X-Tenant``
  header attributes the request to a registry tenant; unknown names
  get ``403`` and a ``serve.tenant.rejected`` count.
* ``GET /healthz`` — liveness/readiness JSON (see
  :meth:`repro.serve.engine.ServerEngine.healthz`).
* ``GET /metrics`` — Prometheus text exposition of the engine's live
  registry (a fleet's: the edge's plus every worker's;
  :func:`repro.telemetry.export.render_prometheus`), plus the wall-clock
  perf stages when a recorder is attached.
* ``GET /timeseries?name=&window=`` — JSON points from the attached
  :class:`~repro.telemetry.timeseries.TimeSeriesStore` (no ``name``
  returns the series index).
* ``GET /view[?series=a,b]`` — the operator view (:meth:`ServeApp.view`):
  health, per-tenant rows, perf stages and sparkline series in one JSON
  document, which ``/dashboard`` and ``repro top`` both render.
* ``GET /dashboard`` — single-file HTML page polling ``/view``.
* ``POST /shutdown`` — begin a graceful drain: in-flight transactions
  are resolved by one final engine tick, new transactions get ``503``
  with ``Retry-After``, and the server exits once the drain completes
  (used by the CI smoke to exit cleanly after probing).

The app owns no serving state of its own: it paces a
:class:`~repro.serve.session.ServeSession` — the one owner of schedule →
engine → report, checkpoints and time-series sampling — one
:meth:`~repro.serve.session.ServeSession.step` per pacer iteration, as
an asyncio task in one of two modes:

* **wall** — one step every ``dt / speedup`` real seconds;
* **virtual** — zero sleeps between steps (one cooperative yield per
  step keeps request handling responsive).  With a duration the run
  races to its end in however long the steps take while the admin
  endpoints stay live.  Without one, virtual time is demand-driven: the
  pacer steps only while something is due (:attr:`ServeSession.idle`
  is false) and otherwise parks until a ``/txn`` or ``/shutdown``
  wakes it, so each ``/txn`` costs one tick, concurrent ones share it,
  and an idle server neither ticks nor spends CPU.

The session's embedded open-loop schedule (if any) therefore fires
exactly as it does under ``--no-http`` — that is how the CI smoke
load-tests a virtual run without a wall-clock client — and ``/txn``
requests join whatever the next step's tick resolves.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from typing import Callable, Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.engine import TxnOutcome
from repro.serve.loadgen import LoadgenReport
from repro.serve.session import ServeSession
from repro.serve.transport import bind_listener
from repro.telemetry.export import render_prometheus
from repro.telemetry.metrics import MetricsRegistry, tenant_rows
from repro.telemetry.perf import PerfRecorder, maybe_span, render_prometheus_perf

_MAX_HEADER_LINES = 64

#: The series the operator view shows unless asked for others: capacity,
#: cost, forecast error, tail latency, queueing and offered load.
_VIEW_SERIES = re.compile(r"machines$|machine_hours|forecast_ape|latency.*p99|queue|offered")
_VIEW_SERIES_CAP = 8


def _http_response(
    status: int,
    body: str,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    reason = {
        200: "OK",
        400: "Bad Request",
        403: "Forbidden",
        404: "Not Found",
        503: "Service Unavailable",
    }.get(status, "Error")
    payload = body.encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for key, value in (extra_headers or {}).items():
        headers.append(f"{key}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + payload


#: The reply to a ``/txn`` that arrives, or is still unresolved, once the
#: server stops admitting work.
_DRAINING = _http_response(
    503, json.dumps({"error": "server is draining"}),
    extra_headers={"Retry-After": "1"},
)


class ServeApp:
    """HTTP transport + wall/virtual pacing over a :class:`ServeSession`.

    Args:
        session: The serving session to pace; it owns the engine, the
            embedded arrival schedule and its report, the retry client,
            the checkpoint cadence and the time-series store (which
            backs ``GET /timeseries`` and the view's sparklines).
        host/port: Bind address (port 0 picks a free port).
        virtual: Step as fast as the event loop allows (no sleeps) —
            to the end of ``duration_s`` when one is given; without
            one, only while the session has something due, parking
            otherwise until a ``/txn`` or ``/shutdown`` arrives.
        speedup: Wall mode only — real seconds per step are
            ``dt / speedup``.
        duration_s: Stop stepping once this much engine time has passed
            (``None`` = serve until shut down).
        linger_s: Keep the admin endpoints alive this many real seconds
            after the run completes (so probes can land), unless
            ``/shutdown`` arrives first.
        perf: Optional wall-clock recorder rendered into ``/metrics``
            (``repro_perf_*`` families) and the view — never into debug
            bundles.
        cost_per_machine_hour: Dollar rate behind the ``cost_dollars``
            field of ``/healthz`` (0 hides the estimate).
    """

    def __init__(
        self,
        session: ServeSession,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        virtual: bool = False,
        speedup: float = 1.0,
        duration_s: Optional[float] = None,
        linger_s: float = 0.0,
        perf: Optional[PerfRecorder] = None,
        cost_per_machine_hour: float = 0.0,
    ) -> None:
        self.session = session
        self.engine = session.engine
        self.host = host
        self.port = port
        self.virtual = virtual
        self.speedup = max(float(speedup), 1e-9)
        self.duration_s = duration_s
        self.linger_s = max(float(linger_s), 0.0)
        self.perf = perf
        self.cost_per_machine_hour = float(cost_per_machine_hour)
        self.run_complete = False
        self.draining = False
        self._stop = asyncio.Event()
        self._wake = asyncio.Event()
        # Futures of the /txn requests awaiting a tick; the ticker
        # resolves any left with ``None`` when it stops.
        self._waiting: Set["asyncio.Future[Optional[TxnOutcome]]"] = set()
        self._server: Optional[asyncio.base_events.Server] = None

    # ------------------------------------------------------------------
    # Pacer
    # ------------------------------------------------------------------
    async def _ticker(self) -> None:
        session = self.session
        step = session.step
        dt = self.engine.dt_s
        on_demand = self.virtual and self.duration_s is None
        try:
            while not self._stop.is_set() and not self.draining:
                if self.duration_s is not None and (
                    self.engine.now >= self.duration_s - 1e-9
                ):
                    break
                if self.virtual:
                    if on_demand and session.idle:
                        # Nothing is due: park until a /txn or /shutdown.
                        self._wake.clear()
                        await self._wake.wait()
                        continue
                    await asyncio.sleep(0)
                else:
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(), timeout=dt / self.speedup
                        )
                    except asyncio.TimeoutError:
                        pass
                step()
            if self.engine.pending_requests:
                # Graceful drain: one final step resolves every admitted
                # in-flight request before the server stops answering.
                step()
            self.run_complete = True
            if self.linger_s > 0 and not self._stop.is_set() and not self.draining:
                try:
                    await asyncio.wait_for(self._stop.wait(), timeout=self.linger_s)
                except asyncio.TimeoutError:
                    pass
        finally:
            self.run_complete = True
            self._stop.set()
            # No tick will come for whatever is still waiting on one.
            for future in self._waiting:
                if not future.done():
                    future.set_result(None)

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Dict[str, str]]:
        line = await reader.readline()
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        request = {"method": parts[0].upper(), "path": parts[1]}
        content_length = 0
        for _ in range(_MAX_HEADER_LINES):
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            key = name.strip().lower()
            if key == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = 0
            elif key == "x-tenant":
                request["tenant"] = value.strip()
        if content_length > 0:
            await reader.readexactly(min(content_length, 1 << 20))
        return request

    async def _submit_txn(self, tenant: str = "") -> bytes:
        if self.draining or self.run_complete or self._stop.is_set():
            # Draining or stopped: no new work is admitted; fail fast
            # with a Retry-After instead of hanging the client.
            return _DRAINING
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Optional[TxnOutcome]]" = loop.create_future()

        def complete(outcome: TxnOutcome) -> None:
            if not future.done():
                future.set_result(outcome)

        tracer = self.engine.request_tracer
        trace = tracer.mint("http") if tracer is not None else None
        self.engine.submit(
            complete, now=self.engine.now, trace=trace, tenant=tenant
        )
        if self.virtual:
            self._wake.set()  # a parked pacer now has a tick to serve
        self._waiting.add(future)
        try:
            outcome = await future
        finally:
            self._waiting.discard(future)
        if outcome is None:  # the run ended before a tick resolved it
            return _DRAINING
        if outcome.accepted:
            payload: Dict[str, object] = {
                "status": "ok",
                "latency_ms": round(outcome.latency_ms, 3),
                "node": outcome.node_id,
                "submitted_at": outcome.submitted_at,
            }
            if outcome.trace_id is not None:
                payload["trace_id"] = outcome.trace_id
            if outcome.tenant:
                payload["tenant"] = outcome.tenant
            return _http_response(200, json.dumps(payload))
        shed: Dict[str, object] = {
            "status": "shed",
            "retry_after_s": outcome.retry_after_s,
            "node": outcome.node_id,
        }
        if outcome.trace_id is not None:
            shed["trace_id"] = outcome.trace_id
        body = json.dumps(shed)
        return _http_response(
            503, body,
            extra_headers={"Retry-After": str(math.ceil(outcome.retry_after_s))},
        )

    def _resolve_tenant(
        self, header: str
    ) -> Tuple[str, Optional[bytes]]:
        """Map an ``X-Tenant`` header to a registry tenant.

        Returns ``(tenant, None)`` on success (empty tenant when no
        header was sent) or ``("", 403 response)`` when the name is not
        in the registry — counted as ``serve.tenant.rejected``.
        """
        if not header:
            return "", None
        tenancy = self.engine.tenancy
        if tenancy is not None and header in tenancy.registry.names():
            return header, None
        tel = self.engine.telemetry
        if tel is not None:
            tel.counter("serve.tenant.rejected").inc()
        known = tenancy.registry.names() if tenancy is not None else []
        return "", _http_response(
            403,
            json.dumps({"error": f"unknown tenant {header!r}", "tenants": known}),
        )

    def _healthz(self) -> Dict[str, object]:
        health = dict(self.engine.healthz())
        health["run_complete"] = self.run_complete
        health["draining"] = self.draining
        health["machine_hours"] = round(self.engine.machine_hours, 6)
        if self.cost_per_machine_hour > 0:
            health["cost_dollars"] = round(
                self.engine.machine_hours * self.cost_per_machine_hour, 4
            )
        return health

    def _live_metrics(self) -> Optional[MetricsRegistry]:
        """The registry the time-series store samples (a fleet's edge
        plus worker registries), or ``None`` without telemetry."""
        return self.engine.live_metrics if self.engine.telemetry is not None else None

    def view(self, series: Optional[List[str]] = None) -> Dict[str, object]:
        """The operator view ``GET /view`` serves and both ``/dashboard``
        and ``repro top`` render.

        ``health`` is the ``/healthz`` document; ``tenants`` its tenant
        blocks, each with the tenant's ``serve.tenant.served`` count;
        ``perf`` the recorder's stage records and overhead; ``series``
        the raw-tier means of the named time series — by default those
        matching :data:`_VIEW_SERIES` (all of them when none match), at
        most :data:`_VIEW_SERIES_CAP`.  The last three are ``None`` when
        the server has no tenancy, recorder or store.
        """
        health = self._healthz()
        tenants = health.get("tenants")
        if tenants:
            metrics = self._live_metrics()
            served = tenant_rows(
                {name: c.value for name, c in metrics.counters().items()}
                if metrics is not None else {}
            )
            tenants = {
                name: {**block, "served": served.get(name, {}).get("served", 0)}
                for name, block in tenants.items()
            }
        store = self.session.timeseries
        if store is not None and series is None:
            names = store.names()
            series = ([n for n in names if _VIEW_SERIES.search(n)] or names)[:_VIEW_SERIES_CAP]
        perf = self.perf
        return {
            "health": health,
            "tenants": tenants or None,
            "perf": {"stages": perf.records(), "overhead_ms": perf.overhead_ms()}
            if perf is not None else None,
            "series": {name: [point["mean"] for point in store.query(name)] for name in series}
            if store is not None else None,
        }

    def _timeseries_response(self, query: str) -> bytes:
        timeseries = self.session.timeseries
        if timeseries is None:
            return _http_response(
                404, json.dumps({"error": "no timeseries store attached"})
            )
        params = parse_qs(query)
        name = params.get("name", [""])[0]
        if not name:
            return _http_response(200, json.dumps(timeseries.summary()))
        try:
            window = int(params.get("window", ["1"])[0])
        except ValueError:
            return _http_response(
                400, json.dumps({"error": "window must be an integer tick count"})
            )
        try:
            points = timeseries.query(name, window=window)
        except ConfigurationError as exc:
            return _http_response(400, json.dumps({"error": str(exc)}))
        return _http_response(
            200, json.dumps({"name": name, "window": window, "points": points})
        )

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await asyncio.wait_for(self._read_request(reader), timeout=30.0)
            if request is None:
                return
            with maybe_span("http.request", self.perf):
                response = await self._dispatch(request)
            writer.write(response)
            await writer.drain()
        except (asyncio.TimeoutError, asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover - peer already gone
                pass

    async def _dispatch(self, request: Dict[str, str]) -> bytes:
        """The response to one parsed request."""
        split = urlsplit(request["path"])
        path = split.path
        if path == "/healthz":
            response = _http_response(200, json.dumps(self._healthz()))
        elif path == "/metrics":
            metrics = self._live_metrics()
            text = (
                render_prometheus(metrics)
                if metrics is not None
                else "# no telemetry registry installed\n"
            )
            if self.perf is not None:
                text += render_prometheus_perf(self.perf)
            response = _http_response(
                200, text, content_type="text/plain; version=0.0.4"
            )
        elif path == "/timeseries":
            response = self._timeseries_response(split.query)
        elif path == "/dashboard":
            from repro.serve.dashboard import DASHBOARD_HTML

            response = _http_response(
                200, DASHBOARD_HTML, content_type="text/html; charset=utf-8"
            )
        elif path == "/txn":
            tenant, reject = self._resolve_tenant(request.get("tenant", ""))
            response = reject if reject is not None else (
                await self._submit_txn(tenant)
            )
        elif path == "/view":
            wanted = parse_qs(split.query).get("series", [""])[0]
            names = [name for name in wanted.split(",") if name] or None
            response = _http_response(200, json.dumps(self.view(names)))
        elif path == "/shutdown" and request["method"] == "POST":
            response = _http_response(
                200, json.dumps({"status": "stopping", "draining": True})
            )
            # Graceful drain: stop admitting, let the ticker resolve
            # in-flight requests with a final tick, then exit.  If
            # the run already completed (linger phase) there is
            # nothing in flight and the stop is immediate.
            self.draining = True
            self._wake.set()
            if self.run_complete:
                self._stop.set()
        else:
            response = _http_response(404, json.dumps({"error": "not found"}))
        return response

    # ------------------------------------------------------------------
    async def run(self, on_ready: Optional[Callable[["ServeApp"], None]] = None) -> None:
        """Serve until the run (plus linger) completes or /shutdown.

        The listener is bound with the transport layer's bind-retry
        policy (:func:`~repro.serve.transport.bind_listener`): a port
        still in TIME_WAIT is retried with backoff, a port that stays
        busy raises :class:`~repro.errors.TransportError`.
        """
        sock = bind_listener(self.host, self.port)
        try:
            self._server = await asyncio.start_server(self._handle, sock=sock)
        except BaseException:
            sock.close()
            raise
        self.port = sock.getsockname()[1]
        if on_ready is not None:
            on_ready(self)
        ticker = asyncio.create_task(self._ticker())
        try:
            await self._stop.wait()
        finally:
            ticker.cancel()
            try:
                await ticker
            except asyncio.CancelledError:
                pass
            self._server.close()
            await self._server.wait_closed()


# ----------------------------------------------------------------------
# Wall-clock HTTP load-generation client (``repro loadgen``)
# ----------------------------------------------------------------------
async def run_loadgen_client(
    url: str,
    arrivals: np.ndarray,
    *,
    speedup: float = 1.0,
    concurrency: int = 128,
) -> LoadgenReport:
    """Fire an arrival schedule at a running server over HTTP.

    Open-loop: request launch times follow the schedule (compressed by
    ``speedup``) regardless of completions, with a concurrency cap as
    the only safety valve.  Returns the aggregated report.
    """
    split = urlsplit(url if "//" in url else f"http://{url}")
    host = split.hostname or "127.0.0.1"
    port = split.port or 80
    report = LoadgenReport()
    semaphore = asyncio.Semaphore(concurrency)
    loop = asyncio.get_running_loop()

    async def one(when: float) -> None:
        async with semaphore:
            try:
                reader, writer = await asyncio.open_connection(host, port)
            except OSError:
                report.record(
                    TxnOutcome(False, 503, -1, when, when, 0.0, retry_after_s=1.0)
                )
                return
            try:
                writer.write(
                    b"POST /txn HTTP/1.1\r\nHost: %b\r\nContent-Length: 0\r\n"
                    b"Connection: close\r\n\r\n" % host.encode("ascii")
                )
                await writer.drain()
                status_line = await reader.readline()
                status = int(status_line.split()[1])
                retry_after = 0.0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode("latin-1").partition(":")
                    if name.strip().lower() == "retry-after":
                        retry_after = float(value.strip())
                body = await reader.read()
                latency_ms = 0.0
                if status == 200:
                    try:
                        latency_ms = float(json.loads(body).get("latency_ms", 0.0))
                    except (ValueError, AttributeError):
                        latency_ms = 0.0
                report.record(
                    TxnOutcome(
                        accepted=status == 200,
                        status=status,
                        node_id=-1,
                        submitted_at=when,
                        completed_at=when,
                        latency_ms=latency_ms,
                        retry_after_s=retry_after,
                    )
                )
            except (OSError, ValueError, IndexError, asyncio.IncompleteReadError):
                report.record(
                    TxnOutcome(False, 503, -1, when, when, 0.0, retry_after_s=1.0)
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except ConnectionError:  # pragma: no cover
                    pass

    start = loop.time()
    tasks = []
    for when in np.asarray(arrivals, dtype=np.float64):
        delay = float(when) / max(speedup, 1e-9) - (loop.time() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(one(float(when))))
    if tasks:
        await asyncio.gather(*tasks)
    report.duration_s = float(arrivals[-1]) if len(arrivals) else 0.0
    return report
