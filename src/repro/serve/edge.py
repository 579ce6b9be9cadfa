"""The api/edge process of the distributed serving path.

:class:`Fleet` is the edge's *engine*: it owns the workers, the
per-worker circuit breakers, the edge RNG, edge admission / tenancy /
SLOs and the wire, and speaks the engine protocol of
:mod:`repro.serve.session` — so :class:`DistributedServeSession` is a
:class:`~repro.serve.session.ServeSession` over a ``Fleet`` plus the
fleet's lifecycle: one arrival driver, one tick loop, one checkpoint
format and one resume path for a process and for a fleet.  Each worker
process owns one :class:`~repro.serve.engine.ServerEngine` shard behind
the strict request/reply protocol of :mod:`repro.serve.worker`:

* :meth:`Fleet.submit_batch` routes a burst of arrivals in one draw
  (capacity-weighted over the advertised machine counts, open breakers
  zeroed out), runs the engines' admission policy chain
  (:mod:`repro.serve.admission`) over workers and their advertised queues,
  sinks its rejects and keeps the rest per worker and per call — their
  times, tenants, trace ids and sink;
* :meth:`Fleet.tick` posts one ``step`` request (each worker's arrival
  times) to every worker *before* collecting any reply — the shards
  compute their tick concurrently, but replies are folded in worker
  order, each call's rows of a reply into one
  :class:`~repro.serve.engine.OutcomeBatch` with the columns the edge
  kept, so the aggregate report is deterministic regardless of process
  scheduling;
* a worker whose transport breaks mid-tick — or whose reply is refused,
  malformed or answers a different number of rows than were posted —
  turns its whole batch into terminal 500s (reason ``"connection"``)
  and feeds its breaker: the conservation identity ``offered = served +
  shed + errored + in-flight`` stays exact through a worker crash,
  which the resilience tests pin;
* a per-tick probe round (worker alive?) drives the breakers of the
  single-process engine's :class:`~repro.serve.resilience.NodeHealthMonitor`,
  one per worker, and a configured brownout is engaged while any breaker
  is open — with the engine's telemetry;
* a fleet snapshot is the ``engine`` section of an ordinary
  ``repro-serve-checkpoint/1`` document — the edge state plus every
  worker's engine snapshot, captured over the wire — and a resumed
  fleet continues **bit-identically**;
* each ``step`` reply of a worker that keeps telemetry carries its
  metrics and events since the last reply, folded into that worker's
  view at the edge: :attr:`Fleet.live_metrics` is the fleet's registry
  while the run is live, and :meth:`Fleet.collect_telemetry` folds the
  views into the edge handle at its end;
* request traces stitch across the boundary: the edge mints the
  globally-unique trace ids, workers record their span trees against
  them, and :meth:`Fleet.collect_telemetry` merges every worker's spans
  into the edge handle — re-parenting each worker ``request`` span under
  the edge span that dispatched it.

``docs/SERVING.md`` has the process diagram and failure semantics.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, TransportError
from repro.serve.admission import CONNECTION, REASONS, AdmissionConfig, AdmissionController
from repro.serve.checkpoint import CheckpointConfig
from repro.serve.engine import (
    AdmissionBatch, OutcomeBatch, OutcomeLedger, OutcomeSink, ServerEngine,
)
from repro.serve.loadgen import LoadgenReport
from repro.serve.resilience import (
    BreakerConfig,
    BrownoutConfig,
    NodeHealthMonitor,
    RetryConfig,
    _rng_state,
    _set_rng_state,
)
from repro.serve.session import ServeSession
from repro.serve.transport import (
    DEFAULT_TIMEOUT_S,
    PROTOCOL_VERSION,
    accept_transport,
    bind_listener,
)
from repro.serve.worker import (
    _SPAWN,
    STEP_REPLY_COLUMNS,
    WorkerHandle,
    WorkerSpec,
    join_columns,
    wire_column,
    worker_main,
)
from repro.telemetry import Span, Telemetry
from repro.telemetry.merge import DeltaAccumulator, build_fleet_view, fold_view, merge_spans
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.perf import PerfRecorder, maybe_span
from repro.telemetry.slo import SLOConfig
from repro.telemetry.timeseries import TimeSeriesStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tenancy.admission import TenantAdmission

_SPAN_STATUS = {200: "ok", 500: "error"}  # anything else: "shed"

#: What one ``submit_batch`` call forwarded to one worker: the rows'
#: times, tenant indices (or ``None``) and the names they index, edge
#: trace ids (or ``None``) and the call's sink.
_Call = Tuple[
    np.ndarray, Optional[np.ndarray], Sequence[str], Optional[np.ndarray], Optional[OutcomeSink]
]


def _check_protocol(who: str, hello: Dict[str, object]) -> None:
    """Refuse a peer whose hello names another wire (or none at all)."""
    theirs = hello.get("protocol")
    if theirs != PROTOCOL_VERSION:
        raise TransportError(
            f"{who} speaks wire protocol {theirs!r}; this edge speaks {PROTOCOL_VERSION!r}"
        )


class Fleet:
    """The edge's engine: worker shards driven in lock step.

    Args:
        specs: One :class:`~repro.serve.worker.WorkerSpec` per worker.
        mode: ``"pipe"`` (spawned processes over multiprocessing pipes),
            ``"tcp"`` (spawned processes dialing a localhost listener) or
            ``"inproc"`` (worker servers driven in-process — identical
            protocol, no process boundary; the deterministic tests).
        edge_queue_limit_s: Optional coarse edge admission bound against
            each worker's *advertised* queue estimate (one tick stale);
            workers always run their own exact admission behind it.
        breaker: Per-worker circuit breaker policy.
        brownout: Degradation policy, engaged while any breaker is open
            (:attr:`brownout_active`); with ``None`` the edge never
            browns out, whatever the breakers say.
        slo: Edge-side SLO burn-rate monitoring over the aggregate
            good/bad stream (sheds and 500s count as bad).
        low_priority_fraction: Probability a request is minted
            low-priority (sheddable under brownout); drawn from the edge
            RNG only when positive, so 0.0 costs no draws.
        trace_requests: Mint trace contexts at the edge and record an
            ``edge.request`` span per forwarded request (requires
            ``telemetry``; workers record their side when their spec
            enables tracing).
        telemetry: Edge telemetry handle; the workers' telemetry merges
            into it via :meth:`collect_telemetry`.
        seed: Edge routing/priority RNG seed (independent of the worker
            engine RNGs).
        timeout_s: Edge-side per-reply transport timeout.
        tenancy: Optional :class:`~repro.tenancy.TenantAdmission`.  The
            *edge* owns tenant policy in the distributed split: quotas
            and tenant-level brownout shedding run here before routing
            is acted on, and per-tenant labelled SLO monitors run over
            the folded replies.  Tags never leave the edge.
        perf: Optional wall-clock recorder; :meth:`tick` records an
            ``edge.dispatch`` span.  Falls back to the process default
            installed by ``repro.telemetry.perf``.
    """

    dt_s = 1.0  # every worker engine ticks at the EngineConfig default
    controller = None  # the workers run their own control loops
    #: The edge mints trace ids itself, after routing; the loadgen none.
    request_tracer = None
    #: A worker can die with requests on board: print the conservation line.
    detects_failures = True

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        *,
        mode: str = "pipe",
        edge_queue_limit_s: Optional[float] = None,
        breaker: Optional[BreakerConfig] = None,
        brownout: Optional[BrownoutConfig] = None,
        slo: Optional[SLOConfig] = None,
        low_priority_fraction: float = 0.0,
        trace_requests: bool = False,
        telemetry: Optional[Telemetry] = None,
        seed: int = 0,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        tenancy: Optional["TenantAdmission"] = None,
        perf: Optional[PerfRecorder] = None,
    ) -> None:
        if not specs:
            raise ConfigurationError("need at least one worker spec")
        ids = [spec.worker_id for spec in specs]
        if ids != list(range(len(specs))):
            raise ConfigurationError(
                f"worker ids must be 0..{len(specs) - 1} in order, got {ids}"
            )
        if not 0.0 <= low_priority_fraction <= 1.0:
            raise ConfigurationError("low_priority_fraction must be in [0, 1]")
        if trace_requests and telemetry is None:
            raise ConfigurationError("trace_requests needs edge telemetry")
        self.mode = mode
        self.timeout_s = timeout_s
        self.workers: List[WorkerHandle] = [
            WorkerHandle(spec, mode, timeout_s=timeout_s) for spec in specs
        ]
        self._rng = np.random.default_rng(seed)
        self.now = 0.0
        self._tick_index = 0
        self.low_priority_fraction = low_priority_fraction

        self.admission = AdmissionController(
            AdmissionConfig(queue_limit_seconds=edge_queue_limit_s)
            if edge_queue_limit_s is not None
            else None,
            telemetry,
        )
        self.edge_queue_limit_s = edge_queue_limit_s
        self.brownout = brownout
        self.brownout_active = False
        #: One breaker per worker, the engine's per-node machinery.
        self.health = NodeHealthMonitor(breaker or BreakerConfig(), telemetry)
        for wid in ids:
            self.health.breaker(wid)
        self.ledger = OutcomeLedger(slo, tenancy, telemetry)
        self.slo_monitor = self.ledger.slo_monitor
        self.tenancy = tenancy
        self.tenant_slos = self.ledger.tenant_slos
        #: Machine-seconds the workers advertised, integrated over ticks.
        self.machine_seconds = 0.0
        self.telemetry = telemetry
        self.trace_requests = trace_requests
        self._next_trace_id = 1
        self._stitch: Dict[int, Span] = {}
        self._telemetry_collected = False
        self.perf = perf
        #: Per worker that keeps telemetry, in worker order: its registry
        #: and events as of its last ``step`` reply.
        self._views: Dict[int, DeltaAccumulator] = {
            spec.worker_id: DeltaAccumulator() for spec in specs if spec.collect_telemetry
        }
        #: :attr:`live_metrics` of this tick, once something has read it.
        self._fleet_metrics: Optional[MetricsRegistry] = None

        #: Last capacity advertisement per worker: (machines, queue_s).
        self.advertised: Dict[int, Tuple[float, float]] = {
            spec.worker_id: (float(spec.initial_nodes), 0.0) for spec in specs
        }
        # Forwarded requests awaiting the next tick, per worker.
        self._calls: List[List[_Call]] = [[] for _ in specs]
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the fleet (idempotent). TCP mode runs the rendezvous:
        the edge binds an ephemeral listener, spawns workers pointed at
        it, and maps the inbound connections by their hello frames.

        Every worker must answer ``hello`` with this edge's
        :data:`~repro.serve.transport.PROTOCOL_VERSION` and a capacity
        ad before any ``step`` is posted; otherwise the fleet is shut
        down again and :class:`TransportError` raised."""
        if self._started:
            return
        self._started = True
        try:
            if self.mode == "tcp":
                self._tcp_rendezvous()
            for handle in self.workers:
                handle.start()  # tcp: already adopted
            for handle in self.workers:
                wid = handle.spec.worker_id
                reply = handle.request({"cmd": "hello"})
                _check_protocol(f"worker {wid}", reply)
                self.advertised[wid] = self._read_ad(wid, reply)
        except TransportError:
            self.close()
            raise

    def _tcp_rendezvous(self) -> None:
        listener = bind_listener()
        try:
            host, port = listener.getsockname()
            processes = []
            for handle in self.workers:
                process = _SPAWN.Process(
                    target=worker_main,
                    args=(handle.spec.as_dict(), "tcp", (host, port)),
                    daemon=True,
                    name=f"repro-worker-{handle.spec.worker_id}",
                )
                process.start()
                processes.append(process)
            try:
                for _ in self.workers:
                    transport = accept_transport(listener, self.timeout_s)
                    hello = transport.recv(timeout_s=self.timeout_s)
                    worker_id = hello.get("worker")
                    _check_protocol(f"worker {worker_id!r}", hello)
                    if worker_id not in range(len(processes)):
                        raise TransportError(f"hello from unknown worker {worker_id!r}")
                    self.workers[worker_id].adopt(transport, processes[worker_id])
            except TransportError:
                for process in processes:  # not all adopted: close() would miss some
                    process.kill()
                raise
        finally:
            listener.close()

    def close(self) -> None:
        """Shut the fleet down and reap every worker process."""
        for handle in self.workers:
            handle.shutdown()

    def _read_ad(self, worker_id: int, reply: Dict[str, object]) -> Tuple[float, float]:
        """The capacity ad on a worker's reply; ``TransportError`` when it
        is missing, not this worker's, or not two finite numbers."""
        try:
            ad = (float(reply["machines"]), float(reply["queue_seconds"]))  # type: ignore[arg-type]
            if reply.get("worker") != worker_id or not all(map(math.isfinite, ad)):
                raise ValueError(f"worker {reply.get('worker')!r}, {ad}")
        except (KeyError, TypeError, ValueError) as exc:
            raise TransportError(f"worker {worker_id}: malformed capacity ad: {exc!r}") from exc
        return ad

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _route(self, draws: np.ndarray) -> Optional[np.ndarray]:
        """A worker per draw, capacity-weighted.

        Open breakers and dead workers get weight zero; if every
        breaker-approved weight is zero the draws fall back to uniform
        over the workers still alive, and only a fully-dead fleet
        returns ``None`` (the requests then fail as ``"connection"``).
        """
        alive = [handle.alive for handle in self.workers]
        weights = [
            max(self.advertised[wid][0], 0.0)
            if ok and self.health.breakers[wid].allows_traffic
            else 0.0
            for wid, ok in enumerate(alive)
        ]
        cdf = np.cumsum(weights)
        if cdf[-1] > 0.0:
            picks = np.searchsorted(cdf, draws * cdf[-1], side="right")
            return np.minimum(picks, len(cdf) - 1)
        survivors = np.flatnonzero(alive)
        if not len(survivors):
            return None
        picks = (draws * len(survivors)).astype(np.int64)
        return survivors[np.minimum(picks, len(survivors) - 1)]

    #: Route and admit (or shed) one request — a :meth:`submit_batch` of
    #: one, which is all the engine's method is: what the HTTP front end
    #: and the retry client call.  The decision names the worker and its
    #: advertised queue; ``trace`` is ignored (the edge mints its own).
    submit = ServerEngine.submit

    def submit_batch(
        self,
        times: np.ndarray,
        tenants: Optional[np.ndarray] = None,
        priorities: Optional[np.ndarray] = None,
        sink: Optional[OutcomeSink] = None,
        *,
        tenant_names: Sequence[str] = (),
        traces: object = None,
    ) -> AdmissionBatch:
        """Route a burst of arrivals, apply the edge policy and queue the
        survivors for the next :meth:`tick`.

        Equal to one request at a time in row order: one draw of the
        edge RNG routes the burst (two per request, priority then route,
        when ``low_priority_fraction`` is positive), and each request
        goes through the admission policy chain against its worker's
        advertised queue.  Rows shed or failed here
        reach ``sink`` as one :class:`OutcomeBatch` before this returns,
        the rest from the tick, worker by worker.  ``priorities`` count
        only when the edge mints none; ``traces`` never.
        """
        self.start()
        times = np.asarray(times, dtype=np.float64)
        n = len(times)
        if n == 0:
            return AdmissionBatch.of_nothing()
        if self.low_priority_fraction > 0.0:
            draws = self._rng.random(2 * n)
            priorities = (draws[0::2] < self.low_priority_fraction).astype(np.int64)
            draws = draws[1::2]
        else:
            draws = self._rng.random(n)  # always spent: deterministic resume
            priorities = (
                np.zeros(n, dtype=np.int64)
                if priorities is None
                else np.asarray(priorities, dtype=np.int64)
            )
        tenancy = self.tenancy
        if tenancy is not None:
            tenants = tenancy.registry_indices(tenants, tenant_names, n)
            tenant_names = tenancy.names

        worker = self._route(draws)
        if worker is None:  # nobody left to route to
            worker = np.full(n, -1)
            queue_s = np.zeros(n)
            open_rows = np.zeros(n, dtype=bool)
            reason = np.full(n, CONNECTION, dtype=np.int8)
            retry_after = np.zeros(n)
        else:
            # The queue stage, when the edge has one, runs against each
            # worker's last advertisement, one tick stale.
            queues = np.array([self.advertised[wid][1] for wid in range(len(self.workers))])
            queue_s = queues[worker]
            open_rows, reason, retry_after = self.admission.admit_batch(
                times, worker, tenants, priorities,
                tenancy=tenancy,
                brownout=self.brownout if self.brownout_active else None,
                queue_estimate=(lambda still_open: queue_s)
                if self.edge_queue_limit_s is not None
                else None,
            )
        self.ledger.submitted(tenants, reason)

        if not open_rows.all():
            lost = ~open_rows
            batch = OutcomeBatch(
                np.where(reason[lost] == CONNECTION, 500, 503), worker[lost],
                times[lost], times[lost], np.zeros_like(times[lost]), retry_after[lost],
                None, reason[lost], tenants[lost] if tenants is not None else None, tenant_names,
            )
            if sink is not None:
                sink(batch)
            self._settle(batch)
        # The forwarded rows wait for the next tick with their worker.
        times, workers = times[open_rows], worker[open_rows]
        if tenants is not None:
            tenants = tenants[open_rows]
        trace_ids: Optional[np.ndarray] = None
        if self.trace_requests:
            first = self._next_trace_id
            self._next_trace_id += len(workers)
            trace_ids = np.arange(first, self._next_trace_id, dtype=np.int64)
            tracer = self.telemetry.tracer
            for trace_id, at, worker_id in zip(
                trace_ids.tolist(), times.tolist(), workers.tolist()
            ):
                self._stitch[trace_id] = tracer.begin_detached(
                    "edge.request", at=at, trace_id=trace_id, worker=worker_id
                )
        for worker_id, calls in enumerate(self._calls):
            rows = workers == worker_id
            if rows.any():
                calls.append((
                    times[rows],
                    tenants[rows] if tenants is not None else None,
                    tenant_names,
                    trace_ids[rows] if trace_ids is not None else None,
                    sink,
                ))
        return AdmissionBatch(open_rows, worker, queue_s, retry_after, reason)

    def _deliver(self, calls: List[_Call], columns: Sequence[np.ndarray]) -> None:
        """Hand each ``submit_batch`` call its rows of one worker's tick:
        ``columns`` (:data:`~repro.serve.worker.STEP_REPLY_COLUMNS`) answer
        the calls' rows in posted order, the rest is the call's own."""
        status, node_id, completed_at, latency_ms, retry_after_s, reason = columns
        start = 0
        for times, tenants, tenant_names, trace_ids, sink in calls:
            rows = slice(start, start + len(times))
            start = rows.stop
            batch = OutcomeBatch(
                status[rows], node_id[rows], times, completed_at[rows], latency_ms[rows],
                retry_after_s[rows], trace_ids.tolist() if trace_ids is not None else None,
                reason[rows], tenants, tenant_names,
            )
            if sink is not None:
                sink(batch)
            self._settle(batch)

    def _settle(self, batch: OutcomeBatch) -> None:
        """Tally terminal outcomes in the ledger and close their edge spans."""
        self.ledger.record(batch.status, batch.latency_ms, batch.tenant)
        if batch.trace_id is not None:
            for trace_id, at, status in zip(
                batch.trace_id, batch.completed_at.tolist(), batch.status.tolist()
            ):
                root = self._stitch.get(trace_id)
                if root is not None:
                    root.finish(at=at, status=_SPAN_STATUS.get(status, "shed"))

    # ------------------------------------------------------------------
    # Tick path
    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Serve one lock-step tick: fan the queued batches out, fold the
        replies (outcomes, capacity ads, telemetry deltas) in worker
        order, then probe and observe the SLOs."""
        with maybe_span("edge.dispatch", self.perf):
            self._dispatch_tick()

    def _dispatch_tick(self) -> None:
        self.start()
        end = self.now + self.dt_s
        calls = self._calls
        self._calls = [[] for _ in calls]
        messages = [self._step_message(worker_calls) for worker_calls in calls]
        # A live worker runs this tick on what it advertised after the last.
        self.machine_seconds += self.dt_s * sum(
            self.advertised[handle.spec.worker_id][0] for handle in self.workers if handle.alive
        )
        posted: List[WorkerHandle] = []
        for handle, message in zip(self.workers, messages):
            wid = handle.spec.worker_id
            try:
                handle.post(message)
            except TransportError:
                self._fail_batch(wid, calls[wid], end)
                continue
            posted.append(handle)
        for handle in posted:
            wid = handle.spec.worker_id
            n = len(messages[wid]["times"])  # type: ignore[arg-type]
            try:
                reply = handle.collect()
                if not reply.get("ok"):
                    raise ValueError(f"the worker refused the frame: {reply.get('error')}")
                columns = [
                    wire_column(reply, name, n, len(REASONS) if name == "reason" else None)
                    for name in STEP_REPLY_COLUMNS
                ]
                ad = self._read_ad(wid, reply)
                view = self._views.get(wid)
                if view is not None:
                    view.apply(reply.get("delta"))  # all or nothing, so last
            except (TransportError, ValueError):
                # Dead, refused or malformed: nothing of this reply is used.
                self._fail_batch(wid, calls[wid], end)
                continue
            self.advertised[wid] = ad
            self._deliver(calls[wid], columns)

        self.now = end
        self._tick_index += 1
        # Per-tick liveness round over the fleet, driving the breakers.
        dead = [handle.spec.worker_id for handle in self.workers if not handle.alive]
        self.health.probe(end, list(range(len(self.workers))), dead)
        self.brownout_active = self.health.switch_brownout(end, self.brownout_active, self.brownout)
        self.ledger.observe(end)
        self._fleet_metrics = None

    def _step_message(self, calls: List[_Call]) -> Dict[str, object]:
        """One worker's ``step`` request: the times its calls forwarded
        (and their trace ids, under edge tracing)."""
        message: Dict[str, object] = {
            "cmd": "step", "times": join_columns("times", [call[0] for call in calls]),
        }
        if self.trace_requests:
            message["trace_id"] = join_columns("trace_id", [call[3] for call in calls])
        return message

    def _fail_batch(self, worker_id: int, calls: List[_Call], at: float) -> None:
        """A broken worker: its whole tick batch dies as connection 500s."""
        self.health.record_request_failure(worker_id, at)
        n = sum(len(call[0]) for call in calls)
        self._deliver(calls, (
            np.full(n, 500), np.full(n, worker_id), np.full(n, at), np.zeros(n), np.zeros(n),
            np.full(n, CONNECTION, dtype=np.int8),
        ))
        if self.telemetry is not None:
            self.telemetry.counter("edge.worker_batch_failures").inc()
            self.telemetry.event("worker_down", at, worker=worker_id, lost=n)

    # ------------------------------------------------------------------
    # Snapshot (the ``engine`` section of a checkpoint)
    # ------------------------------------------------------------------
    def _command(
        self, handle: WorkerHandle, message: Dict[str, object], failure: str
    ) -> Dict[str, object]:
        """A round trip that must succeed for a snapshot to be whole."""
        wid = handle.spec.worker_id
        try:
            reply = handle.request(message)
        except TransportError as exc:
            raise CheckpointError(f"worker {wid} unreachable: {exc}") from exc
        if not reply.get("ok"):
            raise CheckpointError(f"worker {wid} {failure}: {reply.get('error')}")
        return reply

    def state_dict(self) -> Dict[str, object]:
        """Snapshot edge + every worker over the wire.  Raises
        :class:`CheckpointError` unless every worker is alive and
        quiescent and nothing is queued for the next tick."""
        queued = self.pending_requests
        if queued:
            raise CheckpointError(
                f"cannot checkpoint with {queued} requests queued for the next tick"
            )
        dead = [h.spec.worker_id for h in self.workers if not h.alive]
        if dead:  # a degraded fleet has un-snapshotable shards
            raise CheckpointError(f"cannot checkpoint with workers {dead} dead")
        worker_states = [
            self._command(handle, {"cmd": "capture"}, "refused capture")["state"]
            for handle in self.workers
        ]
        edge = {
            "n_workers": len(self.workers),
            "tick": self._tick_index,
            "now": self.now,
            "rng": _rng_state(self._rng),
            "next_trace_id": self._next_trace_id,
            "brownout_active": self.brownout_active,
            "breakers": self.health.state_dict(),
            "advertised": {str(wid): list(ad) for wid, ad in self.advertised.items()},
            "machine_seconds": self.machine_seconds,
            **self.ledger.state_dict(),
        }
        return {"engine": {"edge": edge, "workers": worker_states}}

    def load_state_dict(self, snapshot: Dict[str, object]) -> None:
        """Restore a fresh fleet (started here) from :meth:`state_dict`
        output; the worker engine fingerprints are verified worker-side."""
        section = snapshot.get("engine")
        if not isinstance(section, dict) or "edge" not in section:
            raise CheckpointError(
                "checkpoint does not hold a fleet snapshot "
                "(a single-engine checkpoint restores with ServeSession.resume)"
            )
        edge: Dict[str, object] = section["edge"]
        if int(edge["n_workers"]) != len(self.workers):  # type: ignore[arg-type]
            raise CheckpointError(
                f"checkpoint has {edge['n_workers']} workers; this fleet has {len(self.workers)}"
            )
        self.start()
        for handle, worker_state in zip(self.workers, section["workers"]):
            message = {"cmd": "restore", "state": worker_state}
            reply = self._command(handle, message, "failed restore")
            try:
                self.advertised[handle.spec.worker_id] = self._read_ad(
                    handle.spec.worker_id, reply
                )
            except TransportError as exc:
                raise CheckpointError(f"restore: {exc}") from exc
        self._tick_index = int(edge["tick"])  # type: ignore[arg-type]
        self.now = float(edge["now"])  # type: ignore[arg-type]
        _set_rng_state(self._rng, edge["rng"])  # type: ignore[arg-type]
        self._next_trace_id = int(edge["next_trace_id"])  # type: ignore[arg-type]
        self.brownout_active = bool(edge["brownout_active"])
        self.health.load_state_dict(edge["breakers"])  # type: ignore[arg-type]
        for wid_str, ad in edge["advertised"].items():  # type: ignore[union-attr]
            self.advertised[int(wid_str)] = (float(ad[0]), float(ad[1]))
        self.machine_seconds = float(edge.get("machine_seconds", 0.0))  # type: ignore[arg-type]
        self.ledger.load_state_dict(edge)

    # ------------------------------------------------------------------
    # Telemetry + reporting
    # ------------------------------------------------------------------
    @property
    def pending_requests(self) -> int:
        """Requests forwarded to a worker but not yet resolved by a tick."""
        return sum(len(call[0]) for calls in self._calls for call in calls)

    @property
    def machine_hours(self) -> float:
        """Machine-hours the fleet has consumed so far."""
        return self.machine_seconds / 3600.0

    @property
    def live_metrics(self) -> MetricsRegistry:
        """The fleet's registry: the edge's own plus every worker's as of
        its last reply, built at most once a tick — or the edge's own
        alone when no worker keeps telemetry, or once
        :meth:`collect_telemetry` has folded the workers into it."""
        if self._telemetry_collected or not self._views:
            return self.telemetry.metrics
        if self._fleet_metrics is None:
            self._fleet_metrics = build_fleet_view(self.telemetry.metrics, self._views)
        return self._fleet_metrics

    def collect_telemetry(self) -> None:
        """Fold every worker's telemetry into the edge handle: its view's
        metrics and events, then the spans it ships now.

        Call once, after the run: folding is additive, so a second call
        would double-count worker counters (guarded by a flag).  A worker
        that died keeps what its last reply carried, but its spans are
        lost.
        """
        if self.telemetry is None or self._telemetry_collected:
            return
        self._telemetry_collected = True
        for worker_id, view in self._views.items():
            fold_view(self.telemetry, view, worker=worker_id)
            spans = self._ask(self.workers[worker_id], "telemetry").get("spans")
            if spans:
                merge_spans(self.telemetry, spans, worker=worker_id, stitch=self._stitch)

    def _ask(self, handle: WorkerHandle, cmd: str) -> Dict[str, object]:
        """One best-effort round trip: the reply, or ``{}`` from a dead
        or unreachable worker."""
        if handle.alive:
            try:
                return handle.request({"cmd": cmd})
            except TransportError:
                pass
        return {}

    def healthz(self) -> Dict[str, object]:
        """Aggregate health: edge view plus each live worker's healthz;
        ``degraded`` while a worker is dead, brownout is engaged or an
        SLO alert fires (any of the ledger's monitors, as on an engine)."""
        replies = {h.spec.worker_id: self._ask(h, "healthz") for h in self.workers}
        degraded = (
            any(not h.alive for h in self.workers)
            or self.brownout_active
            or any(monitor.alerting for monitor in self.ledger.monitors())
        )
        return {
            "status": "degraded" if degraded else "ok",
            "now": self.now,
            "brownout_active": self.brownout_active,
            "breakers": {str(wid): state for wid, state in self.health.states().items()},
            **self.ledger.health(),
            "workers": {
                str(wid): reply.get("healthz", {}) if reply else {"status": "dead"}
                for wid, reply in replies.items()
            },
        }

    def status_lines(self) -> List[str]:
        """The fleet's part of the run report, one string per line."""
        lines = [
            "workers: "
            + " | ".join(
                f"w{wid} machines {int(machines)}"
                + ("" if self.workers[wid].alive else " (DEAD)")
                for wid, (machines, _) in sorted(self.advertised.items())
            )
        ]
        return lines + self.ledger.status_lines()


class DistributedServeSession(ServeSession):
    """A :class:`ServeSession` over a :class:`Fleet`, plus the fleet's
    lifecycle (``start`` / ``close`` / context manager).

    ``specs`` and every keyword but the session's own (``retry``,
    ``retry_seed``, ``checkpoint``, ``tenant_indices``, ``tenant_names``,
    ``timeseries``) are the :class:`Fleet`'s, whose state — ``health``,
    ``advertised``, ``brownout_active``, ``live_metrics`` — is read off
    :attr:`engine`.
    """

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        arrivals: np.ndarray,
        *,
        retry: Optional[RetryConfig] = None,
        retry_seed: int = 0,
        checkpoint: Optional[CheckpointConfig] = None,
        tenant_indices: Optional[np.ndarray] = None,
        tenant_names: Optional[List[str]] = None,
        timeseries: Optional[TimeSeriesStore] = None,
        **fleet: object,
    ) -> None:
        super().__init__(
            Fleet(specs, **fleet),  # type: ignore[arg-type]
            arrivals, retry=retry, retry_seed=retry_seed, checkpoint=checkpoint,
            tenant_indices=tenant_indices, tenant_names=tenant_names, timeseries=timeseries,
        )

    # Fleet lifecycle, and the few things callers read off the session.
    def start(self) -> None:
        """Launch the fleet (idempotent; serving starts it on demand)."""
        self.engine.start()

    def close(self) -> None:
        """Shut the fleet down and reap every worker process."""
        self.engine.close()

    def __enter__(self) -> "DistributedServeSession":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def workers(self) -> List[WorkerHandle]:
        return self.engine.workers

    @property
    def report(self) -> LoadgenReport:
        return self.loadgen.report

    @property
    def dt_s(self) -> float:
        return self.engine.dt_s

    def healthz(self) -> Dict[str, object]:
        return self.engine.healthz()

    def collect_telemetry(self) -> None:
        self.engine.collect_telemetry()
