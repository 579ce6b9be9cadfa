"""The api/edge process of the distributed serving path.

:class:`DistributedServeSession` is the thin edge in the api + worker
split: it owns routing, edge admission, brownout and per-worker circuit
breakers, while each worker process owns one
:class:`~repro.serve.engine.ServerEngine` shard (its own admission
controller, load monitor and control loop).  The pieces meet over the
strict request/reply protocol of :mod:`repro.serve.worker`:

* every edge tick slices the arrival schedule, routes each request to a
  worker (capacity-weighted over the advertised machine counts, open
  breakers zeroed out), applies edge admission + brownout, then posts
  one ``step`` batch to every worker *before* collecting any reply —
  the shards compute their tick concurrently, but replies are folded in
  worker order, so the aggregate report is deterministic regardless of
  process scheduling;
* a worker whose transport breaks mid-tick turns its whole batch into
  terminal 500s (reason ``"connection"``) and feeds its breaker — the
  conservation identity ``offered = served + shed + errored + in-flight``
  stays exact through a worker crash, which the resilience tests pin;
* a per-tick probe round (worker alive?) drives the breakers exactly
  like the single-process engine's node health monitor, and brownout
  engages while any breaker is open;
* digest-verified checkpoints (format ``repro-distributed-checkpoint/1``)
  capture the edge state plus every worker's engine snapshot over the
  wire; :meth:`DistributedServeSession.resume` rebuilds the whole
  cluster and continues **bit-identically**;
* request traces stitch across the boundary: the edge mints the
  globally-unique trace ids, workers record their span trees against
  them, and :meth:`collect_telemetry` merges every worker's snapshot
  into the edge handle — re-parenting each worker ``request`` span
  under the edge span that dispatched it.

``docs/SERVING.md`` has the process diagram and failure semantics.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError, ConfigurationError, TransportError
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.checkpoint import (
    DISTRIBUTED_CHECKPOINT_FORMAT,
    CheckpointConfig,
    read_checkpoint,
    write_checkpoint,
)
from repro.serve.engine import TxnOutcome
from repro.serve.loadgen import LoadgenReport, validate_schedule
from repro.serve.resilience import (
    OPEN,
    BreakerConfig,
    BrownoutConfig,
    CircuitBreaker,
    _rng_state,
    _set_rng_state,
)
from repro.serve.session import _restore_report
from repro.serve.transport import (
    DEFAULT_TIMEOUT_S,
    accept_transport,
    bind_listener,
)
from repro.serve.worker import _SPAWN, WorkerHandle, WorkerSpec, worker_main
from repro.telemetry import Span, Telemetry
from repro.telemetry.merge import DeltaAccumulator, build_fleet_view
from repro.telemetry.perf import PerfRecorder, maybe_span
from repro.telemetry.slo import SLOConfig, SLOMonitor
from repro.telemetry.timeseries import TimeSeriesStore

from dataclasses import replace as _dc_replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tenancy.admission import TenantAdmission


class DistributedServeSession:
    """Edge process driving a fleet of worker shards in lock step.

    Args:
        specs: One :class:`~repro.serve.worker.WorkerSpec` per worker.
        arrivals: Sorted aggregate arrival timestamps, seconds.
        mode: ``"pipe"`` (spawned processes over multiprocessing pipes),
            ``"tcp"`` (spawned processes dialing a localhost listener) or
            ``"inproc"`` (worker servers driven in-process — identical
            protocol, no process boundary; the deterministic tests).
        edge_queue_limit_s: Optional coarse edge admission bound against
            each worker's *advertised* queue estimate (one tick stale);
            workers always run their own exact admission behind it.
        breaker: Per-worker circuit breaker policy.
        brownout: Degradation policy while any breaker is open; ``None``
            disables brownout shedding at the edge.
        slo: Edge-side SLO burn-rate monitoring over the aggregate
            good/bad stream (sheds and 500s count as bad).
        low_priority_fraction: Probability a request is minted
            low-priority (sheddable under brownout); drawn from the edge
            RNG only when positive, so 0.0 costs no draws.
        trace_requests: Mint trace contexts at the edge and record an
            ``edge.request`` span per forwarded request (requires
            ``telemetry``; workers record their side when their spec
            enables tracing).
        telemetry: Edge telemetry handle; worker snapshots merge into it
            via :meth:`collect_telemetry`.
        seed: Edge routing/priority RNG seed (independent of the worker
            engine RNGs).
        checkpoint: Distributed snapshot cadence + path.
        timeout_s: Edge-side per-reply transport timeout.
        tenancy: Optional :class:`~repro.tenancy.TenantAdmission`.  The
            *edge* owns tenant policy in the distributed split: quotas
            and tenant-level brownout shedding run here before routing,
            and per-tenant labelled SLO monitors run over the folded
            replies.  Workers just carry the tag through their engines.
        tenant_indices: Per-arrival tenant index array parallel to
            ``arrivals`` (from :func:`repro.tenancy.composite_arrivals`).
        tenant_names: Registry names the indices point into.
        telemetry_every_ticks: When positive, every Nth tick pulls a
            ``telemetry_delta`` from each worker (absolute new-or-changed
            state) and rebuilds :attr:`fleet_view` — a live fleet-wide
            telemetry merge that equals the end-of-run capture merge
            exactly for metrics and events.  Requires ``telemetry``.
        timeseries: Optional ring-buffer store sampled once per tick from
            the freshest fleet view (or the edge's own registry when
            delta streaming is off).
        perf: Optional wall-clock recorder; the dispatch loop records an
            ``edge.dispatch`` span per tick.  Falls back to the process
            default installed by ``repro.telemetry.perf``.
    """

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        arrivals: np.ndarray,
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
        checkpoint: Optional[CheckpointConfig] = None,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        tenancy: Optional["TenantAdmission"] = None,
        tenant_indices: Optional[np.ndarray] = None,
        tenant_names: Optional[List[str]] = None,
        telemetry_every_ticks: int = 0,
        timeseries: Optional[TimeSeriesStore] = None,
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
            raise ConfigurationError(
                "low_priority_fraction must be in [0, 1]"
            )
        if trace_requests and telemetry is None:
            raise ConfigurationError("trace_requests needs edge telemetry")
        self.specs = list(specs)
        self.arrivals, self.tenant_indices, self.tenant_names = validate_schedule(
            arrivals, tenant_indices, tenant_names
        )
        self.mode = mode
        self.timeout_s = timeout_s
        self.workers: List[WorkerHandle] = [
            WorkerHandle(spec, mode, timeout_s=timeout_s) for spec in specs
        ]
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.report = LoadgenReport()
        self.dt_s = 1.0  # every worker engine ticks at EngineConfig default
        self.now = 0.0
        self._origin = 0.0
        self._tick_index = 0
        self._cursor = 0
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
        breaker_config = breaker or BreakerConfig()
        self.breakers: Dict[int, CircuitBreaker] = {
            spec.worker_id: CircuitBreaker(spec.worker_id, breaker_config)
            for spec in specs
        }
        self.slo_monitor = (
            SLOMonitor(slo, telemetry) if slo is not None else None
        )
        self.tenancy = tenancy
        self.tenant_slos: Dict[str, SLOMonitor] = {}
        self._tenant_tick: Dict[str, List[int]] = {}
        if tenancy is not None:
            base = slo or SLOConfig()
            for spec in tenancy.registry:
                self.tenant_slos[spec.name] = SLOMonitor(
                    _dc_replace(
                        base,
                        objective=spec.slo_objective,
                        latency_threshold_ms=spec.latency_slo_ms,
                    ),
                    telemetry,
                    labels={"tenant": spec.name},
                )
        self.telemetry = telemetry
        self.trace_requests = trace_requests
        self._next_trace_id = 1
        self._stitch: Dict[int, Span] = {}
        self._telemetry_collected = False
        if telemetry_every_ticks < 0:
            raise ConfigurationError("telemetry_every_ticks must be >= 0")
        if telemetry_every_ticks > 0 and telemetry is None:
            raise ConfigurationError(
                "telemetry_every_ticks needs edge telemetry"
            )
        if timeseries is not None and telemetry is None:
            raise ConfigurationError("a timeseries store needs edge telemetry")
        self.telemetry_every_ticks = int(telemetry_every_ticks)
        self.timeseries = timeseries
        self.perf = perf
        #: Per-worker absolute telemetry views accumulated from deltas.
        self._delta_views: Dict[int, DeltaAccumulator] = {}
        #: Live fleet-wide merge (edge + every worker view); refreshed on
        #: the delta cadence, ``None`` until the first pull.
        self.fleet_view: Optional[Telemetry] = None

        #: Last capacity advertisement per worker: (machines, queue_s).
        self.advertised: Dict[int, Tuple[float, float]] = {
            spec.worker_id: (float(spec.initial_nodes), 0.0) for spec in specs
        }
        self.checkpoint = checkpoint
        self.checkpoints_written = 0
        self._checkpoint_due = (
            checkpoint.every_s if checkpoint is not None else None
        )
        self._started = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Launch the fleet (idempotent). TCP mode runs the rendezvous:
        the edge binds an ephemeral listener, spawns workers pointed at
        it, and maps the inbound connections by their hello frames."""
        if self._started:
            return
        self._started = True
        if self.mode == "tcp":
            self._tcp_rendezvous()
            return
        for handle in self.workers:
            handle.start()
        for handle in self.workers:
            reply = handle.request({"cmd": "hello"})
            self._absorb_ad(reply)

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
            for _ in self.workers:
                transport = accept_transport(listener, self.timeout_s)
                hello = transport.recv(timeout_s=self.timeout_s)
                worker_id = int(hello["worker"])  # type: ignore[arg-type]
                self.workers[worker_id].adopt(transport, processes[worker_id])
            for handle in self.workers:
                self._absorb_ad(handle.request({"cmd": "hello"}))
        finally:
            listener.close()

    def close(self) -> None:
        """Shut the fleet down and reap every worker process."""
        for handle in self.workers:
            handle.shutdown()

    def __enter__(self) -> "DistributedServeSession":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Lock-step serving
    # ------------------------------------------------------------------
    def run(self, duration_s: float) -> LoadgenReport:
        """Serve ``duration_s`` seconds (rounded up to whole ticks)."""
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        self.start()
        n_ticks = int(math.ceil(duration_s / self.dt_s - 1e-9))
        for _ in range(n_ticks):
            self._tick()
        self.report.duration_s = self.now - self._origin
        return self.report

    def _absorb_ad(self, reply: Dict[str, object]) -> None:
        if "worker" in reply:
            self.advertised[int(reply["worker"])] = (  # type: ignore[arg-type]
                float(reply["machines"]),  # type: ignore[arg-type]
                float(reply["queue_seconds"]),  # type: ignore[arg-type]
            )

    def _route(self) -> Optional[int]:
        """Pick a worker, capacity-weighted; one RNG draw either way.

        Open breakers and dead workers get weight zero; if every
        breaker-approved weight is zero the draw falls back to uniform
        over the workers still alive, and only a fully-dead fleet
        returns ``None`` (the request then fails as ``"connection"``).
        """
        weights = []
        for handle in self.workers:
            wid = handle.spec.worker_id
            machines, _ = self.advertised[wid]
            ok = handle.alive and self.breakers[wid].allows_traffic
            weights.append(machines if ok and machines > 0 else 0.0)
        total = sum(weights)
        draw = float(self._rng.random())  # always spent: deterministic resume
        if total <= 0.0:
            alive = [
                handle.spec.worker_id for handle in self.workers if handle.alive
            ]
            if not alive:
                return None
            return alive[min(int(draw * len(alive)), len(alive) - 1)]
        acc = 0.0
        target = draw * total
        for handle, weight in zip(self.workers, weights):
            acc += weight
            if target < acc:
                return handle.spec.worker_id
        return self.workers[-1].spec.worker_id  # pragma: no cover - fp edge

    def _edge_shed(
        self, t: float, worker_id: int, priority: int, tenant: str = ""
    ) -> Optional[TxnOutcome]:
        """Edge admission + brownout; the shed outcome, or None to forward.

        Tenant policy runs first: during brownout a low-weight tenant is
        shed wholesale (before the per-request priority check), and every
        surviving request is charged against its tenant's token bucket —
        a quota shed carries the bucket's deterministic Retry-After.
        """
        _, queue_s = self.advertised[worker_id]
        tenancy = self.tenancy
        if tenancy is not None:
            if self.brownout_active and tenancy.brownout_sheddable(tenant):
                tenancy.offered[tenant] += 1
                tenancy.record_brownout_shed(tenant)
                decision = self.admission.shed_outright(
                    worker_id, queue_s, reason="brownout"
                )
                return self._shed_outcome(decision, t, worker_id, priority, tenant)
            quota_wait = tenancy.quota_admit(tenant, t)
            if quota_wait is not None:
                decision = self.admission.shed_outright(
                    worker_id, queue_s, reason="quota", retry_after_s=quota_wait
                )
                return self._shed_outcome(decision, t, worker_id, priority, tenant)
        if (
            self.brownout_active
            and self.brownout is not None
            and self.brownout.shed_low_priority
            and priority == 1
        ):
            decision = self.admission.shed_outright(
                worker_id, queue_s, reason="brownout"
            )
        elif self.edge_queue_limit_s is not None:
            limit = self.edge_queue_limit_s
            if self.brownout_active and self.brownout is not None:
                limit *= self.brownout.queue_factor
            decision = self.admission.decide(worker_id, queue_s, limit_s=limit)
            if decision.accepted:
                return None
        else:
            return None
        return self._shed_outcome(decision, t, worker_id, priority, tenant)

    def _shed_outcome(
        self, decision, t: float, worker_id: int, priority: int, tenant: str
    ) -> TxnOutcome:
        return TxnOutcome(
            accepted=False,
            status=503,
            node_id=worker_id,
            submitted_at=t,
            completed_at=t,
            latency_ms=0.0,
            retry_after_s=decision.retry_after_s,
            reason=decision.reason,
            priority=priority,
            tenant=tenant,
        )

    def _mint_trace(self, t: float, worker_id: int) -> Optional[int]:
        if not self.trace_requests:
            return None
        trace_id = self._next_trace_id
        self._next_trace_id += 1
        if self.telemetry is not None:
            self._stitch[trace_id] = self.telemetry.tracer.begin_detached(
                "edge.request", at=t, trace_id=trace_id, worker=worker_id
            )
        return trace_id

    def _finish_trace(self, outcome: TxnOutcome) -> None:
        if outcome.trace_id is None:
            return
        root = self._stitch.get(int(outcome.trace_id))
        if root is None:
            return
        status = "ok" if outcome.accepted else (
            "error" if outcome.status == 500 else "shed"
        )
        root.finish(at=outcome.completed_at, status=status)

    def _tick(self) -> None:
        with maybe_span("edge.dispatch", self.perf):
            self._dispatch_tick()

    def _dispatch_tick(self) -> None:
        end = self.now + self.dt_s
        arrivals = self.arrivals
        batches: Dict[int, List[List[object]]] = {
            spec.worker_id: [] for spec in self.specs
        }
        good = 0
        bad = 0
        tenant_tick = self._tenant_tick
        while self._cursor < len(arrivals) and arrivals[self._cursor] < end - 1e-9:
            index = self._cursor
            t = float(arrivals[index])
            self._cursor += 1
            tenant = ""
            if self.tenant_indices is not None and self.tenant_names is not None:
                tenant = self.tenant_names[int(self.tenant_indices[index])]
            elif self.tenancy is not None:
                tenant = self.tenancy.registry.tenants[0].name
            priority = 0
            if self.low_priority_fraction > 0.0:
                if float(self._rng.random()) < self.low_priority_fraction:
                    priority = 1
            worker_id = self._route()
            if worker_id is None:
                if self.tenancy is not None:
                    self.tenancy.offered[tenant] += 1
                self.report.record(
                    TxnOutcome(
                        accepted=False,
                        status=500,
                        node_id=-1,
                        submitted_at=t,
                        completed_at=t,
                        latency_ms=0.0,
                        reason="connection",
                        priority=priority,
                        tenant=tenant,
                    )
                )
                self._tenant_mark(tenant_tick, tenant, good=False)
                bad += 1
                continue
            shed = self._edge_shed(t, worker_id, priority, tenant)
            if shed is not None:
                self.report.record(shed)
                self._tenant_mark(tenant_tick, tenant, good=False)
                bad += 1
                continue
            trace_id = self._mint_trace(t, worker_id)
            self.report.offer(tenant)
            entry: List[object] = [t, trace_id, "edge", priority]
            if tenant:
                # The 5th element is only present with tenancy on, so
                # untenanted runs keep the pre-tenancy wire format.
                entry.append(tenant)
            batches[worker_id].append(entry)

        # Fan the tick out, then fold replies in worker order.
        posted: List[WorkerHandle] = []
        for handle in self.workers:
            wid = handle.spec.worker_id
            message = {"cmd": "step", "arrivals": batches[wid]}
            try:
                handle.post(message)
            except TransportError:
                bad += self._fail_batch(wid, batches[wid], end)
                continue
            posted.append(handle)
        for handle in posted:
            wid = handle.spec.worker_id
            try:
                reply = handle.collect()
            except TransportError:
                bad += self._fail_batch(wid, batches[wid], end)
                continue
            self._absorb_ad(reply)
            for record in reply.get("outcomes", ()):  # type: ignore[union-attr]
                outcome = TxnOutcome(**record)
                self.report.finish(outcome)
                self._finish_trace(outcome)
                if outcome.accepted and (
                    self.slo_monitor is None
                    or self.slo_monitor.classify(outcome.latency_ms)
                ):
                    good += 1
                else:
                    bad += 1
                tenant_slo = self.tenant_slos.get(outcome.tenant)
                if tenant_slo is not None:
                    self._tenant_mark(
                        tenant_tick,
                        outcome.tenant,
                        good=outcome.accepted
                        and tenant_slo.classify(outcome.latency_ms),
                    )

        self.now = end
        self._tick_index += 1
        self._probe(end)
        if self.slo_monitor is not None:
            self.slo_monitor.observe(end, good, bad)
        for name, monitor in self.tenant_slos.items():
            counts = tenant_tick.get(name)
            monitor.observe(
                end,
                counts[0] if counts else 0,
                counts[1] if counts else 0,
            )
        tenant_tick.clear()
        if (
            self.telemetry_every_ticks > 0
            and self._tick_index % self.telemetry_every_ticks == 0
        ):
            self.refresh_fleet_view()
        if self.timeseries is not None and self.telemetry is not None:
            view = self.fleet_view if self.fleet_view is not None else self.telemetry
            self.timeseries.sample(view.metrics, end)
        self._maybe_checkpoint()

    @staticmethod
    def _tenant_mark(
        tick: Dict[str, List[int]], tenant: str, *, good: bool
    ) -> None:
        if not tenant:
            return
        counts = tick.get(tenant)
        if counts is None:
            counts = [0, 0]
            tick[tenant] = counts
        counts[0 if good else 1] += 1

    def _fail_batch(
        self, worker_id: int, batch: List[List[object]], at: float
    ) -> int:
        """A broken worker: its whole tick batch dies as connection 500s."""
        self.breakers[worker_id].record_failure(at)
        for t, trace_id, _origin, priority, *rest in batch:
            tenant = str(rest[0]) if rest else ""
            outcome = TxnOutcome(
                accepted=False,
                status=500,
                node_id=worker_id,
                submitted_at=float(t),
                completed_at=at,
                latency_ms=0.0,
                trace_id=None if trace_id is None else int(trace_id),
                reason="connection",
                priority=int(priority),
                tenant=tenant,
            )
            self.report.finish(outcome)
            self._finish_trace(outcome)
            self._tenant_mark(self._tenant_tick, tenant, good=False)
        if self.telemetry is not None:
            self.telemetry.counter("edge.worker_batch_failures").inc()
            self.telemetry.event(
                "worker_down", at, worker=worker_id, lost=len(batch)
            )
        return len(batch)

    def _probe(self, now: float) -> None:
        """Per-tick liveness round over the fleet, driving the breakers."""
        for handle in self.workers:
            breaker = self.breakers[handle.spec.worker_id]
            breaker.poll(now)
            if handle.alive:
                breaker.record_success(now)
            else:
                breaker.record_failure(now)
        was = self.brownout_active
        self.brownout_active = any(
            b.state == OPEN for b in self.breakers.values()
        )
        if self.telemetry is not None and was != self.brownout_active:
            self.telemetry.event(
                "brownout", now, active=self.brownout_active
            )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self.checkpoint is None or self._checkpoint_due is None:
            return
        if self.now < self._checkpoint_due - 1e-9:
            return
        if not all(handle.alive for handle in self.workers):
            return  # a degraded fleet has un-snapshotable shards
        try:
            self.write_checkpoint(self.checkpoint.path)
        except CheckpointError:
            return  # a worker was not quiescent: retry next tick
        while self._checkpoint_due <= self.now + 1e-9:
            self._checkpoint_due += self.checkpoint.every_s

    def state(self) -> Dict[str, object]:
        """Snapshot edge + every worker (all must be alive + quiescent)."""
        worker_states = []
        for handle in self.workers:
            try:
                reply = handle.request({"cmd": "capture"})
            except TransportError as exc:
                raise CheckpointError(
                    f"worker {handle.spec.worker_id} unreachable: {exc}"
                ) from exc
            if not reply.get("ok"):
                raise CheckpointError(
                    f"worker {handle.spec.worker_id} refused capture: "
                    f"{reply.get('error')}"
                )
            worker_states.append(reply["state"])
        return {
            "edge": {
                "n_workers": len(self.workers),
                "tick": self._tick_index,
                "now": self.now,
                "ran_s": self.now - self._origin,
                "cursor": self._cursor,
                "rng": _rng_state(self._rng),
                "report": asdict(self.report),
                "next_trace_id": self._next_trace_id,
                "brownout_active": self.brownout_active,
                "breakers": {
                    str(wid): breaker.state_dict()
                    for wid, breaker in self.breakers.items()
                },
                "slo": (
                    self.slo_monitor.state_dict()
                    if self.slo_monitor is not None
                    else None
                ),
                "advertised": {
                    str(wid): list(ad) for wid, ad in self.advertised.items()
                },
                "tenancy": (
                    self.tenancy.state_dict() if self.tenancy is not None else None
                ),
                "tenant_slos": {
                    name: monitor.state_dict()
                    for name, monitor in sorted(self.tenant_slos.items())
                },
            },
            "workers": worker_states,
        }

    def write_checkpoint(self, path: str) -> str:
        """Write the distributed snapshot to ``path``; returns the digest."""
        digest = write_checkpoint(
            path, self.state(), format=DISTRIBUTED_CHECKPOINT_FORMAT
        )
        self.checkpoints_written += 1
        if self.telemetry is not None:
            self.telemetry.counter("serve.checkpoints").inc()
            self.telemetry.event(
                "checkpoint", self.now, path=path, sha256=digest[:16]
            )
        return digest

    @classmethod
    def resume(
        cls,
        specs: Sequence[WorkerSpec],
        arrivals: np.ndarray,
        checkpoint_path: str,
        **kwargs: object,
    ) -> "DistributedServeSession":
        """Rebuild a distributed session from a snapshot.

        ``specs`` and ``arrivals`` must match the checkpointed run (the
        worker engine fingerprints are verified on restore).  The
        resumed session continues bit-identically to a run that was
        never interrupted.
        """
        state = read_checkpoint(
            checkpoint_path, format=DISTRIBUTED_CHECKPOINT_FORMAT
        )
        edge: Dict[str, object] = state["edge"]  # type: ignore[assignment]
        if int(edge["n_workers"]) != len(specs):  # type: ignore[arg-type]
            raise CheckpointError(
                f"checkpoint has {edge['n_workers']} workers; "
                f"resume was given {len(specs)} specs"
            )
        session = cls(specs, arrivals, **kwargs)  # type: ignore[arg-type]
        session.start()
        for handle, worker_state in zip(
            session.workers, state["workers"]  # type: ignore[arg-type]
        ):
            reply = handle.request({"cmd": "restore", "state": worker_state})
            if not reply.get("ok"):
                raise CheckpointError(
                    f"worker {handle.spec.worker_id} failed restore: "
                    f"{reply.get('error')}"
                )
            session._absorb_ad(reply)
        session._tick_index = int(edge["tick"])  # type: ignore[arg-type]
        session.now = float(edge["now"])  # type: ignore[arg-type]
        session._origin = session.now - float(edge.get("ran_s", 0.0))  # type: ignore[arg-type]
        session._cursor = int(edge["cursor"])  # type: ignore[arg-type]
        _set_rng_state(session._rng, edge["rng"])  # type: ignore[arg-type]
        _restore_report(session.report, edge["report"])  # type: ignore[arg-type]
        session._next_trace_id = int(edge["next_trace_id"])  # type: ignore[arg-type]
        session.brownout_active = bool(edge["brownout_active"])
        for wid_str, breaker_state in edge["breakers"].items():  # type: ignore[union-attr]
            session.breakers[int(wid_str)].load_state_dict(breaker_state)
        slo_state = edge.get("slo")
        if slo_state is not None:
            if session.slo_monitor is None:
                raise CheckpointError(
                    "checkpoint carries SLO state but the resumed session "
                    "has no SLO monitor"
                )
            session.slo_monitor.load_state_dict(slo_state)  # type: ignore[arg-type]
        for wid_str, ad in edge["advertised"].items():  # type: ignore[union-attr]
            session.advertised[int(wid_str)] = (float(ad[0]), float(ad[1]))
        tenancy_state = edge.get("tenancy")
        if tenancy_state is not None:
            if session.tenancy is None:
                raise CheckpointError(
                    "checkpoint carries tenant state but the resumed "
                    "session has no tenancy configured"
                )
            session.tenancy.load_state_dict(tenancy_state)  # type: ignore[arg-type]
        for name, monitor_state in (edge.get("tenant_slos") or {}).items():  # type: ignore[union-attr]
            monitor = session.tenant_slos.get(str(name))
            if monitor is None:
                raise CheckpointError(
                    f"checkpoint carries SLO state for unknown tenant {name!r}"
                )
            monitor.load_state_dict(monitor_state)
        if session.checkpoint is not None:
            session._checkpoint_due = session.now + session.checkpoint.every_s
        return session

    # ------------------------------------------------------------------
    # Telemetry + reporting
    # ------------------------------------------------------------------
    def _pull_deltas(self) -> None:
        """One ``telemetry_delta`` round, folded in worker order.

        Deltas carry absolute new-or-changed state, so applying one is
        assignment — a dead worker simply stops updating its view, and
        the fleet merge keeps whatever it shipped before dying (the
        capture path would lose it entirely).
        """
        posted: List[WorkerHandle] = []
        for handle in self.workers:
            if not handle.alive:
                continue
            try:
                handle.post({"cmd": "telemetry_delta"})
            except TransportError:
                continue
            posted.append(handle)
        for handle in posted:
            wid = handle.spec.worker_id
            try:
                reply = handle.collect()
            except TransportError:
                continue
            delta = reply.get("delta")
            if delta:
                view = self._delta_views.get(wid)
                if view is None:
                    view = self._delta_views[wid] = DeltaAccumulator()
                view.apply(delta)  # type: ignore[arg-type]

    def refresh_fleet_view(self) -> Optional[Telemetry]:
        """Pull fresh deltas and rebuild :attr:`fleet_view`."""
        if self.telemetry is None:
            return None
        self._pull_deltas()
        self.fleet_view = build_fleet_view(self.telemetry, self._delta_views)
        return self.fleet_view

    def collect_telemetry(self) -> None:
        """Merge every worker's telemetry into the edge handle.

        Call once, after the run: merging is additive, so a second call
        would double-count worker counters (guarded by a flag).  With
        delta streaming on (``telemetry_every_ticks``), metrics and
        events come from the accumulated per-worker views (one residual
        pull first), and only spans — which deltas deliberately never
        carry — are taken from the full capture snapshot; the result is
        identical to a pure capture merge, but survives a worker dying
        after its last delta.
        """
        if self.telemetry is None or self._telemetry_collected:
            return
        self._telemetry_collected = True
        from repro.telemetry.merge import merge_snapshot

        streaming = self.telemetry_every_ticks > 0 or bool(self._delta_views)
        if streaming:
            self._pull_deltas()
        for handle in self.workers:
            wid = handle.spec.worker_id
            snapshot = None
            if handle.alive:
                try:
                    reply = handle.request({"cmd": "telemetry"})
                    snapshot = reply.get("snapshot")
                except TransportError:
                    snapshot = None
            if streaming:
                view = self._delta_views.get(wid)
                if view is not None:
                    merge_snapshot(
                        self.telemetry,
                        view.snapshot(),
                        worker=wid,
                        parts=("metrics", "events"),
                    )
                if snapshot:
                    merge_snapshot(
                        self.telemetry,
                        snapshot,  # type: ignore[arg-type]
                        worker=wid,
                        stitch=self._stitch,
                        parts=("spans",),
                    )
            elif snapshot:
                merge_snapshot(
                    self.telemetry,
                    snapshot,  # type: ignore[arg-type]
                    worker=wid,
                    stitch=self._stitch,
                )
        if streaming:
            self.fleet_view = None  # superseded: the edge handle is now fleet-wide

    def healthz(self) -> Dict[str, object]:
        """Aggregate health: edge view plus each live worker's healthz."""
        workers: Dict[str, object] = {}
        for handle in self.workers:
            wid = handle.spec.worker_id
            if not handle.alive:
                workers[str(wid)] = {"status": "dead"}
                continue
            try:
                reply = handle.request({"cmd": "healthz"})
            except TransportError:
                workers[str(wid)] = {"status": "dead"}
                continue
            workers[str(wid)] = reply.get("healthz", {})
        return {
            "status": (
                "degraded"
                if any(not h.alive for h in self.workers) or self.brownout_active
                else "ok"
            ),
            "now": self.now,
            "brownout_active": self.brownout_active,
            "breakers": {
                str(wid): breaker.state
                for wid, breaker in sorted(self.breakers.items())
            },
            "slo": (
                self.slo_monitor.status() if self.slo_monitor is not None else None
            ),
            "tenants": (
                {
                    name: {
                        **self.tenancy.summary()[name],
                        "slo": self.tenant_slos[name].status(),
                    }
                    for name in self.tenancy.registry.names()
                }
                if self.tenancy is not None
                else None
            ),
            "workers": workers,
        }

    def format_report(self) -> str:
        lines = [self.report.format_report(), self.report.conservation_line()]
        machines = {
            wid: int(ad[0]) for wid, ad in sorted(self.advertised.items())
        }
        lines.append(
            "workers: "
            + " | ".join(
                f"w{wid} machines {count}"
                + ("" if self.workers[wid].alive else " (DEAD)")
                for wid, count in machines.items()
            )
        )
        if self.slo_monitor is not None:
            lines.append(self.slo_monitor.report_line())
        lines.extend(
            monitor.report_line() for _, monitor in sorted(self.tenant_slos.items())
        )
        if self.checkpoints_written:
            lines.append(f"checkpoints written: {self.checkpoints_written}")
        return "\n".join(lines)
