"""The serving driver: requests in, latency samples out, ticks in between.

:class:`ServerEngine` turns the batch :class:`~repro.engine.simulator.
EngineSimulator` into a request server.  Transport and pacing live
elsewhere (virtual clock in :mod:`repro.serve.session`, asyncio HTTP in
:mod:`repro.serve.http`); this class only knows two operations:

* :meth:`submit_batch` — route a batch of incoming transactions through
  the cluster's data-share weights, run the admission policy chain of
  :mod:`repro.serve.admission` against each target node's queue
  estimate, and either enqueue each for the current tick or shed it with
  a retry-after hint (:meth:`submit` is the batch of one the HTTP path
  and the retry client use);
* :meth:`tick` — advance the engine by one ``dt`` step offered exactly
  the admitted arrivals, draw each request's latency from that step's
  queueing mixture (seeded inverse-CDF sampling, so runs are
  deterministic), deliver completions, feed the arrival count into the
  :class:`~repro.engine.monitor.LoadMonitor`, and invoke the elasticity
  controller whenever a measurement slot closes — exactly the hook the
  batch ``EngineSimulator.run`` loop gives the same controllers.

Because rejected requests never reach the engine, shedding (not the
fluid queue cap) is what bounds the backlog under an open-loop spike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.migration import MigrationConfig
from repro.engine.monitor import LoadMonitor
from repro.engine.queueing import sample_latencies
from repro.engine.simulator import ElasticityController, EngineConfig, EngineSimulator
from repro.errors import CheckpointError, ConfigurationError
from repro.faults.injector import FaultInjector
from repro.serve.admission import (
    BROWNOUT, CONNECTION, QUOTA, REASONS, AdmissionConfig, AdmissionController, AdmissionDecision,
)
from repro.serve.resilience import (
    OPEN, NodeHealthMonitor, ResilienceConfig, _rng_state, _set_rng_state,
)
from repro.telemetry import Telemetry, resolve_telemetry
from repro.telemetry.metrics import index_counts, labeled, running_sum
from repro.telemetry.perf import timed
from repro.telemetry.requesttrace import RequestTracer, TraceContext
from repro.telemetry.slo import SLOConfig, SLOMonitor, load_monitor_states

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tenancy -> loadgen -> engine)
    from repro.tenancy.admission import TenantAdmission


@dataclass(frozen=True)
class TxnOutcome:
    """Terminal state of one submitted transaction.

    Attributes:
        accepted: False when admission control shed the request.
        status: HTTP-style status code (200 or 503).
        node_id: Node the request was routed to.
        submitted_at: Engine time at submission, seconds.
        completed_at: Engine time at completion (submission time for
            rejects — they fail fast).
        latency_ms: Sampled service latency (0 for rejects).
        retry_after_s: Backoff hint carried by rejects.
        trace_id: Request trace id when tracing is enabled, else None.
        reason: Why a request failed — ``"queue-limit"`` (admission
            shed), ``"quota"`` (tenant token-bucket shed), ``"brownout"``
            (low-priority or low-weight-tenant shed during degradation)
            or ``"connection"`` (routed to a dead, not-yet-detected
            node; status 500).  Empty for accepted requests.
        tenant: Tenant the request belongs to; empty when tenancy is
            not configured.
    """

    accepted: bool
    status: int
    node_id: int
    submitted_at: float
    completed_at: float
    latency_ms: float
    retry_after_s: float = 0.0
    trace_id: Optional[int] = None
    reason: str = ""
    tenant: str = ""


OnComplete = Callable[[TxnOutcome], None]


class OutcomeBatch:
    """Terminal outcomes of many transactions, one column per
    :class:`TxnOutcome` field, rows in submission order.

    ``reason`` holds indices into :data:`REASONS` and ``tenant`` indices
    into ``tenant_names`` (``None`` when the requests carried no tenant);
    ``trace_id`` is a list, or ``None`` when request tracing is off.  A
    sink receives the rows a batch lost at submission (503s and 500s)
    as one ``OutcomeBatch`` and the rows it got admitted as another, on
    the tick that serves them.
    """

    __slots__ = (
        "status", "node_id", "submitted_at", "completed_at", "latency_ms",
        "retry_after_s", "trace_id", "reason", "tenant", "tenant_names",
    )

    def __init__(
        self,
        status: np.ndarray,
        node_id: np.ndarray,
        submitted_at: np.ndarray,
        completed_at: np.ndarray,
        latency_ms: np.ndarray,
        retry_after_s: np.ndarray,
        trace_id: Optional[List[int]],
        reason: np.ndarray,
        tenant: Optional[np.ndarray],
        tenant_names: Sequence[str],
    ) -> None:
        self.status = status
        self.node_id = node_id
        self.submitted_at = submitted_at
        self.completed_at = completed_at
        self.latency_ms = latency_ms
        self.retry_after_s = retry_after_s
        self.trace_id = trace_id
        self.reason = reason
        self.tenant = tenant
        self.tenant_names = tenant_names

    def __len__(self) -> int:
        return len(self.status)

    def rows(self) -> List[TxnOutcome]:
        """The batch as one :class:`TxnOutcome` per row."""
        n = len(self)
        status = self.status.tolist()
        names = self.tenant_names
        columns = (  # Python values, in field order
            [code == 200 for code in status],
            status,
            self.node_id.tolist(),
            self.submitted_at.tolist(),
            self.completed_at.tolist(),
            self.latency_ms.tolist(),
            self.retry_after_s.tolist(),
            self.trace_id if self.trace_id is not None else [None] * n,
            [REASONS[code] for code in self.reason.tolist()],
            [names[code] for code in self.tenant.tolist()]
            if self.tenant is not None
            else [""] * n,
        )
        return [TxnOutcome(*row) for row in zip(*columns)]


class AdmissionBatch:
    """What :meth:`ServerEngine.submit_batch` decided, one column per
    :class:`~repro.serve.admission.AdmissionDecision` field (``reason``
    as indices into :data:`REASONS`)."""

    __slots__ = ("accepted", "node_id", "est_queue_seconds", "retry_after_s", "reason")

    def __init__(
        self,
        accepted: np.ndarray,
        node_id: np.ndarray,
        est_queue_seconds: np.ndarray,
        retry_after_s: np.ndarray,
        reason: np.ndarray,
    ) -> None:
        self.accepted = accepted
        self.node_id = node_id
        self.est_queue_seconds = est_queue_seconds
        self.retry_after_s = retry_after_s
        self.reason = reason

    def __len__(self) -> int:
        return len(self.accepted)

    @classmethod
    def of_nothing(cls) -> "AdmissionBatch":
        """The decisions of an empty batch."""
        nobody, nothing = np.zeros(0, dtype=np.int64), np.zeros(0)
        return cls(np.zeros(0, dtype=bool), nobody, nothing, nothing, np.zeros(0, dtype=np.int8))

    def decision(self, row: int) -> AdmissionDecision:
        return AdmissionDecision(
            bool(self.accepted[row]),
            int(self.node_id[row]),
            float(self.est_queue_seconds[row]),
            float(self.retry_after_s[row]),
            reason=REASONS[self.reason[row]],
        )


OutcomeSink = Callable[[OutcomeBatch], None]


class OutcomeLedger:
    """What a front end knows about its outcomes: the only place under
    :mod:`repro.serve` that turns them into SLO verdicts and per-tenant
    counters, shared by :class:`ServerEngine` and
    :class:`~repro.serve.edge.Fleet`.

    A row is **good** when it ended 200 within the latency objective of
    the monitor judging it — the fleet-wide one, and its tenant's own —
    and **bad** otherwise: every 503 and every 500 burns budget.  Verdicts
    pile up over a tick and reach the monitors on :meth:`observe`.
    """

    def __init__(
        self,
        slo: Optional[SLOConfig],
        tenancy: Optional["TenantAdmission"],
        telemetry: Optional[Telemetry],
    ) -> None:
        self.telemetry = telemetry
        self.slo_monitor = SLOMonitor(slo, telemetry) if slo is not None else None
        self.tenancy = tenancy
        #: Per-tenant labelled monitors, keyed by tenant name: the shared
        #: alerting windows, the tenant's *own* latency threshold and
        #: objective from the spec.
        self.tenant_slos: Dict[str, SLOMonitor] = (
            tenancy.slo_monitors(slo or SLOConfig(), telemetry) if tenancy is not None else {}
        )
        # This tick's [good, bad] verdicts, fleet-wide and per tenant.
        self._tally = [0, 0]
        self._tenant_tally: Dict[str, List[int]] = {}

    def _count(self, tenants: np.ndarray, which: str) -> None:
        """Bump ``serve.tenant.<which>`` for each tenant in a registry-indexed
        column by its number of rows (telemetry on only)."""
        tel = self.telemetry
        if tel is not None:
            for index, count in index_counts(tenants):
                name = labeled(f"serve.tenant.{which}", tenant=self.tenancy.names[index])
                tel.counter(name).inc(count)

    def submitted(self, tenants: Optional[np.ndarray], reason: np.ndarray) -> None:
        """Count one ``submit_batch`` call per tenant.  ``reason`` is
        ``admit_batch``'s column over the registry-indexed ``tenants``,
        with ``CONNECTION`` on the rows that never reached the chain —
        which therefore has not counted them offered."""
        tenancy = self.tenancy
        if tenancy is None:
            return
        for index, count in index_counts(tenants[reason == CONNECTION]):
            tenancy.offered[tenancy.names[index]] += count
        self._count(tenants, "offered")
        self._count(tenants[reason == QUOTA], "quota_shed")
        # Brownout closes every sheddable tenant's rows at the tenant
        # stage, so those are exactly the tenant sheds.
        self._count(
            tenants[(reason == BROWNOUT) & tenancy.sheddable[tenants]], "brownout_shed"
        )

    def record(
        self, status: np.ndarray, latency_ms: np.ndarray, tenants: Optional[np.ndarray]
    ) -> None:
        """Tally terminal outcomes (``tenants`` registry-indexed) for
        every monitor, each latency column classified once per monitor."""
        slo = self.slo_monitor
        if slo is None and self.tenancy is None:
            return
        served = status == 200
        if slo is not None:
            good = int(np.count_nonzero(served & slo.classify(latency_ms)))
            self._tally[0] += good
            self._tally[1] += len(status) - good
        if self.tenancy is not None:
            self._count(tenants[served], "served")
            for index, count in index_counts(tenants):
                name = self.tenancy.names[index]
                rows = tenants == index
                within = self.tenant_slos[name].classify(latency_ms[rows])
                good = int(np.count_nonzero(served[rows] & within))
                tally = self._tenant_tally.setdefault(name, [0, 0])
                tally[0] += good
                tally[1] += count - good

    def observe(self, now: float) -> None:
        """Close the tick: hand every monitor its verdicts.  Empty ticks
        still advance the windows (alerts must resolve once the errors
        age out, even with no traffic)."""
        if self.slo_monitor is not None:
            self.slo_monitor.observe(now, *self._tally)
            self._tally = [0, 0]
        for name, monitor in self.tenant_slos.items():
            monitor.observe(now, *self._tenant_tally.pop(name, (0, 0)))

    def monitors(self) -> List[SLOMonitor]:
        """Every monitor configured, the fleet-wide one first."""
        fleet_wide = [self.slo_monitor] if self.slo_monitor is not None else []
        return fleet_wide + list(self.tenant_slos.values())

    def health(self) -> Dict[str, object]:
        """The ``slo`` and ``tenants`` blocks of a health report
        (``None`` for the one not configured)."""
        slo, tenancy = self.slo_monitor, self.tenancy
        return {
            "slo": slo.status() if slo is not None else None,
            "tenants": tenancy.health(self.tenant_slos) if tenancy is not None else None,
        }

    def status_lines(self) -> List[str]:
        """The SLO / tenant lines of a run report."""
        lines = [self.slo_monitor.report_line()] if self.slo_monitor is not None else []
        if self.tenancy is not None:
            lines.extend(self.tenancy.report_lines(self.tenant_slos))
        lines.extend(monitor.report_line() for _, monitor in sorted(self.tenant_slos.items()))
        return lines

    def state_dict(self) -> Dict[str, object]:
        """Every monitor's windows and the tenant buckets and counters,
        taken at a tick boundary (no verdicts pending)."""
        slo, tenancy = self.slo_monitor, self.tenancy
        return {
            "slo": slo.state_dict() if slo is not None else None,
            "tenancy": tenancy.state_dict() if tenancy is not None else None,
            "tenant_slos": {
                name: monitor.state_dict() for name, monitor in sorted(self.tenant_slos.items())
            },
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output; a monitor the snapshot does
        not mention starts empty."""
        for key, target in (("slo", self.slo_monitor), ("tenancy", self.tenancy)):
            if state.get(key) is not None:
                if target is None:
                    raise CheckpointError(
                        f"checkpoint carries {key} state but the restore target has none configured"
                    )
                target.load_state_dict(state[key])  # type: ignore[arg-type]
        load_monitor_states(self.tenant_slos, state.get("tenant_slos"))  # type: ignore[arg-type]


def _earlier_in_group(groups: np.ndarray, counted: np.ndarray) -> np.ndarray:
    """For each row, how many *earlier* rows share its group, counting
    only rows where ``counted`` is true."""
    n = len(groups)
    if n == 1:  # the scalar submit: nothing is earlier
        return np.zeros(1, dtype=np.int64)
    order = np.argsort(groups, kind="stable")
    sorted_groups = groups[order]
    flags = counted[order].astype(np.int64)
    before = np.cumsum(flags) - flags  # counted rows ahead of each, all groups
    first = np.empty(n, dtype=bool)  # first row of each group
    first[0] = True
    np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=first[1:])
    before -= before[first][np.cumsum(first) - 1]
    out = np.empty(n, dtype=np.int64)
    out[order] = before
    return out


class ServerEngine:
    """Serves transactions against the simulated engine, one tick at a time.

    Args:
        engine_config: Engine parameters (``dt_seconds`` is the tick).
        initial_nodes: Machines active at start.
        slot_seconds: Measurement-slot length fed to the load monitor
            (must be a multiple of the tick).
        admission: Shedding policy; defaults shed well below the engine's
            own queue cap.
        controller: Optional elasticity controller implementing the same
            ``on_slot(sim, slot_index, measured_count)`` protocol the
            batch runs use (:class:`~repro.serve.control.
            OnlineControlLoop`, :class:`~repro.core.controller.
            ReactiveController`); checkpointed through its
            ``state_dict`` / ``load_state_dict``.
        seed: Seed for routing and latency sampling.
        trace_requests: Record a per-request span tree on the telemetry
            tracer (requires enabled telemetry).  Tracing never touches
            the routing/latency RNG, so engine results are bit-identical
            with it on or off.
        slo: Enable burn-rate SLO monitoring with this configuration;
            the monitor's state shows up on ``/healthz`` (a firing
            alert degrades the status) and in the run reports.
        resilience: Enable failure detection (per-node circuit breakers
            driven by tick-boundary health probes and request failures)
            and brownout degradation.  With resilience on, the engine
            routes by a *stale router view*: a crashed node keeps
            receiving traffic (each such request errors with status 500
            and feeds the breaker) until its breaker opens, exactly like
            a real router that has not yet noticed the failure.  With
            the default ``None``, behaviour is bit-identical to the
            pre-resilience engine.
        tenancy: Optional :class:`~repro.tenancy.TenantAdmission`.
            With tenancy on, each submitted request carries a tenant
            name; the engine enforces per-tenant token-bucket quotas
            (reason ``"quota"``, deterministic Retry-After), sheds
            low-weight tenants first during brownout, keeps per-tenant
            labelled counters, and runs one labelled burn-rate
            :class:`SLOMonitor` per tenant against that tenant's own
            latency objective.  Tenant admission is RNG-free, so a
            single unthrottled default tenant is bit-identical to the
            untenanted engine.
    """

    def __init__(
        self,
        engine_config: Optional[EngineConfig] = None,
        *,
        initial_nodes: int = 1,
        slot_seconds: float = 60.0,
        admission: Optional[AdmissionConfig] = None,
        controller: Optional[ElasticityController] = None,
        seed: int = 0,
        migration_config: Optional[MigrationConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        telemetry: Optional[Telemetry] = None,
        trace_requests: bool = False,
        slo: Optional[SLOConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
        tenancy: Optional["TenantAdmission"] = None,
    ) -> None:
        config = engine_config or EngineConfig()
        ticks = slot_seconds / config.dt_seconds
        if abs(ticks - round(ticks)) > 1e-9 or ticks < 1:
            raise ConfigurationError(
                f"slot_seconds {slot_seconds}s must be a positive multiple "
                f"of the tick ({config.dt_seconds}s)"
            )
        self.telemetry = resolve_telemetry(telemetry)
        self.sim = EngineSimulator(
            config,
            initial_nodes=initial_nodes,
            migration_config=migration_config,
            fault_injector=fault_injector,
            telemetry=self.telemetry,
        )
        self.monitor = LoadMonitor(slot_seconds)
        self.controller = controller
        self.admission = AdmissionController(admission, self.telemetry)
        if trace_requests and self.telemetry is None:
            raise ConfigurationError(
                "trace_requests needs telemetry enabled on the engine"
            )
        self.request_tracer: Optional[RequestTracer] = (
            RequestTracer(self.telemetry) if trace_requests else None
        )
        self.ledger = OutcomeLedger(slo, tenancy, self.telemetry)
        self.slo_monitor = self.ledger.slo_monitor
        self.tenancy = tenancy
        self.tenant_slos = self.ledger.tenant_slos
        if tenancy is not None and controller is not None and hasattr(
            controller, "set_tenant_stats"
        ):
            # The control loop diffs these cumulative counters per
            # planning interval into per-tenant demand rates, so every
            # replan's audit records the WiSeDB-style violation-cost
            # trade per tenant.
            controller.set_tenant_stats(
                lambda: dict(tenancy.offered),
                {t.name: t.weight for t in tenancy.registry},
            )
        #: Machine-seconds integrated over ticks — the consolidation
        #: experiment's cost axis (machine-hours = this / 3600).
        self.machine_seconds = 0.0
        self._rng = np.random.default_rng(seed)
        # Admitted requests awaiting their tick, one columnar segment per
        # submit_batch call: (node ids, submission times, tenant indices
        # or None, tenant names, trace triples or None, sink).
        self._pending: List[tuple] = []
        self._pending_count = 0
        self._pending_per_node = np.zeros(config.max_nodes)
        self._slot_index = 0
        self.ticks = 0
        self.completed = 0
        #: Worst per-node queue estimate seen at any tick boundary — the
        #: spike tests assert shedding keeps this bounded.
        self.max_node_queue_seconds = 0.0
        self.latency_sum_ms = 0.0
        self.resilience = resilience
        self.health: Optional[NodeHealthMonitor] = (
            NodeHealthMonitor(resilience.breaker, self.telemetry)
            if resilience is not None
            else None
        )
        #: Requests that hit a dead-but-undetected node (status 500).
        self.errors = 0
        self.brownout_active = False
        self.brownout_sheds = 0
        self._failed_set: frozenset = frozenset()
        self._router_view: Optional[np.ndarray] = None
        self._refresh_routing()

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def _refresh_routing(self) -> None:
        """Re-derive the routing CDF and per-node capacity after a tick
        (routing weights only change at tick boundaries)."""
        weights = self.sim.partition_weights()
        p = self.sim.config.partitions_per_node
        max_nodes = self.sim.config.max_nodes
        if self.health is None:
            self._route_cdf = np.cumsum(weights)
        else:
            # Stale router view: the cluster reroutes a crashed node's
            # buckets instantly (physical truth), but the *router* only
            # learns about the failure through the breaker.  A failed
            # node with a non-open breaker keeps its stale weight (and
            # keeps eating traffic, which errors and feeds the breaker);
            # an open breaker zeroes it, which is the reroute.
            cluster_nodes = weights.reshape(max_nodes, p).sum(axis=1)
            self._failed_set = frozenset(self.sim.cluster.failed_nodes())
            if self._router_view is None:
                self._router_view = cluster_nodes.copy()
            view = self._router_view
            for node in range(max_nodes):
                if self.health.state_of(node) == OPEN:
                    view[node] = 0.0
                elif node not in self._failed_set:
                    view[node] = cluster_nodes[node]
                # else: failed but undetected — keep the stale weight.
            if view.sum() <= 0.0:  # pragma: no cover - last node never fails
                view[:] = cluster_nodes
            self._route_cdf = np.cumsum(np.repeat(view / p, p))
        mu = self.sim._mu_base
        self._node_rate = np.maximum(mu.reshape(max_nodes, p).sum(axis=1), 1e-9)
        self._node_queue = self.sim.node_queue_seconds()

    def submit(
        self,
        on_complete: Optional[OnComplete] = None,
        *,
        now: Optional[float] = None,
        trace: Optional[TraceContext] = None,
        priority: int = 0,
        tenant: str = "",
    ) -> AdmissionDecision:
        """Route and admit (or shed) one transaction: a
        :meth:`submit_batch` of one.

        Accepted requests complete on the next :meth:`tick`; rejected
        ones complete immediately.  ``on_complete`` receives the
        :class:`TxnOutcome` either way.  ``trace`` carries the context
        minted at the edge (loadgen/HTTP); when tracing is on and none
        is supplied, one is minted here with origin ``engine``.
        ``priority`` 1 marks the request sheddable during brownout.
        ``tenant`` names the owning tenant when tenancy is configured;
        untagged requests fall back to the spec's first tenant.
        """
        sink: Optional[OutcomeSink] = None
        if on_complete is not None:
            def sink(batch: OutcomeBatch) -> None:
                on_complete(batch.rows()[0])

        # Only ``submit_batch`` and ``now``: a ``Fleet`` shares this method.
        decisions = self.submit_batch(
            np.array([self.now if now is None else float(now)]),
            np.zeros(1, dtype=np.int64) if tenant else None,
            np.array([priority]) if priority else None,
            sink,
            tenant_names=(tenant,),
            traces=(trace,),
        )
        return decisions.decision(0)

    def submit_batch(
        self,
        times: np.ndarray,
        tenants: Optional[np.ndarray] = None,
        priorities: Optional[np.ndarray] = None,
        sink: Optional[OutcomeSink] = None,
        *,
        tenant_names: Sequence[str] = (),
        traces: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> AdmissionBatch:
        """Route and admit (or shed) a batch of transactions.

        The result — outcomes, RNG stream, counters, telemetry, spans —
        is what ``len(times)`` :meth:`submit` calls in row order give:
        routing is one ``rng.random(n)`` draw (the same stream as ``n``
        scalar draws), and each request runs the admission policy chain
        against its node's queue estimate *including the earlier rows
        admitted to that node*.  Rows shed or failed here reach ``sink``
        as one :class:`OutcomeBatch` before this returns; the admitted
        rows reach it as another from the :meth:`tick` that serves them.

        Args:
            times: Submission time per request, seconds.
            tenants: Per-request index into ``tenant_names``; ``None``
                leaves every request untagged (with tenancy on, untagged
                requests belong to the spec's first tenant).
            priorities: Per-request priority (1 = sheddable during
                brownout); ``None`` means all normal.
            sink: Receives the outcomes, columnar.
            tenant_names: The vocabulary ``tenants`` indexes.
            traces: Per-request context minted at the edge; with tracing
                on, rows without one get one minted here, in row order.
        """
        times = np.asarray(times, dtype=np.float64)
        n = len(times)
        if priorities is None:
            priorities = np.zeros(n, dtype=np.int64)
        if n == 0:
            return AdmissionBatch.of_nothing()

        cdf = self._route_cdf
        partition = np.searchsorted(cdf, self._rng.random(n) * cdf[-1])
        node = partition // self.sim.config.partitions_per_node

        tenancy = self.tenancy
        if tenancy is not None:
            tenants = tenancy.registry_indices(tenants, tenant_names, n)
            tenant_names = tenancy.names

        dead: Optional[np.ndarray] = None
        if self.health is not None and self._failed_set:
            # The router's stale view sends these to a corpse: they fail
            # like a refused connection and feed the detector.
            dead = np.isin(node, list(self._failed_set))
            if dead.any():
                self._fail_rows(np.flatnonzero(dead), node, times)

        # The policy chain.  Its queue stage sees each open row behind
        # the earlier open rows bound for its node.
        ahead = np.zeros(n, dtype=np.int64)

        def queue_estimate(open_rows: np.ndarray) -> np.ndarray:
            ahead[:] = _earlier_in_group(node, open_rows)
            return self._queue_estimates(node, ahead)

        brownout = self.resilience.brownout if self.resilience is not None else None
        accepted, reason, retry_after = self.admission.admit_batch(
            times, node, tenants, priorities, dead,
            tenancy=tenancy,
            brownout=brownout if self.brownout_active else None,
            queue_estimate=queue_estimate,
        )
        admitted = int(np.count_nonzero(accepted))
        status = np.full(n, 200)
        if admitted < n:
            # Only admitted rows lengthen a queue: everything behind a
            # node's last admitted row saw the same estimate.
            per_node = np.bincount(node[accepted], minlength=len(self._node_rate))
            np.minimum(ahead, per_node[node], out=ahead)
            status[~accepted] = 503
            if dead is not None:
                reason[dead] = CONNECTION
                status[dead] = 500
            if self.brownout_active:
                self.brownout_sheds += int(np.count_nonzero(reason == BROWNOUT))
        self.ledger.submitted(tenants, reason)
        estimate = self._queue_estimates(node, ahead)

        tracer = self.request_tracer
        trace_ids: Optional[List[int]] = None
        pending_traces: Optional[List[tuple]] = None
        if tracer is not None:
            trace_ids, pending_traces = self._trace_rows(
                traces, times, node, partition, estimate, accepted, status,
                retry_after, reason,
            )

        if admitted:
            if admitted == n:
                segment = (node, times, tenants)
            else:
                segment = (
                    node[accepted], times[accepted],
                    tenants[accepted] if tenants is not None else None,
                )
            self._pending_per_node += np.bincount(
                segment[0], minlength=len(self._pending_per_node)
            )
            self._pending.append((*segment, tenant_names, pending_traces, sink))
            self._pending_count += admitted
        if admitted < n:
            lost = ~accepted
            batch = OutcomeBatch(
                status[lost], node[lost], times[lost], times[lost],
                np.zeros(n - admitted), retry_after[lost],
                [t for t, keep in zip(trace_ids, lost.tolist()) if keep]
                if trace_ids is not None
                else None,
                reason[lost], tenants[lost] if tenants is not None else None,
                tenant_names,
            )
            self.ledger.record(batch.status, batch.latency_ms, batch.tenant)
            if sink is not None:
                sink(batch)
        return AdmissionBatch(accepted, node, estimate, retry_after, reason)

    def _queue_estimates(self, node: np.ndarray, ahead: np.ndarray) -> np.ndarray:
        """Estimated queueing delay on each row's node with ``ahead``
        more requests admitted to it than the last tick left pending."""
        return self._node_queue[node] + (
            self._pending_per_node[node] + ahead
        ) / self._node_rate[node]

    def _fail_rows(self, rows: np.ndarray, node: np.ndarray, times: np.ndarray) -> None:
        """Fail requests routed to a dead node (status 500, breaker fed)."""
        assert self.health is not None
        self.errors += len(rows)
        for node_id, at in zip(node[rows].tolist(), times[rows].tolist()):
            self.health.record_request_failure(node_id, at)
        tel = self.telemetry
        if tel is not None:
            tel.counter("serve.errors").inc(len(rows))
            for node_id, count in index_counts(node[rows]):
                tel.counter(labeled("serve.error", node=node_id)).inc(count)

    def _trace_rows(
        self,
        traces: Optional[Sequence[Optional[TraceContext]]],
        times: np.ndarray,
        node: np.ndarray,
        partition: np.ndarray,
        estimate: np.ndarray,
        accepted: np.ndarray,
        status: np.ndarray,
        retry_after: np.ndarray,
        reason: np.ndarray,
    ) -> Tuple[List[int], List[tuple]]:
        """Record each row's request span tree, in row order so trace and
        span ids come out as under per-request submission.  Returns every
        row's trace id and, per admitted row, the ``(trace_id, root,
        serve_span)`` its completion closes."""
        tracer = self.request_tracer
        assert tracer is not None
        trace_ids: List[int] = []
        pending: List[tuple] = []
        migration_span_id = self.sim.migration_span_id
        columns = zip(
            times.tolist(), node.tolist(), partition.tolist(), estimate.tolist(),
            accepted.tolist(), status.tolist(), retry_after.tolist(), reason.tolist(),
        )
        for row, (at, node_id, part, est, ok, code, retry, why) in enumerate(columns):
            ctx = traces[row] if traces is not None else None
            if ctx is None:
                ctx = tracer.mint()
            trace_ids.append(ctx.trace_id)
            root = tracer.begin_request(
                ctx, at, node=node_id, partition=part, queue_estimate=est,
                migration_span_id=migration_span_id,
            )
            if ok:
                pending.append((ctx.trace_id, root, tracer.record_admitted(root, at)))
            elif code == 500:
                tracer.record_error(root, at, reason=REASONS[why])
            else:
                tracer.record_shed(root, at, retry, reason=REASONS[why])
        return trace_ids, pending

    # ------------------------------------------------------------------
    # Tick path
    # ------------------------------------------------------------------
    @timed("engine.tick")
    def tick(self) -> None:
        """Advance one engine step serving the admitted arrivals."""
        dt = self.sim.config.dt_seconds
        segments = self._pending
        self._pending = []
        self._pending_per_node[:] = 0.0
        admitted = self._pending_count
        self._pending_count = 0
        self.machine_seconds += self.sim.machines_allocated * dt

        self.sim.step(admitted / dt)
        tel = self.telemetry

        if admitted:
            # One draw for the tick; segments take their rows of it in
            # submission order.
            uniforms = self._rng.random(admitted)
            latencies_s = sample_latencies(self.sim.last_latency_components, uniforms)
            latency_ms = latencies_s * 1000.0
            if len(segments) == 1:
                nodes, times, tenants = segments[0][:3]
            else:
                nodes = np.concatenate([segment[0] for segment in segments])
                times = np.concatenate([segment[1] for segment in segments])
                # With tenancy on every segment is indexed by the registry.
                tenants = (
                    np.concatenate([segment[2] for segment in segments])
                    if self.tenancy is not None
                    else None
                )
            completed_at = times + latencies_s
            self.completed += admitted
            self.latency_sum_ms = running_sum(self.latency_sum_ms, latency_ms)
            if tel is not None:
                tel.histogram("serve.latency_ms").observe_many(latency_ms)
            status = np.full(admitted, 200)
            # The whole tick at once, not segment by segment.
            self.ledger.record(status, latency_ms, tenants)
            no_wait = np.zeros(admitted)
            no_reason = np.zeros(admitted, dtype=np.int8)
            tracer = self.request_tracer
            start = 0
            for segment_nodes, _, segment_tenants, names, traces, sink in segments:
                stop = start + len(segment_nodes)
                rows = slice(start, stop)
                trace_ids: Optional[List[int]] = None
                if traces is not None and tracer is not None:
                    trace_ids = []
                    for (trace_id, root, serve_span), done, ms in zip(
                        traces, completed_at[rows].tolist(), latency_ms[rows].tolist()
                    ):
                        tracer.finish_served(root, serve_span, done, ms)
                        trace_ids.append(trace_id)
                if sink is not None:
                    sink(
                        OutcomeBatch(
                            status[rows], nodes[rows], times[rows], completed_at[rows],
                            latency_ms[rows], no_wait[rows], trace_ids, no_reason[rows],
                            segment_tenants, names,
                        )
                    )
                start = stop

        self.ledger.observe(self.sim.now)
        self.ticks += 1
        if self.health is not None:
            self._run_health_checks()
        self._refresh_routing()
        queue_peak = float(self._node_queue.max())
        if queue_peak > self.max_node_queue_seconds:
            self.max_node_queue_seconds = queue_peak
        if tel is not None:
            tel.counter("serve.ticks").inc()
            tel.gauge("serve.node_queue_seconds").set(queue_peak)
            tel.gauge("serve.machines").set(float(self.sim.machines_allocated))
            tel.gauge("serve.machine_hours").set(self.machine_seconds / 3600.0)

        closed = self.monitor.record(float(admitted), dt)
        if closed:
            history = self.monitor.history()
            for value in history[len(history) - closed :]:
                if self.controller is not None:
                    self.controller.on_slot(self.sim, self._slot_index, float(value))
                self._slot_index += 1

    def _run_health_checks(self) -> None:
        """One probe round at the tick boundary; updates brownout state."""
        health = self.health
        assert health is not None
        now = self.sim.now
        failed = self.sim.cluster.failed_nodes()
        tracked = set(failed) | set(health.breakers)
        if self._router_view is not None:
            tracked |= {int(n) for n in np.flatnonzero(self._router_view > 0)}
        else:
            tracked |= {
                int(n) for n in np.flatnonzero(self.sim.cluster.node_weights() > 0)
            }
        health.probe(now, sorted(tracked), failed)
        self.brownout_active = health.switch_brownout(
            now, self.brownout_active, self.resilience.brownout
        )

    # ------------------------------------------------------------------
    # Introspection (the admin endpoints read these)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    @property
    def dt_s(self) -> float:
        """The tick, seconds."""
        return self.sim.config.dt_seconds

    @property
    def live_metrics(self):
        """The registry a per-tick time-series sample reads."""
        return self.telemetry.metrics

    @property
    def pending_requests(self) -> int:
        """Requests admitted but not yet resolved by a tick."""
        return self._pending_count

    @property
    def moves_completed(self) -> int:
        """Reconfigurations that ran to completion so far."""
        in_flight = 1 if self.sim.migration_active else 0
        return self.sim.moves_started - self.sim.migrations_aborted - in_flight

    @property
    def machine_hours(self) -> float:
        """Machine-hours consumed so far (machines integrated over ticks)."""
        return self.machine_seconds / 3600.0

    def healthz(self) -> Dict[str, object]:
        """Liveness/readiness snapshot for the ``/healthz`` endpoint.

        A firing SLO burn-rate alert reports ``degraded`` — it outranks
        ``shedding`` because it means user-visible error budget is
        burning, not merely that backpressure is engaged.
        """
        overloaded = (
            float(self._node_queue.max()) > self.admission.config.queue_limit_seconds
        )
        status = "shedding" if overloaded else "ok"
        if self.brownout_active:
            status = "brownout"
        if any(monitor.alerting for monitor in self.ledger.monitors()):
            status = "degraded"  # whichever monitor fires: a tenant's degrades it too
        health: Dict[str, object] = {
            "status": status,
            "now": self.sim.now,
            "machines": self.sim.machines_allocated,
            "migration_active": self.sim.migration_active,
            "ticks": self.ticks,
            "accepted": self.admission.accepted,
            "rejected": self.admission.rejected,
            "completed": self.completed,
            "moves_started": self.sim.moves_started,
            "moves_completed": self.moves_completed,
            "max_node_queue_seconds": round(self.max_node_queue_seconds, 3),
        }
        if self.health is not None:
            health["errors"] = self.errors
            health["brownout"] = self.brownout_active
            health["brownout_sheds"] = self.brownout_sheds
            health["breakers"] = {
                str(node): state for node, state in self.health.states().items()
            }
        health.update((k, v) for k, v in self.ledger.health().items() if v is not None)
        return health

    @property
    def detects_failures(self) -> bool:
        """Whether requests can end as 500s (failure detection is on);
        the session report then prints the conservation identity."""
        return self.health is not None

    def status_lines(self) -> List[str]:
        """The engine's part of the run report, one string per line."""
        health = self.healthz()
        lines = [
            f"machines now: {health['machines']} | moves started "
            f"{health['moves_started']} | completed {health['moves_completed']} | "
            f"peak node queue {health['max_node_queue_seconds']}s"
        ]
        lines.extend(self.ledger.status_lines())
        if self.health is not None:
            states = ", ".join(
                f"n{node}={state}" for node, state in sorted(health["breakers"].items())
            )
            lines.append(
                f"resilience: errors {health['errors']} | "
                f"brownout sheds {health['brownout_sheds']} | "
                f"breakers: {states or 'none tracked'}"
            )
        return lines

    # ------------------------------------------------------------------
    # Snapshot (the ``engine`` and ``control`` sections of a checkpoint)
    # ------------------------------------------------------------------
    def _fingerprint(self) -> Dict[str, object]:
        config = self.sim.config
        return {
            "dt_seconds": config.dt_seconds,
            "max_nodes": config.max_nodes,
            "partitions_per_node": config.partitions_per_node,
            "saturation_rate_per_node": config.saturation_rate_per_node,
            "num_buckets": config.num_buckets,
            "db_size_kb": config.db_size_kb,
            "slot_seconds": self.monitor.slot_seconds,
            "queue_limit_seconds": self.admission.config.queue_limit_seconds,
            "resilience": self.resilience is not None,
            "tenants": (
                self.tenancy.registry.names() if self.tenancy is not None else None
            ),
        }

    def ensure_quiescent(self) -> None:
        """Raise :class:`CheckpointError` unless the engine is snapshotable."""
        if self.sim.migration_active:
            raise CheckpointError("cannot checkpoint with a migration in flight")
        if self.pending_requests:
            raise CheckpointError(
                f"cannot checkpoint with {self.pending_requests} admitted "
                "requests awaiting their tick"
            )
        injector = self.sim.fault_injector
        if injector is not None and not injector.exhausted:
            raise CheckpointError(
                "cannot checkpoint with unresolved fault activity "
                "(pending events, recoveries or straggler windows)"
            )

    def state_dict(self) -> Dict[str, object]:
        """The checkpoint sections this engine owns: ``engine`` (its
        deterministic serving state) and ``control`` (the controller's,
        ``None`` without one).  Raises
        :class:`CheckpointError` unless the engine is quiescent."""
        self.ensure_quiescent()
        sim = self.sim
        monitor = self.monitor
        state: Dict[str, object] = {
            "config": self._fingerprint(),
            "now": sim.now,
            "rng": _rng_state(self._rng),
            "backlog": sim._backlog.tolist(),
            "topology": sim.cluster.topology_state(),
            "moves_started": sim.moves_started,
            "migrations_aborted": sim.migrations_aborted,
            "monitor": {
                "closed": list(monitor._closed),
                "seed_len": monitor._seed_len,
                "current": monitor._current,
                "current_elapsed": monitor._current_elapsed,
            },
            "counters": {
                "ticks": self.ticks,
                "completed": self.completed,
                "latency_sum_ms": self.latency_sum_ms,
                "max_node_queue_seconds": self.max_node_queue_seconds,
                "slot_index": self._slot_index,
                "accepted": self.admission.accepted,
                "rejected": self.admission.rejected,
                "errors": self.errors,
                "brownout_sheds": self.brownout_sheds,
                "brownout_active": self.brownout_active,
            },
            "health": self.health.state_dict() if self.health is not None else None,
            "router_view": (
                self._router_view.tolist() if self._router_view is not None else None
            ),
            "machine_seconds": self.machine_seconds,
            **self.ledger.state_dict(),
        }
        controller = self.controller
        return {
            "engine": state,
            "control": None if controller is None else controller.state_dict(),
        }

    def load_state_dict(self, snapshot: Dict[str, object]) -> None:
        """Overwrite a freshly-built engine from :meth:`state_dict` output.

        The engine must have been constructed with the configuration the
        snapshot was taken from (fingerprint-verified), and must not have
        served anything yet.
        """
        state = snapshot.get("engine")
        if not isinstance(state, dict) or "config" not in state:
            raise CheckpointError(
                "checkpoint does not hold a single-engine snapshot "
                "(a fleet checkpoint restores with DistributedServeSession.resume)"
            )
        fingerprint = self._fingerprint()
        if state["config"] != fingerprint:
            raise CheckpointError(
                f"checkpoint engine config {state['config']} does not match "
                f"this engine {fingerprint}"
            )
        if self.ticks or self.admission.total:
            raise CheckpointError("restore target engine has already served traffic")
        sim = self.sim
        sim.now = float(state["now"])
        _set_rng_state(self._rng, state["rng"])
        sim._backlog[:] = np.asarray(state["backlog"], dtype=np.float64)
        sim.cluster.restore_topology(state["topology"])
        sim._moves_started = int(state["moves_started"])
        sim.migrations_aborted = int(state["migrations_aborted"])
        monitor_state: Dict[str, object] = state["monitor"]
        self.monitor._closed = [float(v) for v in monitor_state["closed"]]
        self.monitor._seed_len = int(monitor_state["seed_len"])
        self.monitor._current = float(monitor_state["current"])
        self.monitor._current_elapsed = float(monitor_state["current_elapsed"])
        counters: Dict[str, object] = state["counters"]
        self.ticks = int(counters["ticks"])
        self.completed = int(counters["completed"])
        self.latency_sum_ms = float(counters["latency_sum_ms"])
        self.max_node_queue_seconds = float(counters["max_node_queue_seconds"])
        self._slot_index = int(counters["slot_index"])
        self.admission.accepted = int(counters["accepted"])
        self.admission.rejected = int(counters["rejected"])
        self.errors = int(counters["errors"])
        self.brownout_sheds = int(counters["brownout_sheds"])
        self.brownout_active = bool(counters["brownout_active"])
        health_state = state.get("health")
        if health_state is not None:
            if self.health is None:
                raise CheckpointError(
                    "checkpoint carries breaker state but resilience is disabled"
                )
            self.health.load_state_dict(health_state)
        router_view = state.get("router_view")
        if router_view is not None:
            self._router_view = np.asarray(router_view, dtype=np.float64)
        self.machine_seconds = float(state.get("machine_seconds", 0.0))
        self.ledger.load_state_dict(state)
        self._refresh_routing()
        control_state = snapshot.get("control")
        controller = self.controller
        if (control_state is None) != (controller is None):
            raise CheckpointError(
                "checkpoint carries "
                f"{'no ' if control_state is None else ''}control state but "
                f"the engine has {'no' if controller is None else 'a'} controller"
            )
        if controller is not None:
            try:
                controller.load_state_dict(control_state)
            except KeyError as exc:
                raise CheckpointError(
                    "checkpoint control state was not written by a "
                    f"{type(controller).__name__} (no {exc} entry)"
                ) from exc

