"""Time-stepped engine simulator: load, latency and live reconfiguration.

This is the substitute for the paper's 10-node H-Store testbed (see
DESIGN.md).  It advances a :class:`~repro.engine.cluster.Cluster` through
time in small steps (1 second by default, matching the paper's
per-second latency accounting):

* the offered aggregate load is routed to partitions proportionally to
  the data they hold (the uniform-workload assumption), optionally
  perturbed by transient skew events;
* each partition is a fluid queue with a shifted-exponential latency
  distribution (:mod:`repro.engine.queueing`);
* an in-flight :class:`~repro.engine.migration.Migration` blocks the
  participating partitions for chunk pauses and gradually shifts routing
  weight to the new machines — reproducing the *effective capacity*
  behaviour of Equation 7 and the latency interference that motivates
  predictive provisioning.

An :class:`ElasticityController` hooked into the run decides when to
reconfigure; P-Store's Predictive Controller and the reactive baseline
both implement this protocol.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.params import PAPER_SLA_MS
from repro.engine.cluster import Cluster
from repro.engine.migration import Migration, MigrationConfig
from repro.engine.monitor import LoadMonitor
from repro.engine.queueing import (
    LatencyComponents,
    fluid_queue_batch,
    fluid_queue_step,
    latency_components,
    latency_components_steps,
    mixture_mean,
    mixture_quantiles,
    mixture_quantiles_steps,
)
from repro.engine.table import DatabaseSchema
from repro.errors import ConfigurationError, EngineError, MigrationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultEvent,
    MigrationStall,
    NodeCrash,
    NodeStraggler,
    TransferFailure,
)
from repro.faults.runtime import new_default_injector
from repro.telemetry import Telemetry, resolve_telemetry
from repro.telemetry.tracer import Span
from repro.workloads.trace import LoadTrace


@dataclass(frozen=True)
class EngineConfig:
    """Static configuration of the simulated engine.

    Defaults mirror the paper's testbed (Section 8): 6 partitions per
    node, single-node saturation at 438 txn/s, a 1106 MB database, and a
    500 ms latency SLA.
    """

    partitions_per_node: int = 6
    saturation_rate_per_node: float = 438.0
    base_service_ms: float = 25.0
    db_size_kb: float = 1106.0 * 1024.0
    num_buckets: int = 1024
    max_nodes: int = 10
    dt_seconds: float = 1.0
    sla_ms: float = PAPER_SLA_MS
    #: Maximum per-partition backlog, in seconds of service.  Benchmark
    #: clients are closed-loop: with a bounded number of outstanding
    #: requests, sustained overload saturates latency instead of growing
    #: the queue without bound.
    max_queue_seconds: float = 30.0
    #: Force the exact step-by-step path in :meth:`EngineSimulator.run`,
    #: disabling the steady-slot fast path (which is numerically identical
    #: but collapses converged slots into one computed step).
    force_exact_stepping: bool = False

    def __post_init__(self) -> None:
        if self.partitions_per_node < 1 or self.max_nodes < 1:
            raise ConfigurationError("partitions_per_node and max_nodes must be >= 1")
        if self.saturation_rate_per_node <= 0:
            raise ConfigurationError("saturation_rate_per_node must be positive")
        if self.dt_seconds <= 0:
            raise ConfigurationError("dt_seconds must be positive")

    @property
    def partition_service_rate(self) -> float:
        return self.saturation_rate_per_node / self.partitions_per_node


@dataclass(frozen=True)
class SkewEvent:
    """Transient workload skew: one partition receives extra load.

    Models the short hot spells the paper attributes its static-cluster
    latency blips to ("transient workload skew", Section 8.2).
    """

    start_seconds: float
    end_seconds: float
    partition_index: int
    factor: float = 3.0

    def active(self, now: float) -> bool:
        return self.start_seconds <= now < self.end_seconds


class ElasticityController(Protocol):
    """Decision hook driving reconfigurations during a run."""

    def on_slot(self, sim: "EngineSimulator", slot_index: int, measured_load: float) -> None:
        """Called after every completed measurement slot."""


@dataclass
class RunResult:
    """Per-step records of a simulation run (arrays share one index)."""

    dt_seconds: float
    sla_ms: float
    time: np.ndarray
    offered: np.ndarray
    served: np.ndarray
    p50_ms: np.ndarray
    p95_ms: np.ndarray
    p99_ms: np.ndarray
    mean_ms: np.ndarray
    machines: np.ndarray
    reconfiguring: np.ndarray

    def average_machines(self) -> float:
        return float(self.machines.mean())

    def total_cost(self) -> float:
        """Machine-seconds over the run (the Equation 1 cost, continuous)."""
        return float(self.machines.sum() * self.dt_seconds)


class EngineSimulator:
    """Drives a cluster through an offered-load trace.

    Args:
        config: Engine configuration.
        initial_nodes: Machines active at time zero.
        schema: Optional database schema (rate-based runs need none).
        migration_config: Default chunking/pacing for reconfigurations.
    """

    def __init__(
        self,
        config: EngineConfig,
        initial_nodes: int = 1,
        schema: Optional[DatabaseSchema] = None,
        migration_config: Optional[MigrationConfig] = None,
        fault_injector: Optional[FaultInjector] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.config = config
        self.cluster = Cluster(
            schema or DatabaseSchema(),
            initial_nodes=initial_nodes,
            partitions_per_node=config.partitions_per_node,
            num_buckets=config.num_buckets,
            max_nodes=config.max_nodes,
        )
        self.migration_config = migration_config or MigrationConfig()
        self.migration: Optional[Migration] = None
        self.now = 0.0
        #: Floor a manual-provisioning overlay holds, at most the healthy
        #: nodes: controllers never target fewer machines (0: no floor).
        self.min_machines = 0
        total_partitions = config.max_nodes * config.partitions_per_node
        self._backlog = np.zeros(total_partitions)
        self._mu_full = np.full(total_partitions, config.partition_service_rate)
        self.skew_events: List[SkewEvent] = []
        self._moves_started = 0
        #: Fault injection (repro.faults).  When no injector is passed,
        #: the process-wide default plan (the CLI's ``--faults`` flag)
        #: applies; with neither, runs are fault-free and byte-identical
        #: to the pre-fault engine.
        self.fault_injector = fault_injector or new_default_injector()
        self.migrations_aborted = 0
        #: Service rates with active straggler degradation folded in, or
        #: ``None`` while no straggler window is open.
        self._mu_degraded: Optional[np.ndarray] = None
        # Partition-weight caches, keyed on the cluster's routing version
        # (and the set of active skew events for the final weights), so
        # steady steps never recompute routing.
        self._base_weights: Optional[np.ndarray] = None
        self._base_weights_version = -1
        self._weights_cache: Optional[np.ndarray] = None
        self._weights_key: Optional[tuple] = None
        #: Slots served by the steady-slot fast path in :meth:`run`.
        self.fast_slots = 0
        #: Slots served by the batched (S x P) slot kernel in :meth:`run`
        #: (quiet slots whose backlog is still draining or filling).
        self.batched_slots = 0
        # Quantile memo for repeated identical steps outside :meth:`run`
        # (driver loops calling :meth:`step` directly).  Purely a cache:
        # a hit returns exactly what recomputation would, so results are
        # bit-identical with the memo disabled.
        self._quant_memo: Optional[tuple] = None
        #: Latency mixture of the most recent computed step.  The serving
        #: layer samples per-request latencies from it; ``None`` until the
        #: first step.  (The steady-slot fast path reuses the slot's first
        #: step, whose components are by definition identical.)
        self.last_latency_components: Optional[LatencyComponents] = None
        #: Telemetry handle (explicit, or the process default installed
        #: by the CLI's ``--telemetry`` flag).  ``None`` when disabled:
        #: every hot-path instrumentation site guards on that alone, so
        #: an uninstrumented run stays bit-identical (test_fast_path).
        self.telemetry = resolve_telemetry(telemetry)
        self._migration_span: Optional[Span] = None
        if self.telemetry is not None:
            self.telemetry.set_meta(
                sla_ms=config.sla_ms,
                dt_seconds=config.dt_seconds,
                partitions_per_node=config.partitions_per_node,
                max_nodes=config.max_nodes,
            )
            self.cluster.telemetry = self.telemetry
            if self.fault_injector is not None:
                self.fault_injector.telemetry = self.telemetry

    # ------------------------------------------------------------------
    # Reconfiguration control
    # ------------------------------------------------------------------
    @property
    def migration_active(self) -> bool:
        return self.migration is not None and not self.migration.completed

    @property
    def machines_allocated(self) -> int:
        return self.cluster.num_active_nodes

    def start_move(self, target_nodes: int, *, boost: float = 1.0) -> Migration:
        """Begin a live reconfiguration to ``target_nodes`` machines.

        Raises MigrationError if one is already in flight or the target
        equals the current size.
        """
        if self.migration_active:
            raise MigrationError("a reconfiguration is already in flight")
        migration_config = self.migration_config
        if boost != 1.0:
            migration_config = dataclasses.replace(migration_config, boost=boost)
        before = self.cluster.num_active_nodes
        self.migration = Migration(
            self.cluster,
            target_nodes,
            self.config.db_size_kb,
            migration_config,
            telemetry=self.telemetry,
        )
        self._moves_started += 1
        tel = self.telemetry
        if tel is not None:
            tel.counter("engine.moves_started").inc()
            self._migration_span = tel.tracer.begin(
                "migration",
                at=self.now,
                **{"from": before, "to": target_nodes, "boost": boost},
            )
            if self.migration.completed:  # zero-round schedule
                self._finish_migration_span("ok")
        return self.migration

    def _finish_migration_span(self, status: str) -> None:
        if self._migration_span is not None:
            self.telemetry.tracer.end(
                self._migration_span, at=self.now, status=status
            )
            self._migration_span = None

    @property
    def moves_started(self) -> int:
        return self._moves_started

    @property
    def migration_span_id(self) -> Optional[int]:
        """Span id of the in-flight migration, if one is being traced —
        request traces carry it so overlapping requests can be joined
        against the reconfiguration they rode through."""
        return (
            self._migration_span.span_id
            if self._migration_span is not None
            else None
        )

    # ------------------------------------------------------------------
    # Fault handling (repro.faults; recovery semantics in
    # docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def _abort_migration(self) -> None:
        """Drop the in-flight move.  Routing only flips per completed
        round, so the partial state is crash-consistent: a valid (if
        intermediate) allocation the controller can replan from."""
        self.migration = None
        self.migrations_aborted += 1
        if self.fault_injector is not None:
            self.fault_injector.stats.migrations_aborted += 1
        if self.telemetry is not None:
            self.telemetry.counter("engine.migrations_aborted").inc()
            self._finish_migration_span("aborted")

    def _recompute_straggler_mu(self) -> None:
        active = (
            self.fault_injector.active_stragglers() if self.fault_injector else []
        )
        if not active:
            self._mu_degraded = None
            return
        factors = np.ones(len(self._mu_full))
        p = self.config.partitions_per_node
        for node_id, factor in active:
            factors[node_id * p : (node_id + 1) * p] *= factor
        self._mu_degraded = self._mu_full * factors

    @property
    def _mu_base(self) -> np.ndarray:
        """Per-partition service rates, degraded by active stragglers."""
        return self._mu_degraded if self._mu_degraded is not None else self._mu_full

    def _record_fault(self, event: FaultEvent, outcome: str) -> None:
        tel = self.telemetry
        if tel is None:
            return
        tel.counter(f"faults.{outcome}").inc()
        tel.event(
            "fault",
            self.now,
            fault=type(event).__name__,
            outcome=outcome,
            node_id=getattr(event, "node_id", None),
        )

    def _apply_fault_event(self, event: FaultEvent) -> None:
        stats = self.fault_injector.stats
        if isinstance(event, NodeCrash):
            node_id = event.node_id
            if (
                node_id >= self.cluster.max_nodes
                or self.cluster.nodes[node_id].failed
                or (
                    self.cluster.nodes[node_id].active
                    and self.cluster.num_active_nodes <= 1
                )
            ):
                stats.crashes_skipped += 1
                self._record_fault(event, "skipped")
                return
            # A membership change invalidates any in-flight move
            # schedule; abort it so the controller replans from the
            # surviving allocation.
            if self.migration is not None and not self.migration.completed:
                self._abort_migration()
            stats.buckets_rerouted += self.cluster.fail_node(node_id)
            stats.crashes_injected += 1
            self._record_fault(event, "injected")
            if event.recover_after_seconds is not None:
                self.fault_injector.schedule_recovery(
                    node_id, event.at_seconds + event.recover_after_seconds
                )
        elif isinstance(event, NodeStraggler):
            if event.node_id >= self.cluster.max_nodes:
                self._record_fault(event, "skipped")
                return
            self.fault_injector.add_straggler(
                event.node_id,
                event.factor,
                event.at_seconds + event.duration_seconds,
            )
            stats.stragglers_injected += 1
            self._record_fault(event, "injected")
            self._recompute_straggler_mu()
        elif isinstance(event, TransferFailure):
            if not self.migration_active:
                stats.transfer_failures_skipped += 1
                self._record_fault(event, "skipped")
                return
            stats.transfer_failures_injected += 1
            self._record_fault(event, "injected")
            try:
                for _ in range(event.count):
                    self.migration.inject_transfer_failure()
                    stats.transfer_retries += 1
            except MigrationError:
                stats.transfers_failed_permanently += 1
                self._abort_migration()
        elif isinstance(event, MigrationStall):
            if not self.migration_active:
                stats.stalls_skipped += 1
                self._record_fault(event, "skipped")
                return
            self.migration.inject_stall(event.duration_seconds)
            stats.stalls_injected += 1
            self._record_fault(event, "injected")

    def _apply_due_faults(self) -> None:
        """Fire everything the fault schedule owes us at ``self.now``."""
        injector = self.fault_injector
        stats = injector.stats
        expired = injector.straggler_expirations(self.now)
        if expired:
            stats.stragglers_recovered += len(expired)
            self._recompute_straggler_mu()
        for node_id in injector.recoveries_due(self.now):
            try:
                self.cluster.recover_node(node_id)
                stats.nodes_recovered += 1
            except EngineError:
                pass
        for event in injector.events_due(self.now):
            self._apply_fault_event(event)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _partition_weights(self) -> np.ndarray:
        """Arrival-weight per partition: node data share, split evenly
        over the node's partitions, then skewed by active events.

        Two-level cache: the routing-derived base weights are reused
        until the cluster's routing version changes (i.e. a migration
        round lands), and the final skew-adjusted weights are reused
        while the set of active skew events is unchanged.  Callers must
        not mutate the returned array.
        """
        version = self.cluster.routing_version
        now = self.now
        active = tuple(
            i for i, event in enumerate(self.skew_events) if event.active(now)
        )
        key = (version, active)
        if key == self._weights_key:
            return self._weights_cache  # type: ignore[return-value]

        if version != self._base_weights_version:
            p = self.config.partitions_per_node
            node_weights = np.asarray(self.cluster.node_weights())
            self._base_weights = np.repeat(node_weights / p, p)
            self._base_weights.setflags(write=False)
            self._base_weights_version = version
        weights = self._base_weights
        if active:
            weights = weights.copy()
            for i in active:
                event = self.skew_events[i]
                if weights[event.partition_index] > 0:
                    weights[event.partition_index] *= event.factor
        total = weights.sum()
        if total > 0:
            weights = weights / total
        # Cached arrays are handed to the serving layer; freeze them so a
        # caller can't silently corrupt the routing cache.
        weights.setflags(write=False)
        self._weights_cache = weights
        self._weights_key = key
        return weights

    def partition_weights(self) -> np.ndarray:
        """Current arrival-weight per partition (read-only view for
        routing decisions in the serving layer)."""
        return self._partition_weights()

    def node_queue_seconds(self) -> np.ndarray:
        """Estimated queueing delay per node, in seconds of service.

        The mean of each node's partition backlogs divided by their
        (possibly straggler-degraded) service rates — the delay a new
        request routed to a random partition of the node expects, and
        the admission controller's view of queue depth.  The mean (not
        the sum) keeps the unit consistent with the in-tick pending
        term ``pending / node_rate``: both grow by ``admitted /
        node_rate`` seconds when ``admitted`` requests spread evenly
        over the node's partitions.
        """
        p = self.config.partitions_per_node
        per_partition = self._backlog / np.maximum(self._mu_base, 1e-9)
        return per_partition.reshape(self.config.max_nodes, p).mean(axis=1)

    def _step_core(
        self, offered_rate: float
    ) -> Tuple[float, float, float, float, float, float, bool]:
        """Advance one step; returns ``(served_rate, p50_ms, p95_ms,
        p99_ms, mean_ms, machines, reconfiguring)`` and bumps ``now``."""
        dt = self.config.dt_seconds
        block_seconds = None
        block_weight = None
        reconfiguring = False

        if self.fault_injector is not None and not self.fault_injector.exhausted:
            self._apply_due_faults()

        if self.migration is not None and not self.migration.completed:
            try:
                mig_step = self.migration.step(dt)
            except MigrationError:
                # The schedule became invalid mid-flight (a node died
                # under it): abort; the controller replans next slot.
                self._abort_migration()
                mig_step = None
            if mig_step is not None:
                if self.fault_injector is not None:
                    self.fault_injector.stats.stalls_recovered += (
                        self.migration.take_recovered_stalls()
                    )
                reconfiguring = mig_step.active or mig_step.blocked
                # The migration precomputes dense per-partition block
                # arrays (engine/migration.py); consume them as-is.
                block_seconds = mig_step.block_seconds
                block_weight = mig_step.block_weight
                if mig_step.completed:
                    self.migration = None
                    if self.telemetry is not None:
                        self._finish_migration_span("ok")

        mu_base = self._mu_base
        weights = self._partition_weights()
        offered = offered_rate * weights
        if block_weight is None:
            mu_eff = mu_base
        else:
            mu_eff = mu_base * (1.0 - block_weight)

        # Quantile memo: repeated steps at the same operating point (same
        # offered rate, routing weights, service rates and backlog, no
        # migration blocking) would recompute identical quantiles, so the
        # bisection is skipped.  Keys compare weights/mu by object
        # identity (both caches rebind on change) and the backlog by
        # value; the stored pre-step backlog is safe to keep by reference
        # because the fluid step rebinds ``self._backlog`` rather than
        # mutating it.
        memo = self._quant_memo
        if (
            block_weight is None
            and memo is not None
            and memo[0] == offered_rate
            and memo[1] is weights
            and memo[2] is mu_eff
            and np.array_equal(memo[3], self._backlog)
        ):
            p50, p95, p99, mean, components = memo[4]
            self.last_latency_components = components
        else:
            components = latency_components(
                self._backlog,
                offered,
                mu_eff,
                base_service_s=self.config.base_service_ms / 1000.0,
                block_seconds=block_seconds,
                block_weight=block_weight,
            )
            self.last_latency_components = components
            p50, p95, p99 = mixture_quantiles(components, (0.50, 0.95, 0.99))
            mean = mixture_mean(components)
            if block_weight is None:
                self._quant_memo = (
                    offered_rate,
                    weights,
                    mu_eff,
                    self._backlog,
                    (p50, p95, p99, mean, components),
                )

        self._backlog, served = fluid_queue_step(self._backlog, offered, mu_eff, dt)
        if self.config.max_queue_seconds > 0:
            np.minimum(
                self._backlog,
                self._mu_full * self.config.max_queue_seconds,
                out=self._backlog,
            )
        self.now += dt
        served_rate = float(served.sum() / dt)
        machines = float(self.machines_allocated)
        tel = self.telemetry
        if tel is not None:
            # The only per-step telemetry cost; everything is O(1) or one
            # O(P) reduction, and the branch is dead when telemetry is off.
            tel.counter("engine.steps").inc()
            tel.histogram("engine.p99_ms").observe(p99 * 1000.0)
            tel.timeline.tick(
                t=self.now,
                offered=offered_rate,
                served=served_rate,
                p50_ms=p50 * 1000.0,
                p95_ms=p95 * 1000.0,
                p99_ms=p99 * 1000.0,
                machines=machines,
                reconfiguring=reconfiguring,
                queue_depth=float(self._backlog.sum()),
                capacity=float(mu_eff.sum()),
            )
        return (
            served_rate,
            p50 * 1000.0,
            p95 * 1000.0,
            p99 * 1000.0,
            mean * 1000.0,
            machines,
            reconfiguring,
        )

    def step(self, offered_rate: float) -> Dict[str, float]:
        """Advance one step of ``dt_seconds`` at the given offered load.

        Returns the step record (written into the run arrays when called
        from :meth:`run`).
        """
        served, p50, p95, p99, mean, machines, reconfiguring = self._step_core(
            offered_rate
        )
        return {
            "time": self.now,
            "offered": offered_rate,
            "served": served,
            "p50_ms": p50,
            "p95_ms": p95,
            "p99_ms": p99,
            "mean_ms": mean,
            "machines": machines,
            "reconfiguring": float(reconfiguring),
        }

    def _skew_constant_over(self, start: float, last: float) -> bool:
        """True when no skew event starts or ends in ``(start, last]`` —
        i.e. the active-event set is identical at every step time of the
        slot whose first step was evaluated at ``start``."""
        for event in self.skew_events:
            if start < event.start_seconds <= last or start < event.end_seconds <= last:
                return False
        return True

    def _run_slot_batched(
        self, rate: float, remaining: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Advance ``remaining`` quiet steps as one ``(S, P)`` kernel.

        Covers the slots the steady fast path bails on: no migration, no
        fault activity, no skew transition — but a backlog that is still
        draining or filling, so every step differs.  The fluid recurrence
        runs inside numpy (:func:`fluid_queue_batch`), consecutive
        duplicate backlog rows collapse to one latency evaluation, and
        quantiles for the distinct rows are bisected in one vectorized
        call.  Bit-identical to the exact loop (tests/test_fast_path.py).

        Returns per-step ``(times, served_rates, p50_ms, p95_ms, p99_ms,
        mean_ms)`` rows; the caller scatters them into the run columns.
        """
        dt = self.config.dt_seconds
        weights = self._partition_weights()
        mu_eff = self._mu_base
        offered = rate * weights
        max_backlog = (
            self._mu_full * self.config.max_queue_seconds
            if self.config.max_queue_seconds > 0
            else None
        )
        pre, served, final = fluid_queue_batch(
            self._backlog, offered, mu_eff, dt, remaining, max_backlog=max_backlog
        )
        served_rates = served.sum(axis=1) / dt

        # A draining queue converges: once consecutive backlog rows are
        # bit-equal, their latency mixtures are too.
        reps = np.empty(remaining, dtype=np.intp)
        distinct = [0]
        reps[0] = 0
        for s in range(1, remaining):
            if np.array_equal(pre[s], pre[distinct[-1]]):
                reps[s] = len(distinct) - 1
            else:
                distinct.append(s)
                reps[s] = len(distinct) - 1
        w, delays, tails = latency_components_steps(
            pre[np.asarray(distinct, dtype=np.intp)],
            offered,
            mu_eff,
            base_service_s=self.config.base_service_ms / 1000.0,
        )
        q_rows = mixture_quantiles_steps(w, delays, tails, (0.50, 0.95, 0.99))
        means = np.empty(len(distinct))
        for k in range(len(distinct)):
            means[k] = mixture_mean(LatencyComponents(w, delays[k], tails))
        q_all = q_rows[reps] * 1000.0
        mean_ms = means[reps] * 1000.0

        # Repeated addition reproduces the exact path's time accumulation.
        times = np.empty(remaining)
        now = self.now
        for s in range(remaining):
            now += dt
            times[s] = now
        self.now = now
        self._backlog = final
        self.last_latency_components = LatencyComponents(
            w, delays[reps[remaining - 1]], tails
        )
        self.batched_slots += 1

        tel = self.telemetry
        if tel is not None:
            # Replicate the exact path's per-step instrumentation so an
            # enabled timeline matches it record for record.
            tel.counter("engine.batched_slots").inc()
            steps_counter = tel.counter("engine.steps")
            p99_hist = tel.histogram("engine.p99_ms")
            machines = float(self.machines_allocated)
            capacity = float(mu_eff.sum())
            for s in range(remaining):
                steps_counter.inc()
                p99_hist.observe(q_all[s, 2])
                post = pre[s + 1] if s + 1 < remaining else final
                tel.timeline.tick(
                    t=times[s],
                    offered=rate,
                    served=float(served_rates[s]),
                    p50_ms=q_all[s, 0],
                    p95_ms=q_all[s, 1],
                    p99_ms=q_all[s, 2],
                    machines=machines,
                    reconfiguring=False,
                    queue_depth=float(post.sum()),
                    capacity=capacity,
                )
        return times, served_rates, q_all[:, 0], q_all[:, 1], q_all[:, 2], mean_ms

    # ------------------------------------------------------------------
    def run(
        self,
        trace: LoadTrace,
        controller: Optional[ElasticityController] = None,
        monitor: Optional[LoadMonitor] = None,
    ) -> RunResult:
        """Replay a load trace, invoking the controller once per slot.

        Args:
            trace: Offered load (requests per slot).  Slot duration sets
                the measurement/prediction granularity.
            controller: Optional elasticity controller.
            monitor: Optional pre-seeded load monitor (training history);
                one matching ``trace.slot_seconds`` is created otherwise.

        Returns:
            Per-step :class:`RunResult` records.
        """
        dt = self.config.dt_seconds
        steps_per_slot = trace.slot_seconds / dt
        if abs(steps_per_slot - round(steps_per_slot)) > 1e-9:
            raise ConfigurationError(
                f"slot duration {trace.slot_seconds}s must be a multiple of "
                f"dt {dt}s"
            )
        steps_per_slot = int(round(steps_per_slot))
        monitor = monitor or LoadMonitor(trace.slot_seconds)

        # All RunResult columns are preallocated; steps write by index.
        n_steps = len(trace) * steps_per_slot
        time_col = np.empty(n_steps)
        offered_col = np.empty(n_steps)
        served_col = np.empty(n_steps)
        p50_col = np.empty(n_steps)
        p95_col = np.empty(n_steps)
        p99_col = np.empty(n_steps)
        mean_col = np.empty(n_steps)
        machines_col = np.empty(n_steps)
        recon_col = np.zeros(n_steps, dtype=bool)

        fast_allowed = not self.config.force_exact_stepping and steps_per_slot > 1
        rates = trace.per_second()
        idx = 0
        for slot_index in range(len(trace)):
            rate = float(rates[slot_index])
            slot_served = 0.0

            # First step of the slot always runs exactly; if it leaves the
            # simulator state untouched (converged backlog, no migration,
            # no skew transition inside the slot), every remaining step of
            # the slot would produce the same record, so they are emitted
            # in one vectorized shot.
            slot_start = self.now
            pre_backlog = self._backlog  # _step_core rebinds, never mutates
            was_migrating = self.migration_active
            vals = self._step_core(rate)
            served, p50, p95, p99, mean, machines, reconfiguring = vals
            time_col[idx] = self.now
            offered_col[idx] = rate
            served_col[idx] = served
            p50_col[idx] = p50
            p95_col[idx] = p95
            p99_col[idx] = p99
            mean_col[idx] = mean
            machines_col[idx] = machines
            recon_col[idx] = reconfiguring
            slot_served += served * dt
            idx += 1

            remaining = steps_per_slot - 1
            if remaining > 0:
                last_t = slot_start + (steps_per_slot - 1) * dt
                quiet = (
                    fast_allowed
                    and not was_migrating
                    and not self.migration_active
                    and self._skew_constant_over(slot_start, last_t)
                    and (
                        self.fault_injector is None
                        or self.fault_injector.quiet_over(slot_start, last_t)
                    )
                )
                steady = quiet and np.array_equal(self._backlog, pre_backlog)
                if steady:
                    end = idx + remaining
                    offered_col[idx:end] = rate
                    served_col[idx:end] = served
                    p50_col[idx:end] = p50
                    p95_col[idx:end] = p95
                    p99_col[idx:end] = p99
                    mean_col[idx:end] = mean
                    machines_col[idx:end] = machines
                    recon_col[idx:end] = reconfiguring
                    # Repeated addition reproduces the exact path's float
                    # accumulation bit for bit.
                    now = self.now
                    step_served = served * dt
                    for j in range(remaining):
                        now += dt
                        time_col[idx + j] = now
                        slot_served += step_served
                    self.now = now
                    idx = end
                    self.fast_slots += 1
                    tel = self.telemetry
                    if tel is not None:
                        # The collapsed steps are identical to the slot's
                        # first step; replicate their ticks so an enabled
                        # timeline matches the exact path record for
                        # record (only the timestamps advance).
                        tel.counter("engine.fast_slots").inc()
                        template = tel.timeline.ticks[-1]
                        steps_counter = tel.counter("engine.steps")
                        p99_hist = tel.histogram("engine.p99_ms")
                        ticks = tel.timeline.ticks
                        for j in range(remaining):
                            steps_counter.inc()
                            p99_hist.observe(template["p99_ms"])
                            ticks.append(
                                dict(template, t=time_col[end - remaining + j])
                            )
                elif quiet:
                    times, srates, p50r, p95r, p99r, meanr = self._run_slot_batched(
                        rate, remaining
                    )
                    end = idx + remaining
                    time_col[idx:end] = times
                    offered_col[idx:end] = rate
                    served_col[idx:end] = srates
                    p50_col[idx:end] = p50r
                    p95_col[idx:end] = p95r
                    p99_col[idx:end] = p99r
                    mean_col[idx:end] = meanr
                    machines_col[idx:end] = float(self.machines_allocated)
                    # recon_col stays False: quiet slots never reconfigure.
                    for s in range(remaining):
                        slot_served += float(srates[s]) * dt
                    idx = end
                else:
                    for _ in range(remaining):
                        served, p50, p95, p99, mean, machines, reconfiguring = (
                            self._step_core(rate)
                        )
                        time_col[idx] = self.now
                        offered_col[idx] = rate
                        served_col[idx] = served
                        p50_col[idx] = p50
                        p95_col[idx] = p95
                        p99_col[idx] = p99
                        mean_col[idx] = mean
                        machines_col[idx] = machines
                        recon_col[idx] = reconfiguring
                        slot_served += served * dt
                        idx += 1

            monitor.record(slot_served, trace.slot_seconds)
            if controller is not None:
                controller.on_slot(self, slot_index, slot_served)

        return RunResult(
            dt_seconds=dt,
            sla_ms=self.config.sla_ms,
            time=time_col,
            offered=offered_col,
            served=served_col,
            p50_ms=p50_col,
            p95_ms=p95_col,
            p99_ms=p99_col,
            mean_ms=mean_col,
            machines=machines_col,
            reconfiguring=recon_col,
        )
