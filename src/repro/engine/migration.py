"""Squall-like chunked live migration (Sections 2, 6 and 8.1).

Squall migrates data in small *chunks* while the database keeps serving
transactions.  Each chunk briefly occupies the source and destination
partitions (extraction, shipping, loading); small chunks (1000 kB in the
paper) make this pause invisible, larger chunks cause tail-latency spikes
(Figure 8).  The long-run migration pace is the rate ``R`` (244 kB/s per
thread pair in the paper); when P-Store must react to an unpredicted
spike it can *boost* the pace to ``R x 8`` at the price of more blocking
(Figure 11).

A :class:`Migration` executes a :class:`~repro.core.schedule.MoveSchedule`
round by round against a :class:`~repro.engine.cluster.Cluster`:

* machines are (de)allocated just in time, following the schedule;
* all transfers of the current round run in parallel (``P`` partition
  pairs per node pair);
* when a round completes, the buckets assigned to its node pairs flip
  ownership, which shifts routing weight onto the new owners — this is
  how the *effective capacity* of Equation 7 emerges in the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.partition_plan import PartitionPlan, plan_move
from repro.core.schedule import MoveSchedule, build_move_schedule
from repro.engine.cluster import Cluster
from repro.errors import EngineError, MigrationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry


@dataclass(frozen=True)
class MigrationConfig:
    """Tuning knobs of the migration subsystem.

    Attributes:
        chunk_kb: Migration chunk size (paper default: 1000 kB).
        rate_kbps: Sustained migration rate ``R`` per thread pair
            (paper: 244 kB/s, including chunk spacing).
        extract_kbps: Processing bandwidth while a chunk blocks its
            source/destination partition; ``chunk_kb / extract_kbps`` is
            the per-chunk pause length.
        boost: Rate multiplier for reactive catch-up (``R x 8``).
        max_retries: Consecutive failures of one chunk tolerated before
            the migration fails permanently (surfaced as
            :class:`~repro.errors.MigrationError`).
        backoff_base_s: Delay before the first retry of a failed chunk;
            doubles per consecutive failure (exponential backoff).
        backoff_cap_s: Upper bound on any single retry delay.
    """

    chunk_kb: float = 1000.0
    rate_kbps: float = 244.0
    extract_kbps: float = 25000.0
    boost: float = 1.0
    max_retries: int = 3
    backoff_base_s: float = 2.0
    backoff_cap_s: float = 30.0

    def __post_init__(self) -> None:
        if min(self.chunk_kb, self.rate_kbps, self.extract_kbps) <= 0:
            raise MigrationError("chunk_kb, rate_kbps and extract_kbps must be > 0")
        if self.boost < 1.0:
            raise MigrationError("boost must be >= 1")
        if self.max_retries < 0:
            raise MigrationError("max_retries must be >= 0")
        if self.backoff_base_s <= 0:
            raise MigrationError("backoff_base_s must be > 0")
        if self.backoff_cap_s < self.backoff_base_s:
            raise MigrationError("backoff_cap_s must be >= backoff_base_s")

    def retry_delay_s(self, attempt: int) -> float:
        """Capped exponential backoff before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise MigrationError("retry attempt is 1-based")
        return min(self.backoff_base_s * 2.0 ** (attempt - 1), self.backoff_cap_s)

    @property
    def effective_rate_kbps(self) -> float:
        return self.rate_kbps * self.boost

    @property
    def chunk_period_s(self) -> float:
        """Seconds between chunk completions on one thread pair."""
        return self.chunk_kb / self.effective_rate_kbps

    @property
    def chunk_block_s(self) -> float:
        """Partition pause per chunk."""
        return self.chunk_kb / self.extract_kbps


@dataclass
class MigrationStep:
    """Per-step effects of an in-flight migration on the cluster.

    Chunk-blocking effects are precomputed dense arrays over *all*
    global partition ids (``None`` when nothing was blocked):
    ``block_seconds[pid]`` is the longest single block affecting the
    partition this step and ``block_weight[pid]`` the fraction of the
    step it spent blocked — exactly the arrays the simulator's latency
    model consumes, so the hot path does no per-step dict building.
    """

    active: bool
    completed: bool
    machines_allocated: int
    block_seconds: Optional[np.ndarray] = None
    block_weight: Optional[np.ndarray] = None
    fraction_completed: float = 0.0

    @property
    def blocked(self) -> bool:
        """True when any partition was chunk-blocked this step."""
        return self.block_seconds is not None


class Migration:
    """One in-flight reconfiguration of a cluster.

    Args:
        cluster: The cluster being reconfigured.
        target_nodes: Machine count after the move.
        db_size_kb: Total database size (drives round durations).
        config: Chunking and pacing parameters.
    """

    def __init__(
        self,
        cluster: Cluster,
        target_nodes: int,
        db_size_kb: float,
        config: Optional[MigrationConfig] = None,
        telemetry: "Optional[Telemetry]" = None,
    ) -> None:
        before = cluster.num_active_nodes
        if target_nodes < 1 or target_nodes > cluster.max_nodes:
            raise MigrationError(
                f"target_nodes {target_nodes} outside [1, {cluster.max_nodes}]"
            )
        if db_size_kb <= 0:
            raise MigrationError("db_size_kb must be positive")
        if target_nodes == before:
            raise MigrationError("target equals current size; nothing to migrate")
        self.cluster = cluster
        self.before = before
        self.after = target_nodes
        self.db_size_kb = db_size_kb
        self.config = config or MigrationConfig()
        self.schedule: MoveSchedule = build_move_schedule(
            before, target_nodes, cluster.partitions_per_node
        )
        # The schedule and bucket plan work in *logical* machine slots
        # 0..max(before, after)-1; ``self._phys`` maps each slot to a
        # physical node id.  With no failed nodes this is the identity,
        # reproducing the pre-fault behaviour bit for bit; after a crash
        # the surviving holders keep their data and new slots map onto
        # healthy spares, skipping dead node ids.
        holders = sorted(node.node_id for node in cluster.nodes if node.active)
        phys = list(holders)
        if target_nodes > before:
            spares = [
                node.node_id
                for node in cluster.nodes
                if not node.active and not node.failed
            ]
            extra = target_nodes - before
            if len(spares) < extra:
                raise MigrationError(
                    f"scale-out to {target_nodes} needs {extra} spare nodes "
                    f"but only {len(spares)} are healthy"
                )
            phys.extend(spares[:extra])
        self._phys: Tuple[int, ...] = tuple(phys)
        to_logical = {p: i for i, p in enumerate(self._phys)}
        logical_plan = PartitionPlan(
            [
                to_logical[cluster.plan.node_of(bucket)]
                for bucket in range(cluster.num_buckets)
            ],
            before,
        )
        # Bucket batches per logical (sender, receiver) pair, computed
        # once from the balanced partition plan.
        _, transfers = plan_move(logical_plan, target_nodes)
        self._buckets: Dict[Tuple[int, int], Tuple[int, ...]] = {
            (t.sender, t.receiver): t.buckets for t in transfers
        }
        self.current_round = 0
        self._elapsed_in_round = 0.0
        self._chunk_accumulator = 0.0
        #: Per-round cache of the blocked-partition index array (and the
        #: total partition-id space it scatters into).
        self._round_ids_cache: Optional[np.ndarray] = None
        self._num_partition_ids = cluster.max_nodes * cluster.partitions_per_node
        self.completed = self.schedule.num_rounds == 0
        #: Fault bookkeeping (see repro.faults): pending pause seconds
        #: (stall windows + retry backoff), retry/stall counters.
        self._pause_remaining = 0.0
        self._consecutive_failures = 0
        self._pending_stall_recoveries = 0
        self._cleared_stalls = 0
        self.chunk_failures = 0
        self.retries = 0
        self.stalls = 0
        self.failed_permanently = False
        #: Resolved telemetry handle (the simulator passes its own); the
        #: round/retry/stall accounting below is dead when ``None``.
        self.telemetry = telemetry
        self._apply_allocation()

    # ------------------------------------------------------------------
    @property
    def round_seconds(self) -> float:
        """Duration of one round at the configured (possibly boosted) rate."""
        pair_kb = self.db_size_kb * self.schedule.data_per_transfer()
        per_thread_kb = pair_kb / self.cluster.partitions_per_node
        return per_thread_kb / self.config.effective_rate_kbps

    @property
    def total_seconds(self) -> float:
        return self.schedule.num_rounds * self.round_seconds

    @property
    def fraction_completed(self) -> float:
        if self.completed:
            return 1.0
        done_rounds = self.current_round
        partial = min(self._elapsed_in_round / max(self.round_seconds, 1e-12), 1.0)
        return (done_rounds + partial) / self.schedule.num_rounds

    # ------------------------------------------------------------------
    def _apply_allocation(self) -> None:
        """Activate/deactivate nodes per the current round's allocation."""
        if self.completed:
            allocated = self.after
        else:
            allocated = self.schedule.machines_allocated_at(self.current_round)
        wanted = set(self._phys[:allocated])
        for node in self.cluster.nodes:
            if node.failed:
                continue
            desired = node.node_id in wanted
            if node.active != desired:
                self.cluster.set_active(node.node_id, desired)

    def _round_block_ids(self) -> np.ndarray:
        """Global partition ids participating in the current round, as a
        sorted index array — computed once per round and reused by every
        step instead of rebuilding a set per step."""
        if self._round_ids_cache is not None:
            return self._round_ids_cache
        ids = set()
        if not self.completed:
            p = self.cluster.partitions_per_node
            for transfer in self.schedule.rounds[self.current_round].transfers:
                for slot in (transfer.sender, transfer.receiver):
                    node = self._phys[slot]
                    for local in range(p):
                        ids.add(node * p + local)
        self._round_ids_cache = np.fromiter(
            sorted(ids), dtype=np.intp, count=len(ids)
        )
        return self._round_ids_cache

    def _check_round_nodes(self) -> None:
        """Every endpoint of the current round must still be usable.

        A node that crashed (or was deallocated behind the migration's
        back) invalidates the schedule; surfacing this as a
        :class:`~repro.errors.MigrationError` lets the control loop abort
        and replan instead of dying on a low-level engine error.
        """
        rnd = self.schedule.rounds[self.current_round]
        for transfer in rnd.transfers:
            for slot in (transfer.sender, transfer.receiver):
                node = self.cluster.nodes[self._phys[slot]]
                if node.failed:
                    raise MigrationError(
                        f"transfer {transfer.sender}->{transfer.receiver} "
                        f"references failed node {node.node_id}; "
                        "the move schedule is invalid"
                    )

    def _complete_round(self) -> None:
        """Flip bucket ownership for the finished round's node pairs."""
        rnd = self.schedule.rounds[self.current_round]
        for transfer in rnd.transfers:
            buckets = self._buckets.get((transfer.sender, transfer.receiver), ())
            receiver = self._phys[transfer.receiver]
            for bucket in buckets:
                try:
                    self.cluster.move_bucket(bucket, receiver)
                except EngineError as exc:
                    raise MigrationError(
                        f"cannot complete transfer to node {receiver}: {exc}"
                    ) from exc
        self.current_round += 1
        self._elapsed_in_round = 0.0
        self._round_ids_cache = None
        if self.telemetry is not None:
            self.telemetry.counter("migration.rounds_completed").inc()
        if self.current_round >= self.schedule.num_rounds:
            self.completed = True
            if self.after < self.before:
                self.cluster.compact_plan(max(self._phys[: self.after]) + 1)
        self._apply_allocation()

    # ------------------------------------------------------------------
    # Fault injection (see repro.faults and docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def inject_transfer_failure(self) -> float:
        """One in-flight chunk is lost; schedule its retry.

        The chunk's progress is rolled back (it must be re-shipped) and
        the migration pauses for a capped exponential backoff before the
        retry.  Returns the scheduled backoff delay.  A streak of more
        than ``config.max_retries`` consecutive failures — the streak
        resets once a backoff drains and progress resumes — marks the
        migration permanently failed and raises ``MigrationError``.
        """
        if self.completed:
            raise MigrationError("no migration in flight to fail a transfer of")
        cfg = self.config
        self.chunk_failures += 1
        self._consecutive_failures += 1
        if self._consecutive_failures > cfg.max_retries:
            self.failed_permanently = True
            if self.telemetry is not None:
                self.telemetry.counter("migration.failed_permanently").inc()
            raise MigrationError(
                f"chunk transfer failed permanently after {cfg.max_retries} "
                "retries"
            )
        self._elapsed_in_round = max(
            0.0, self._elapsed_in_round - cfg.chunk_period_s
        )
        delay = cfg.retry_delay_s(self._consecutive_failures)
        self._pause_remaining += delay
        self.retries += 1
        if self.telemetry is not None:
            self.telemetry.counter("migration.chunk_retries").inc()
            self.telemetry.histogram(
                "migration.retry_backoff_s", buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
            ).observe(delay)
        return delay

    def inject_stall(self, duration_s: float) -> None:
        """The current transfers stop making progress for ``duration_s``
        seconds, after which they are re-enqueued automatically."""
        if self.completed:
            raise MigrationError("no migration in flight to stall")
        if duration_s <= 0:
            raise MigrationError("stall duration must be positive")
        self.stalls += 1
        self._pending_stall_recoveries += 1
        self._pause_remaining += duration_s
        if self.telemetry is not None:
            self.telemetry.counter("migration.stalls").inc()

    def take_recovered_stalls(self) -> int:
        """Stall windows that fully drained since the last call (their
        transfers were re-enqueued); consumed by the fault-stats ledger."""
        recovered = self._cleared_stalls
        self._cleared_stalls = 0
        return recovered

    # ------------------------------------------------------------------
    def step(self, dt: float) -> MigrationStep:
        """Advance the migration by ``dt`` seconds.

        Returns the step's effects: which partitions were blocked (and
        for how long), the machine allocation, and completion status.
        Multiple rounds may complete within one step for coarse ``dt``.
        Pending stall/backoff pauses consume step time before any
        progress is made (the transfers are suspended, so partitions are
        not chunk-blocked during a pause).
        """
        if dt <= 0:
            raise MigrationError("dt must be positive")
        if self.completed:
            return MigrationStep(False, True, self.after, None, None, 1.0)
        self._check_round_nodes()

        effective_dt = dt
        if self._pause_remaining > 0.0:
            consumed = min(self._pause_remaining, dt)
            self._pause_remaining -= consumed
            effective_dt = dt - consumed
            if self._pause_remaining <= 1e-12:
                self._pause_remaining = 0.0
                # The retried chunk (and any re-enqueued stalled
                # transfer) is back in flight: the failure streak ends.
                self._consecutive_failures = 0
                self._cleared_stalls += self._pending_stall_recoveries
                self._pending_stall_recoveries = 0

        block_seconds: Optional[np.ndarray] = None
        block_weight: Optional[np.ndarray] = None
        cfg = self.config
        if effective_dt > 0.0:
            # Chunk pauses: every chunk_period seconds, each active
            # partition pauses for chunk_block seconds.
            self._chunk_accumulator += effective_dt
            chunks_this_step = int(self._chunk_accumulator / cfg.chunk_period_s)
            self._chunk_accumulator -= chunks_this_step * cfg.chunk_period_s
            block_total = min(chunks_this_step * cfg.chunk_block_s, dt)
            single_block = min(cfg.chunk_block_s, dt) if chunks_this_step else 0.0
            if block_total > 0:
                ids = self._round_block_ids()
                if len(ids):
                    block_seconds = np.zeros(self._num_partition_ids)
                    block_weight = np.zeros(self._num_partition_ids)
                    block_seconds[ids] = single_block
                    block_weight[ids] = block_total / dt

        remaining = effective_dt
        while remaining > 0 and not self.completed:
            left_in_round = self.round_seconds - self._elapsed_in_round
            if remaining >= left_in_round:
                remaining -= left_in_round
                self._complete_round()
            else:
                self._elapsed_in_round += remaining
                remaining = 0.0

        allocated = (
            self.after
            if self.completed
            else self.schedule.machines_allocated_at(self.current_round)
        )
        return MigrationStep(
            active=not self.completed,
            completed=self.completed,
            machines_allocated=allocated,
            block_seconds=block_seconds,
            block_weight=block_weight,
            fraction_completed=self.fraction_completed,
        )
