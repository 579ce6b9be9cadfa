"""The shared-nothing cluster: nodes, partitions and key routing.

Mirrors H-Store's layout (Section 2 of the paper): a cluster of nodes,
each hosting ``P`` logical partitions; tables split horizontally by a
partitioning key; keys hash to virtual buckets; a
:class:`~repro.core.partition_plan.PartitionPlan` assigns buckets to
nodes.  Within a node, a bucket maps deterministically to the local
partition ``bucket % P``, so routing is a pure function of the key and
the current plan.

Hot state lives in flat numpy arrays (struct-of-arrays): node
activity/failure flags, the bucket→node assignment and per-node bucket
counts.  The :class:`~repro.engine.node.Node` objects in ``nodes`` are
views over those arrays, and the immutable
:class:`~repro.core.partition_plan.PartitionPlan` is materialised lazily
from the assignment array — per-bucket flips during a migration round
are O(1) array writes instead of O(num_buckets) plan rebuilds.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.core.partition_plan import DEFAULT_NUM_BUCKETS, PartitionPlan
from repro.engine.hashing import Key
from repro.engine.node import Node
from repro.engine.partition import Partition
from repro.engine.table import DatabaseSchema
from repro.errors import ConfigurationError, EngineError, NodeFailedError


class Cluster:
    """A simulated H-Store-like cluster.

    Args:
        schema: Database schema shared by all partitions.
        initial_nodes: Machines allocated at start.
        partitions_per_node: Logical partitions per machine (``P``).
        num_buckets: Virtual buckets the key space is split into.
        max_nodes: Upper bound on machines that can ever be allocated.
        partitioner: Key-to-bucket scheme (a
            :class:`~repro.engine.partitioning.Partitioner`); defaults to
            MurmurHash 2.0 hash partitioning, the paper's configuration.
    """

    def __init__(
        self,
        schema: DatabaseSchema,
        initial_nodes: int = 1,
        partitions_per_node: int = 6,
        num_buckets: int = DEFAULT_NUM_BUCKETS,
        max_nodes: int = 64,
        partitioner: "Optional[object]" = None,
    ) -> None:
        if initial_nodes < 1:
            raise EngineError("initial_nodes must be >= 1")
        if initial_nodes > max_nodes:
            raise EngineError("initial_nodes exceeds max_nodes")
        if partitions_per_node < 1:
            raise EngineError("partitions_per_node must be >= 1")
        self.schema = schema
        self.partitions_per_node = partitions_per_node
        self.num_buckets = num_buckets
        self.max_nodes = max_nodes
        # Struct-of-arrays node state; the Node objects below are views.
        self._active = np.zeros(max_nodes, dtype=bool)
        self._active[:initial_nodes] = True
        self._failed = np.zeros(max_nodes, dtype=bool)
        self._num_active = initial_nodes
        self.nodes: List[Node] = [
            Node(node_id, cluster=self) for node_id in range(max_nodes)
        ]
        if partitioner is None:
            from repro.engine.partitioning import HashPartitioner

            partitioner = HashPartitioner(num_buckets)
        if getattr(partitioner, "num_buckets", num_buckets) != num_buckets:
            raise EngineError(
                "partitioner bucket count must match the cluster's num_buckets"
            )
        self.partitioner = partitioner
        initial_plan = PartitionPlan.balanced(initial_nodes, num_buckets)
        self._assignment = np.array(initial_plan.as_tuple(), dtype=np.int64)
        self._plan_num_nodes = initial_plan.num_nodes
        self._bucket_counts = np.bincount(self._assignment, minlength=max_nodes)
        self._routing_version = 0
        self._plan_cache: Optional[PartitionPlan] = initial_plan
        self._plan_cache_version = 0
        self._node_weights_cache: Optional[np.ndarray] = None
        #: Telemetry handle, installed by the owning simulator (None when
        #: instrumentation is off; every use below guards on that).
        self.telemetry = None

    def _build_partitions(self, node_id: int) -> List[Partition]:
        """Materialise one node's Partition objects (lazy; see Node)."""
        p = self.partitions_per_node
        return [
            Partition(node_id * p + local, node_id, self.schema)
            for local in range(p)
        ]

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def num_active_nodes(self) -> int:
        return self._num_active

    def active_nodes(self) -> List[Node]:
        return [self.nodes[i] for i in np.flatnonzero(self._active)]

    def _set_active_flag(self, node_id: int, active: bool) -> None:
        """Write-through for the Node views: flips the flag and keeps the
        active-node counter consistent.  No failed-state validation —
        that belongs to :meth:`set_active`."""
        if bool(self._active[node_id]) != active:
            self._active[node_id] = active
            self._num_active += 1 if active else -1

    def set_active(self, node_id: int, active: bool) -> None:
        if not 0 <= node_id < self.max_nodes:
            raise EngineError(f"node {node_id} out of range")
        if active and self._failed[node_id]:
            raise NodeFailedError(
                f"node {node_id} has failed and cannot be activated"
            )
        self._set_active_flag(node_id, active)

    @property
    def num_available_nodes(self) -> int:
        """Node slots that could be allocated: everything not failed."""
        return int(self.max_nodes - self._failed.sum())

    def failed_nodes(self) -> List[int]:
        return [int(i) for i in np.flatnonzero(self._failed)]

    def partitions(self, only_active: bool = True) -> List[Partition]:
        out: List[Partition] = []
        for node_id in range(self.max_nodes):
            if self._active[node_id] or not only_active:
                out.extend(self.nodes[node_id].partitions)
        return out

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def bucket_of(self, key: Key) -> int:
        return self.partitioner.bucket_of(key)

    @property
    def plan(self) -> PartitionPlan:
        """The current :class:`PartitionPlan`, materialised lazily from
        the assignment array and cached until the next routing change."""
        if (
            self._plan_cache is None
            or self._plan_cache_version != self._routing_version
        ):
            self._plan_cache = PartitionPlan(
                self._assignment.tolist(), self._plan_num_nodes
            )
            self._plan_cache_version = self._routing_version
        return self._plan_cache

    def partition_of_bucket(self, bucket: int) -> Partition:
        node_id = int(self._assignment[bucket])
        if self._failed[node_id]:
            raise NodeFailedError(
                f"bucket {bucket} routed to failed node {node_id}"
            )
        if not self._active[node_id]:
            raise EngineError(
                f"bucket {bucket} routed to inactive node {node_id}"
            )
        return self.nodes[node_id].partitions[bucket % self.partitions_per_node]

    def route(self, key: Key) -> Partition:
        """The partition responsible for ``key`` under the current plan."""
        return self.partition_of_bucket(self.bucket_of(key))

    # ------------------------------------------------------------------
    # Data placement and movement
    # ------------------------------------------------------------------
    def move_bucket(self, bucket: int, new_node: int) -> int:
        """Physically relocate one bucket's rows to ``new_node``.

        Returns the number of rows moved.  Used by the migration
        subsystem as each bucket's final chunk lands; routing switches to
        the new owner atomically with the data.
        """
        old_node = int(self._assignment[bucket])
        if old_node == new_node:
            return 0
        if self._failed[new_node]:
            raise NodeFailedError(f"cannot move bucket to failed node {new_node}")
        if not self._active[new_node]:
            raise EngineError(f"cannot move bucket to inactive node {new_node}")
        moved = self._relocate_bucket_rows(bucket, old_node, new_node)
        self._assignment[bucket] = new_node
        self._plan_num_nodes = max(self._plan_num_nodes, new_node + 1)
        self._bucket_counts[old_node] -= 1
        self._bucket_counts[new_node] += 1
        self._invalidate_routing()
        if self.telemetry is not None:
            self.telemetry.counter("cluster.buckets_moved").inc()
            self.telemetry.counter("cluster.rows_moved").inc(moved)
        return moved

    def _relocate_bucket_rows(self, bucket: int, old_node: int, new_node: int) -> int:
        """Ship one bucket's rows between the nodes' local partitions."""
        local = bucket % self.partitions_per_node
        source = self.nodes[old_node].partitions[local]
        target = self.nodes[new_node].partitions[local]
        moved = 0
        for table in self.schema.names():
            keys = [
                key
                for key in source.all_keys(table)
                if self.bucket_of(key) == bucket
            ]
            rows = source.extract_rows(table, keys)
            target.install_rows(table, rows)
            moved += len(rows)
        return moved

    # ------------------------------------------------------------------
    # Failures (see repro.faults and docs/ROBUSTNESS.md)
    # ------------------------------------------------------------------
    def fail_node(self, node_id: int) -> int:
        """Crash a node: emergency re-route its buckets to the survivors.

        The dead node's buckets are spread round-robin over the remaining
        active nodes (the same balancing idiom as a planned scale-in) and
        their rows are restored onto the new owners — the simulator state
        stands in for the replica a production deployment would recover
        from.  Routing flips atomically (one ``routing_version`` bump).

        Returns the number of buckets re-routed.  Failing an idle spare
        is legal and re-routes nothing; failing the last active node is
        refused because there is nowhere left to route.
        """
        if not 0 <= node_id < self.max_nodes:
            raise EngineError(f"node {node_id} out of range")
        if self._failed[node_id]:
            raise NodeFailedError(f"node {node_id} has already failed")
        if self._active[node_id] and self._num_active <= 1:
            raise EngineError("cannot fail the last active node")
        was_active = bool(self._active[node_id])
        self._failed[node_id] = True
        self._set_active_flag(node_id, False)
        if not was_active:
            return 0
        survivors = np.flatnonzero(self._active)
        owned = np.flatnonzero(self._assignment == node_id)
        receivers = survivors[(np.arange(len(owned)) + node_id) % len(survivors)]
        for bucket, receiver in zip(owned.tolist(), receivers.tolist()):
            self._relocate_bucket_rows(bucket, node_id, receiver)
        self._assignment[owned] = receivers
        self._bucket_counts[node_id] -= len(owned)
        np.add.at(self._bucket_counts, receivers, 1)
        if len(owned):
            # Survivors can include nodes above the plan's current width
            # (a crash during a scale-out, after new machines activated).
            self._plan_num_nodes = max(
                self._plan_num_nodes, int(receivers.max()) + 1
            )
        self._invalidate_routing()
        if self.telemetry is not None:
            self.telemetry.counter("cluster.nodes_failed").inc()
            self.telemetry.counter("cluster.buckets_rerouted").inc(len(owned))
        return int(len(owned))

    def recover_node(self, node_id: int) -> None:
        """A failed node comes back — as an empty, *inactive* spare.

        It holds no buckets until a future reconfiguration scales onto
        it; recovery only returns the slot to the allocatable pool.
        """
        if not 0 <= node_id < self.max_nodes:
            raise EngineError(f"node {node_id} out of range")
        if not self._failed[node_id]:
            raise EngineError(f"node {node_id} has not failed")
        self._failed[node_id] = False
        if self.telemetry is not None:
            self.telemetry.counter("cluster.nodes_recovered").inc()

    def compact_plan(self, num_nodes: int) -> None:
        """Shrink the plan's node count after a completed scale-in.

        All buckets must already live on nodes below ``num_nodes``.
        """
        stray = np.flatnonzero(self._assignment >= num_nodes)
        if len(stray):
            raise EngineError(
                f"cannot compact to {num_nodes} nodes: buckets "
                f"{stray[:5].tolist()} still on departing nodes"
            )
        self._plan_num_nodes = num_nodes
        self._invalidate_routing()

    def data_fractions(self) -> Dict[int, float]:
        """Fraction of buckets per node (``f_n`` of Equation 6)."""
        holders = np.flatnonzero(self._bucket_counts)
        return {
            int(node): float(self._bucket_counts[node]) / self.num_buckets
            for node in holders
        }

    def _invalidate_routing(self) -> None:
        """Drop routing-derived caches after a plan change."""
        self._routing_version += 1
        self._node_weights_cache = None

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def topology_state(self) -> Dict[str, object]:
        """JSON-serializable routing topology (flags + bucket map)."""
        return {
            "active": [int(v) for v in self._active],
            "failed": [int(v) for v in self._failed],
            "assignment": self._assignment.tolist(),
            "plan_num_nodes": int(self._plan_num_nodes),
        }

    def restore_topology(self, state: Dict[str, object]) -> None:
        """Overwrite flags and bucket routing from a topology snapshot.

        The cluster must have the same shape (``max_nodes``, bucket
        count) as the one snapshotted; derived caches are invalidated.
        """
        assignment = np.asarray(state["assignment"], dtype=np.int64)
        if len(assignment) != len(self._assignment):
            raise ConfigurationError(
                f"topology snapshot has {len(assignment)} buckets, "
                f"cluster has {len(self._assignment)}"
            )
        active = np.asarray(state["active"], dtype=bool)
        failed = np.asarray(state["failed"], dtype=bool)
        if len(active) != self.max_nodes or len(failed) != self.max_nodes:
            raise ConfigurationError(
                "topology snapshot node count does not match max_nodes"
            )
        self._active[:] = active
        self._failed[:] = failed
        self._num_active = int(active.sum())
        self._assignment[:] = assignment
        self._bucket_counts = np.bincount(assignment, minlength=self.max_nodes)
        self._plan_num_nodes = int(state["plan_num_nodes"])  # type: ignore[arg-type]
        self._invalidate_routing()

    @property
    def routing_version(self) -> int:
        """Monotone counter bumped whenever bucket routing changes.

        Consumers (the engine simulator) key their own derived caches on
        this, so per-step work is only redone when a migration actually
        moved data.
        """
        return self._routing_version

    def node_weights(self) -> np.ndarray:
        """Bucket-count weight of every node slot (zeros for empty/idle).

        The simulator routes offered load proportionally to these weights
        (uniform-workload assumption of Section 4.2).  Returns a
        read-only float array, cached until the next routing change —
        mutation attempts raise instead of silently corrupting routing.
        """
        if self._node_weights_cache is None:
            weights = self._bucket_counts / float(self.num_buckets)
            weights.setflags(write=False)
            self._node_weights_cache = weights
        return self._node_weights_cache

    def total_rows(self) -> int:
        return sum(node.row_count() for node in self.nodes)

    # ------------------------------------------------------------------
    # Statistics (Section 8.1 uniformity analysis)
    # ------------------------------------------------------------------
    def access_counts_per_partition(self) -> List[int]:
        return [p.stats.accesses for p in self.partitions()]

    def rows_per_partition(self) -> List[int]:
        return [p.row_count() for p in self.partitions()]

    def reset_stats(self) -> None:
        for partition in self.partitions(only_active=False):
            partition.stats.reset()
