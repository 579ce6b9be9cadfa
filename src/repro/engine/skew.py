"""E-Store-style hot-spot detection and rebalancing (extension).

The paper's conclusion names the obvious next step: "Future work should
investigate combining these ideas to build a system which uses
predictive modeling for proactive reconfiguration, but also manages
skew" the way E-Store [31] does.  This module implements that missing
leg at bucket granularity, following E-Store's two-tier scheme
(Section 2 of the paper):

1. **Coarse monitoring**: watch per-partition access counters; trigger
   when the hottest partition exceeds a threshold multiple of the mean.
2. **Detailed step**: identify the hot partition's buckets and ship a
   few of them to the coldest node via the normal bucket-migration path,
   then reset the counters and keep watching.

Unlike a full E-Store this moves buckets (groups of tuples), not
individual hot tuples — matching the granularity of everything else in
this reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.cluster import Cluster
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SkewDetectorConfig:
    """Tuning of the hot-spot detector.

    Attributes:
        imbalance_threshold: A partition is *hot* when its access count
            exceeds this multiple of the per-partition mean (E-Store's
            coarse trigger).
        min_accesses: Minimum total accesses before judging imbalance
            (prevents firing on noise right after counters reset).
        buckets_per_rebalance: Buckets shipped off the hot partition per
            rebalancing action (small, to bound disruption).
    """

    imbalance_threshold: float = 1.5
    min_accesses: int = 1000
    buckets_per_rebalance: int = 2

    def __post_init__(self) -> None:
        if self.imbalance_threshold <= 1.0:
            raise ConfigurationError("imbalance_threshold must exceed 1.0")
        if self.min_accesses < 1 or self.buckets_per_rebalance < 1:
            raise ConfigurationError(
                "min_accesses and buckets_per_rebalance must be >= 1"
            )


@dataclass(frozen=True)
class RebalanceAction:
    """One executed skew-rebalancing step."""

    hot_partition_id: int
    source_node: int
    target_node: int
    buckets: Tuple[int, ...]
    rows_moved: int


class HotSpotRebalancer:
    """Detects per-partition skew and sheds buckets off hot partitions.

    Operates on a live :class:`Cluster` using the partitions' real access
    statistics, so it composes with both the benchmark client (logical
    accesses) and the elasticity machinery (bucket moves are the same
    primitive migrations use).
    """

    def __init__(
        self, cluster: Cluster, config: Optional[SkewDetectorConfig] = None
    ) -> None:
        self.cluster = cluster
        self.config = config or SkewDetectorConfig()
        self.actions: List[RebalanceAction] = []

    # ------------------------------------------------------------------
    def detect_hot_partition(self) -> Optional[int]:
        """Index (within active partitions) of a hot partition, if any."""
        counts = np.asarray(self.cluster.access_counts_per_partition(), dtype=float)
        total = counts.sum()
        if total < self.config.min_accesses or len(counts) < 2:
            return None
        mean = counts.mean()
        if mean <= 0:
            return None
        hottest = int(np.argmax(counts))
        if counts[hottest] > self.config.imbalance_threshold * mean:
            return hottest
        return None

    def _partition_context(self, active_index: int) -> Tuple[int, int, int]:
        """(node, local partition index, global partition id)."""
        partition = self.cluster.partitions()[active_index]
        local = partition.partition_id % self.cluster.partitions_per_node
        return partition.node_id, local, partition.partition_id

    def _coldest_node(self, exclude: int) -> Optional[int]:
        nodes = [n for n in self.cluster.active_nodes() if n.node_id != exclude]
        if not nodes:
            return None
        return min(nodes, key=lambda n: n.total_accesses()).node_id

    def _buckets_of_partition(self, node: int, local: int) -> List[int]:
        p = self.cluster.partitions_per_node
        return [
            bucket
            for bucket in range(self.cluster.num_buckets)
            if self.cluster.plan.node_of(bucket) == node and bucket % p == local
        ]

    # ------------------------------------------------------------------
    def rebalance_once(self) -> Optional[RebalanceAction]:
        """One detect-and-shed cycle; returns the action taken, if any.

        After a rebalance the access counters are reset, starting a fresh
        monitoring window (E-Store's behaviour after a reconfiguration).
        """
        hot = self.detect_hot_partition()
        if hot is None:
            return None
        node, local, partition_id = self._partition_context(hot)
        target = self._coldest_node(exclude=node)
        if target is None:
            return None
        candidates = self._buckets_of_partition(node, local)
        if not candidates:
            return None
        chosen = tuple(candidates[: self.config.buckets_per_rebalance])
        rows = 0
        for bucket in chosen:
            rows += self.cluster.move_bucket(bucket, target)
        action = RebalanceAction(
            hot_partition_id=partition_id,
            source_node=node,
            target_node=target,
            buckets=chosen,
            rows_moved=rows,
        )
        self.actions.append(action)
        self.cluster.reset_stats()
        return action
