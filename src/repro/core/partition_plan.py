"""Partition plans: mapping the key space onto machines.

H-Store assigns rows to logical partitions by hashing the partitioning
key; partitions are grouped onto nodes.  For elasticity the key space is
divided into a fixed number of *buckets* (virtual partitions); a partition
plan assigns every bucket to a node.  A reconfiguration produces a new
plan in which **every sender ships an equal number of buckets to every
receiver** (Section 4.4.1), preserving the balanced-data invariant the
planner's capacity model relies on.

The Scheduler (Section 6) turns a planner move into such a plan, which the
migration subsystem then executes bucket by bucket.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError

#: Default number of virtual buckets the key space is divided into.
DEFAULT_NUM_BUCKETS = 1024


@dataclass(frozen=True)
class BucketTransfer:
    """A set of buckets moving from one node to another."""

    sender: int
    receiver: int
    buckets: Tuple[int, ...]


class PartitionPlan:
    """An assignment of every bucket to a node.

    The plan is immutable; reconfigurations produce new plans via
    :func:`plan_move`.
    """

    def __init__(self, assignment: Sequence[int], num_nodes: int) -> None:
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        assignment = list(assignment)
        if not assignment:
            raise ConfigurationError("assignment must be non-empty")
        for bucket, node in enumerate(assignment):
            if not 0 <= node < num_nodes:
                raise ConfigurationError(
                    f"bucket {bucket} assigned to invalid node {node}"
                )
        self._assignment: Tuple[int, ...] = tuple(assignment)
        self.num_nodes = num_nodes

    # ------------------------------------------------------------------
    @classmethod
    def balanced(
        cls, num_nodes: int, num_buckets: int = DEFAULT_NUM_BUCKETS
    ) -> "PartitionPlan":
        """An even round-robin assignment of buckets to nodes."""
        if num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if num_buckets < num_nodes:
            raise ConfigurationError(
                f"need at least one bucket per node ({num_buckets} < {num_nodes})"
            )
        return cls([b % num_nodes for b in range(num_buckets)], num_nodes)

    # ------------------------------------------------------------------
    @property
    def num_buckets(self) -> int:
        return len(self._assignment)

    def node_of(self, bucket: int) -> int:
        return self._assignment[bucket]

    def buckets_of(self, node: int) -> List[int]:
        return [b for b, n in enumerate(self._assignment) if n == node]

    def bucket_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {n: 0 for n in range(self.num_nodes)}
        for node in self._assignment:
            counts[node] += 1
        return counts

    def data_fractions(self) -> Dict[int, float]:
        """Fraction of the key space hosted by each node (the ``f_n`` of
        Equation 6, under the uniform-data assumption)."""
        counts = self.bucket_counts()
        total = self.num_buckets
        return {node: count / total for node, count in counts.items()}

    def as_tuple(self) -> Tuple[int, ...]:
        return self._assignment


def plan_move(
    current: PartitionPlan, target_nodes: int
) -> Tuple[PartitionPlan, List[BucketTransfer]]:
    """Produce the new plan and bucket transfers for a move.

    Every sender ships (as near as integrally possible) an equal number of
    buckets to every receiver:

    * scale-out to ``A`` nodes: each existing node keeps ``1/A`` of its
      buckets' worth and sends the excess, spread evenly over the new
      nodes;
    * scale-in to ``A`` nodes: each departing node spreads all its buckets
      evenly over the survivors.

    Args:
        current: The plan in effect.
        target_nodes: Machines after the move.

    Returns:
        ``(new_plan, transfers)`` where transfers lists, for every
        (sender, receiver) pair, the buckets that move.
    """
    before = current.num_nodes
    after = target_nodes
    if after < 1:
        raise ConfigurationError("target_nodes must be >= 1")
    if current.num_buckets < max(before, after):
        raise ConfigurationError("not enough buckets for the target size")
    if after == before:
        return current, []

    assignment = list(current.as_tuple())
    moves: Dict[Tuple[int, int], List[int]] = defaultdict(list)

    if after > before:
        receivers = list(range(before, after))
        target_per_node = current.num_buckets / after
        for sender in range(before):
            owned = current.buckets_of(sender)
            keep = round(target_per_node)  # equal share for the sender
            surplus = owned[int(keep):]
            # Round-robin the surplus across receivers, rotating the
            # starting receiver per sender so integral remainders do not
            # all pile onto the first receiver.
            for i, bucket in enumerate(surplus):
                receiver = receivers[(i + sender) % len(receivers)]
                assignment[bucket] = receiver
                moves[(sender, receiver)].append(bucket)
    else:
        survivors = list(range(after))
        for sender in range(after, before):
            owned = current.buckets_of(sender)
            for i, bucket in enumerate(owned):
                receiver = survivors[(i + sender) % len(survivors)]
                assignment[bucket] = receiver
                moves[(sender, receiver)].append(bucket)

    new_plan = PartitionPlan(assignment, after)
    transfers = [
        BucketTransfer(sender, receiver, tuple(buckets))
        for (sender, receiver), buckets in sorted(moves.items())
    ]
    return new_plan, transfers
