"""Partitioning schemes: hash and range (Section 2 of the paper).

"The assignment of rows to partitions is determined by one or more
columns, which constitute the partitioning key, and the values of these
columns are mapped to partitions using either range- or
hash-partitioning."

A :class:`Partitioner` maps a key to a *bucket* (virtual partition); the
cluster's partition plan then maps buckets to nodes.  Hash partitioning
(MurmurHash 2.0, the paper's choice for B2W) smooths skew; range
partitioning preserves key order, which is what makes it skew-prone and
what the uniformity analysis of Section 8.1 is implicitly contrasted
against.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.engine.hashing import Key, key_bytes, key_to_bucket
from repro.errors import ConfigurationError


class Partitioner(ABC):
    """Maps partitioning keys to buckets in ``range(num_buckets)``."""

    def __init__(self, num_buckets: int) -> None:
        if num_buckets < 1:
            raise ConfigurationError("num_buckets must be >= 1")
        self.num_buckets = num_buckets

    @abstractmethod
    def bucket_of(self, key: Key) -> int:
        """The bucket responsible for ``key``."""


class HashPartitioner(Partitioner):
    """MurmurHash-2.0-based bucketing (the paper's configuration)."""

    def bucket_of(self, key: Key) -> int:
        return key_to_bucket(key, self.num_buckets)


class RangePartitioner(Partitioner):
    """Order-preserving bucketing over byte-wise key order.

    Args:
        num_buckets: Bucket count.
        boundaries: Sorted upper-exclusive split points (as key bytes);
            ``len(boundaries) == num_buckets - 1``.  Keys below the first
            boundary land in bucket 0, keys at/above the last in the
            final bucket.
    """

    def __init__(self, num_buckets: int, boundaries: Sequence[Key]) -> None:
        super().__init__(num_buckets)
        encoded = [key_bytes(boundary) for boundary in boundaries]
        if len(encoded) != num_buckets - 1:
            raise ConfigurationError(
                f"need {num_buckets - 1} boundaries for {num_buckets} buckets, "
                f"got {len(encoded)}"
            )
        if encoded != sorted(encoded):
            raise ConfigurationError("boundaries must be sorted")
        if len(set(encoded)) != len(encoded):
            raise ConfigurationError("boundaries must be distinct")
        self._boundaries: List[bytes] = encoded

    def bucket_of(self, key: Key) -> int:
        return bisect.bisect_right(self._boundaries, key_bytes(key))
