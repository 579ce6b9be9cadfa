"""Tests for hash and range partitioning schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cluster import Cluster
from repro.engine.hashing import key_to_bucket
from repro.engine.partitioning import HashPartitioner, RangePartitioner
from repro.engine.table import DatabaseSchema, TableSchema
from repro.errors import ConfigurationError, EngineError


class TestHashPartitioner:
    def test_matches_key_to_bucket(self):
        partitioner = HashPartitioner(64)
        for key in ("a", "cart-123", 42):
            assert partitioner.bucket_of(key) == key_to_bucket(key, 64)

    def test_rejects_bad_bucket_count(self):
        with pytest.raises(ConfigurationError):
            HashPartitioner(0)


class TestRangePartitioner:
    def test_basic_ranges(self):
        partitioner = RangePartitioner(3, ["h", "p"])
        assert partitioner.bucket_of("a") == 0
        assert partitioner.bucket_of("g") == 0
        assert partitioner.bucket_of("h") == 1
        assert partitioner.bucket_of("o") == 1
        assert partitioner.bucket_of("p") == 2
        assert partitioner.bucket_of("z") == 2

    def test_rejects_bad_boundaries(self):
        with pytest.raises(ConfigurationError):
            RangePartitioner(3, ["a"])  # wrong count
        with pytest.raises(ConfigurationError):
            RangePartitioner(3, ["p", "h"])  # unsorted
        with pytest.raises(ConfigurationError):
            RangePartitioner(3, ["h", "h"])  # duplicate

    @given(st.lists(st.text(min_size=1, max_size=8), min_size=20, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_order_preserving(self, keys):
        ordered = sorted(keys, key=lambda k: k.encode("utf-8"))
        partitioner = RangePartitioner(4, ordered[5:16:5])
        buckets = [partitioner.bucket_of(k) for k in ordered]
        assert buckets == sorted(buckets)


class TestClusterIntegration:
    def schema(self):
        return DatabaseSchema().add(TableSchema(name="T", key_column="k"))

    def test_cluster_uses_partitioner(self):
        partitioner = RangePartitioner(8, ["b", "d", "f", "h", "j", "l", "n"])
        cluster = Cluster(
            self.schema(), initial_nodes=2, partitions_per_node=2,
            num_buckets=8, max_nodes=4, partitioner=partitioner,
        )
        assert cluster.bucket_of("a") == 0
        assert cluster.bucket_of("z") == 7

    def test_bucket_count_mismatch_rejected(self):
        with pytest.raises(EngineError):
            Cluster(
                self.schema(), num_buckets=16,
                partitioner=HashPartitioner(8),
            )

    def test_range_partitioning_is_skew_prone(self):
        """The Section 8.1 contrast: sequential keys pile into one range
        bucket under range partitioning but spread under hashing."""
        keys = [f"cart-2016-11-25-{i:08d}" for i in range(2000)]

        def max_share(partitioner):
            counts = np.zeros(partitioner.num_buckets)
            for key in keys:
                counts[partitioner.bucket_of(key)] += 1
            return counts.max() / counts.sum()

        # Ranges built from *yesterday's* keys: today's sequential ids
        # all land past the final boundary.
        old_keys = [f"cart-2016-11-24-{i:08d}" for i in range(2000)]
        range_part = RangePartitioner(16, old_keys[125::125])
        hash_part = HashPartitioner(16)
        assert max_share(range_part) > 0.9
        assert max_share(hash_part) < 0.2

    def test_migration_respects_partitioner(self):
        """Bucket moves relocate exactly the partitioner's keys."""
        partitioner = RangePartitioner(4, ["g", "n", "t"])
        cluster = Cluster(
            self.schema(), initial_nodes=2, partitions_per_node=1,
            num_buckets=4, max_nodes=4, partitioner=partitioner,
        )
        for key in ("alpha", "hotel", "oscar", "zulu"):
            cluster.route(key).put("T", key, {"k": key})
        bucket = cluster.bucket_of("zulu")
        target = 1 - cluster.plan.node_of(bucket)
        moved = cluster.move_bucket(bucket, target)
        assert moved == 1
        assert cluster.route("zulu").node_id == target
        assert cluster.route("zulu").get("T", "zulu") == {"k": "zulu"}
