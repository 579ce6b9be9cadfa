"""Tests for the engine's storage/routing core: hashing, tables,
partitions, nodes and cluster."""

import numpy as np
import pytest

from repro.engine.cluster import Cluster
from repro.engine.hashing import key_bytes, key_to_bucket, murmur2
from repro.engine.partition import Partition
from repro.engine.table import DatabaseSchema, TableSchema
from repro.errors import EngineError


def simple_schema() -> DatabaseSchema:
    schema = DatabaseSchema()
    schema.add(TableSchema(name="T", key_column="k", row_kb=2.0))
    return schema


class TestMurmur2:
    def test_deterministic(self):
        assert murmur2(b"hello") == murmur2(b"hello")

    def test_regression_values(self):
        # Pinned values: catches accidental algorithm changes.
        assert murmur2(b"") == 0x106E08D9
        assert murmur2(b"hello") == 0x7F1DDBBD
        assert murmur2(b"P-Store") == 0x9F9B26ED
        assert murmur2(b"a") != murmur2(b"b")

    def test_all_tail_lengths(self):
        values = {murmur2(b"x" * n) for n in range(1, 9)}
        assert len(values) == 8

    def test_32_bit_range(self):
        for key in (b"", b"abc", b"0123456789abcdef"):
            assert 0 <= murmur2(key) < 2**32

    def test_key_bytes_types(self):
        assert key_bytes("abc") == b"abc"
        assert key_bytes(b"abc") == b"abc"
        assert len(key_bytes(123)) == 8
        with pytest.raises(TypeError):
            key_bytes(1.5)  # type: ignore[arg-type]

    def test_buckets_roughly_uniform(self):
        counts = np.zeros(16)
        for i in range(16000):
            counts[key_to_bucket(f"key-{i}", 16)] += 1
        assert counts.std() / counts.mean() < 0.05

    def test_rejects_bad_bucket_count(self):
        with pytest.raises(ValueError):
            key_to_bucket("x", 0)


class TestSchema:
    def test_duplicate_table_rejected(self):
        schema = simple_schema()
        with pytest.raises(EngineError):
            schema.add(TableSchema(name="T", key_column="k"))

    def test_unknown_table_rejected(self):
        schema = simple_schema()
        with pytest.raises(EngineError):
            schema["missing"]

    def test_contains(self):
        schema = simple_schema()
        assert "T" in schema
        assert "X" not in schema

    def test_bad_table_schema(self):
        with pytest.raises(EngineError):
            TableSchema(name="", key_column="k")
        with pytest.raises(EngineError):
            TableSchema(name="T", key_column="k", row_kb=0)


class TestPartition:
    @pytest.fixture
    def partition(self) -> Partition:
        return Partition(0, 0, simple_schema())

    def test_put_get_delete(self, partition):
        partition.put("T", "a", {"k": "a", "v": 1})
        assert partition.get("T", "a") == {"k": "a", "v": 1}
        assert partition.contains("T", "a")
        assert partition.delete("T", "a")
        assert partition.get("T", "a") is None
        assert not partition.delete("T", "a")

    def test_stats_counted(self, partition):
        partition.put("T", "a", {})
        partition.get("T", "a")
        assert partition.stats.accesses == 2
        assert partition.stats.reads == 1
        assert partition.stats.writes == 1
        partition.stats.reset()
        assert partition.stats.accesses == 0

    def test_size_accounting(self, partition):
        for i in range(5):
            partition.put("T", i, {"k": i})
        assert partition.row_count() == 5
        assert partition.row_count("T") == 5
        assert partition.data_kb() == pytest.approx(10.0)

    def test_extract_and_install(self, partition):
        for i in range(4):
            partition.put("T", i, {"k": i})
        rows = partition.extract_rows("T", [0, 2, 99])
        assert set(rows) == {0, 2}
        assert partition.row_count() == 2
        other = Partition(1, 1, simple_schema())
        other.install_rows("T", rows)
        assert other.row_count() == 2

    def test_unknown_table(self, partition):
        with pytest.raises(EngineError):
            partition.get("missing", 1)


class TestCluster:
    @pytest.fixture
    def cluster(self) -> Cluster:
        return Cluster(simple_schema(), initial_nodes=2, partitions_per_node=3,
                       num_buckets=60, max_nodes=5)

    def test_topology(self, cluster):
        assert cluster.num_active_nodes == 2
        assert len(cluster.partitions()) == 6
        assert len(cluster.partitions(only_active=False)) == 15

    def test_routing_deterministic(self, cluster):
        partition = cluster.route("some-key")
        assert partition is cluster.route("some-key")
        node = cluster.plan.node_of(cluster.bucket_of("some-key"))
        assert partition.node_id == node

    def test_routing_respects_plan(self, cluster):
        for key in ("a", "b", "c", "d"):
            bucket = cluster.bucket_of(key)
            expected_node = cluster.plan.node_of(bucket)
            assert cluster.route(key).node_id == expected_node

    def test_inactive_node_routing_rejected(self, cluster):
        cluster.set_active(0, False)
        bucket = next(
            b for b in range(cluster.num_buckets) if cluster.plan.node_of(b) == 0
        )
        with pytest.raises(EngineError):
            cluster.partition_of_bucket(bucket)

    def test_move_bucket_moves_rows(self, cluster):
        cluster.set_active(2, True)
        key = "customer-42"
        cluster.route(key).put("T", key, {"k": key})
        bucket = cluster.bucket_of(key)
        moved = cluster.move_bucket(bucket, 2)
        assert moved == 1
        assert cluster.route(key).node_id == 2
        assert cluster.route(key).get("T", key) == {"k": key}

    def test_move_bucket_to_inactive_rejected(self, cluster):
        with pytest.raises(EngineError):
            cluster.move_bucket(0, 4)

    def test_move_bucket_noop(self, cluster):
        bucket = 0
        owner = cluster.plan.node_of(bucket)
        assert cluster.move_bucket(bucket, owner) == 0

    def test_data_fractions_track_moves(self, cluster):
        cluster.set_active(2, True)
        start = cluster.data_fractions()
        assert sum(start.values()) == pytest.approx(1.0)
        moved = cluster.buckets_of_node0 = [
            b for b in range(10) if cluster.plan.node_of(b) == 0
        ]
        for bucket in moved:
            cluster.move_bucket(bucket, 2)
        fractions = cluster.data_fractions()
        assert fractions.get(2, 0) == pytest.approx(len(moved) / 60)

    def test_node_weights_match_fractions(self, cluster):
        weights = cluster.node_weights()
        fractions = cluster.data_fractions()
        for node, fraction in fractions.items():
            assert weights[node] == pytest.approx(fraction)
        assert sum(weights) == pytest.approx(1.0)

    def test_compact_plan(self, cluster):
        cluster.set_active(2, True)
        # Move everything off node 1 onto node 2.
        for bucket in range(cluster.num_buckets):
            if cluster.plan.node_of(bucket) == 1:
                cluster.move_bucket(bucket, 2)
        # Buckets now live on nodes 0 and 2: compacting to 2 must fail.
        with pytest.raises(EngineError):
            cluster.compact_plan(2)
        cluster.compact_plan(3)
        assert cluster.plan.num_nodes == 3

    def test_rejects_bad_construction(self):
        with pytest.raises(EngineError):
            Cluster(simple_schema(), initial_nodes=0)
        with pytest.raises(EngineError):
            Cluster(simple_schema(), initial_nodes=5, max_nodes=3)
        with pytest.raises(EngineError):
            Cluster(simple_schema(), partitions_per_node=0)
