"""Tests for the E-Store-style hot-spot rebalancer extension."""

import pytest

from repro.b2w.schema import b2w_schema
from repro.engine.cluster import Cluster
from repro.engine.skew import HotSpotRebalancer, SkewDetectorConfig
from repro.errors import ConfigurationError


def make_cluster(nodes=3, partitions=2, buckets=48):
    return Cluster(
        b2w_schema(), initial_nodes=nodes, partitions_per_node=partitions,
        num_buckets=buckets, max_nodes=nodes + 2,
    )


def hammer_partition(cluster, partition, accesses=5000):
    """Drive accesses at one partition directly (simulating hot keys)."""
    for _ in range(accesses):
        partition.stats.accesses += 1


def spread_accesses(cluster, per_partition=500):
    for partition in cluster.partitions():
        partition.stats.accesses += per_partition


class TestConfig:
    def test_rejects_invalid(self):
        with pytest.raises(ConfigurationError):
            SkewDetectorConfig(imbalance_threshold=1.0)
        with pytest.raises(ConfigurationError):
            SkewDetectorConfig(min_accesses=0)
        with pytest.raises(ConfigurationError):
            SkewDetectorConfig(buckets_per_rebalance=0)


class TestDetection:
    def test_quiet_when_uniform(self):
        cluster = make_cluster()
        spread_accesses(cluster)
        rebalancer = HotSpotRebalancer(cluster)
        assert rebalancer.detect_hot_partition() is None

    def test_quiet_below_min_accesses(self):
        cluster = make_cluster()
        hammer_partition(cluster, cluster.partitions()[0], accesses=100)
        rebalancer = HotSpotRebalancer(
            cluster, SkewDetectorConfig(min_accesses=10_000)
        )
        assert rebalancer.detect_hot_partition() is None

    def test_detects_hot_partition(self):
        cluster = make_cluster()
        spread_accesses(cluster)
        hammer_partition(cluster, cluster.partitions()[3])
        rebalancer = HotSpotRebalancer(cluster)
        assert rebalancer.detect_hot_partition() == 3


class TestRebalancing:
    def test_sheds_buckets_from_hot_node(self):
        cluster = make_cluster()
        spread_accesses(cluster)
        hot = cluster.partitions()[0]
        hammer_partition(cluster, hot)
        before = cluster.data_fractions()[hot.node_id]

        rebalancer = HotSpotRebalancer(cluster)
        action = rebalancer.rebalance_once()
        assert action is not None
        assert action.source_node == hot.node_id
        assert action.target_node != hot.node_id
        assert len(action.buckets) == 2
        after = cluster.data_fractions()[hot.node_id]
        assert after < before
        # Counters reset after the action (fresh monitoring window).
        assert sum(cluster.access_counts_per_partition()) == 0

    def test_buckets_move_real_rows(self):
        cluster = make_cluster()
        from repro.b2w.schema import STOCK

        # Put rows everywhere so moves carry data.
        for i in range(400):
            key = f"sku-{i}"
            cluster.route(key).put(STOCK, key, {"sku": key, "available": 1})
        cluster.reset_stats()
        spread_accesses(cluster)
        hot = cluster.partitions()[2]
        hammer_partition(cluster, hot)
        rebalancer = HotSpotRebalancer(cluster)
        action = rebalancer.rebalance_once()
        assert action is not None
        assert action.rows_moved > 0
        assert cluster.total_rows() == 400  # nothing lost

    def test_targets_coldest_node(self):
        cluster = make_cluster(nodes=3)
        spread_accesses(cluster, per_partition=500)
        # Node 1 is busier than node 2.
        for partition in cluster.nodes[1].partitions:
            partition.stats.accesses += 2000
        hot = cluster.nodes[0].partitions[0]
        hammer_partition(cluster, hot, accesses=20_000)
        rebalancer = HotSpotRebalancer(cluster)
        action = rebalancer.rebalance_once()
        assert action.target_node == 2

    def test_noop_single_node(self):
        cluster = make_cluster(nodes=1)
        hammer_partition(cluster, cluster.partitions()[0])
        rebalancer = HotSpotRebalancer(cluster)
        assert rebalancer.rebalance_once() is None


class TestEndToEndSkewMitigation:
    def test_rebalancing_reduces_hot_node_share(self):
        """Repeated hot traffic -> repeated shedding -> load spreads."""
        cluster = make_cluster(nodes=3, partitions=2, buckets=60)
        rebalancer = HotSpotRebalancer(
            cluster, SkewDetectorConfig(buckets_per_rebalance=3)
        )
        hot = cluster.partitions()[0]
        initial_share = cluster.data_fractions()[hot.node_id]
        for _ in range(4):
            spread_accesses(cluster)
            hammer_partition(cluster, hot)
            rebalancer.rebalance_once()
        final_share = cluster.data_fractions()[hot.node_id]
        assert final_share < initial_share
        assert len(rebalancer.actions) >= 3
