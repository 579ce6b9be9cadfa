"""Tests for the Squall-like chunked live migration."""

import numpy as np
import pytest

from repro.b2w.schema import b2w_schema
from repro.core.schedule import build_move_schedule
from repro.engine.cluster import Cluster
from repro.engine.migration import Migration, MigrationConfig
from repro.engine.table import DatabaseSchema
from repro.errors import MigrationError

DB_KB = 1106.0 * 1024.0


def make_cluster(initial=2, partitions=6, max_nodes=14) -> Cluster:
    return Cluster(
        DatabaseSchema(), initial_nodes=initial, partitions_per_node=partitions,
        num_buckets=512, max_nodes=max_nodes,
    )


class TestMigrationConfig:
    def test_paper_defaults(self):
        config = MigrationConfig()
        assert config.chunk_kb == 1000.0
        assert config.rate_kbps == 244.0
        # ~4.1 s between chunks; ~40 ms pause per chunk.
        assert config.chunk_period_s == pytest.approx(1000 / 244)
        assert config.chunk_block_s == pytest.approx(0.04)
        assert config.chunk_block_s / config.chunk_period_s < 0.02

    def test_boost_multiplies_rate(self):
        config = MigrationConfig(boost=8.0)
        assert config.effective_rate_kbps == pytest.approx(244.0 * 8)
        assert config.chunk_period_s == pytest.approx(
            MigrationConfig().chunk_period_s / 8, rel=1e-9
        )

    def test_bigger_chunks_bigger_pauses(self):
        small = MigrationConfig(chunk_kb=1000.0)
        large = MigrationConfig(chunk_kb=8000.0)
        assert large.chunk_block_s == pytest.approx(8 * small.chunk_block_s)
        # Long-run overhead fraction is chunk-size independent.
        assert large.chunk_block_s / large.chunk_period_s == pytest.approx(
            small.chunk_block_s / small.chunk_period_s
        )

    def test_rejects_invalid(self):
        with pytest.raises(MigrationError):
            MigrationConfig(chunk_kb=0)
        with pytest.raises(MigrationError):
            MigrationConfig(boost=0.5)


class TestMigrationLifecycle:
    def test_rejects_noop_and_bad_targets(self):
        cluster = make_cluster(initial=2)
        with pytest.raises(MigrationError):
            Migration(cluster, 2, DB_KB)
        with pytest.raises(MigrationError):
            Migration(cluster, 0, DB_KB)
        with pytest.raises(MigrationError):
            Migration(cluster, 99, DB_KB)
        with pytest.raises(MigrationError):
            Migration(cluster, 3, 0.0)

    def test_duration_matches_schedule(self):
        cluster = make_cluster(initial=2)
        migration = Migration(cluster, 4, DB_KB)
        schedule = build_move_schedule(2, 4, 6)
        from repro.core.params import SystemParameters

        params = SystemParameters(partitions_per_node=6)
        # The migration paces off R = 244 kB/s while D = 4646 s includes
        # the paper's 10% buffer on 2 x 2112 s, so they differ by <0.5%.
        assert migration.total_seconds == pytest.approx(
            schedule.total_seconds(params), rel=5e-3
        )

    def test_boost_divides_duration(self):
        slow = Migration(make_cluster(initial=2), 4, DB_KB, MigrationConfig())
        fast = Migration(
            make_cluster(initial=2), 4, DB_KB, MigrationConfig(boost=8.0)
        )
        assert fast.total_seconds == pytest.approx(slow.total_seconds / 8.0)

    def test_scale_out_completes_and_balances(self):
        cluster = make_cluster(initial=2)
        migration = Migration(cluster, 4, DB_KB)
        steps = 0
        while not migration.completed:
            migration.step(10.0)
            steps += 1
            assert steps < 100000
        assert cluster.num_active_nodes == 4
        fractions = cluster.data_fractions()
        assert len(fractions) == 4
        assert max(fractions.values()) < 1.3 * min(fractions.values())

    def test_scale_in_completes_and_compacts(self):
        cluster = make_cluster(initial=5)
        migration = Migration(cluster, 2, DB_KB)
        while not migration.completed:
            migration.step(10.0)
        assert cluster.num_active_nodes == 2
        assert cluster.plan.num_nodes == 2
        fractions = cluster.data_fractions()
        assert set(fractions) == {0, 1}

    def test_allocation_follows_schedule(self):
        cluster = make_cluster(initial=3)
        migration = Migration(cluster, 14, DB_KB)
        allocations = [cluster.num_active_nodes]
        while not migration.completed:
            migration.step(migration.round_seconds)
            allocations.append(cluster.num_active_nodes)
        # Just-in-time growth: 6, 9, 12, then 14 (plus the final state).
        assert allocations[0] == 6
        assert allocations[-1] == 14
        assert allocations == sorted(allocations)

    def test_fraction_completed_monotone(self):
        cluster = make_cluster(initial=2)
        migration = Migration(cluster, 6, DB_KB)
        previous = 0.0
        while not migration.completed:
            migration.step(5.0)
            assert migration.fraction_completed >= previous - 1e-9
            previous = migration.fraction_completed
        assert migration.fraction_completed == 1.0

    def test_step_after_completion_is_stable(self):
        cluster = make_cluster(initial=2)
        migration = Migration(cluster, 3, DB_KB)
        while not migration.completed:
            migration.step(50.0)
        info = migration.step(1.0)
        assert info.completed
        assert info.machines_allocated == 3
        assert not info.blocked

    def test_rejects_bad_dt(self):
        migration = Migration(make_cluster(initial=2), 3, DB_KB)
        with pytest.raises(MigrationError):
            migration.step(0.0)


class TestBlocking:
    def test_active_partitions_blocked(self):
        cluster = make_cluster(initial=2)
        migration = Migration(
            cluster, 4, DB_KB, MigrationConfig(chunk_kb=8000.0)
        )
        # Step past one chunk period to observe a pause.
        info = migration.step(MigrationConfig(chunk_kb=8000.0).chunk_period_s + 1.0)
        assert info.blocked
        blocked = info.block_seconds > 0
        assert blocked.any()
        assert np.all(info.block_weight[blocked] > 0)
        assert np.all(info.block_weight[blocked] <= 1.0)

    def test_small_chunks_rare_blocks(self):
        cluster = make_cluster(initial=2)
        migration = Migration(cluster, 4, DB_KB, MigrationConfig(chunk_kb=1000.0))
        info = migration.step(1.0)  # less than one 4.1 s chunk period
        assert not info.blocked

    def test_moves_rows_with_data(self):
        cluster = Cluster(
            b2w_schema(), initial_nodes=1, partitions_per_node=2,
            num_buckets=64, max_nodes=4,
        )
        from repro.b2w.schema import STOCK

        for i in range(200):
            key = f"sku-{i}"
            cluster.route(key).put(STOCK, key, {"sku": key, "available": 1})
        migration = Migration(cluster, 2, DB_KB)
        while not migration.completed:
            migration.step(100.0)
        counts = [node.row_count() for node in cluster.active_nodes()]
        assert sum(counts) == 200
        assert min(counts) > 50  # roughly half each
