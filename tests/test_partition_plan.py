"""Tests for bucket-level partition plans."""

import pytest

from repro.core.partition_plan import (
    PartitionPlan,
    plan_move,
)
from repro.errors import ConfigurationError


class TestPartitionPlan:
    def test_balanced_assignment(self):
        plan = PartitionPlan.balanced(4, num_buckets=64)
        counts = plan.bucket_counts()
        assert counts == {0: 16, 1: 16, 2: 16, 3: 16}

    def test_balanced_uneven_buckets(self):
        plan = PartitionPlan.balanced(3, num_buckets=64)
        counts = plan.bucket_counts()
        assert sum(counts.values()) == 64
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_data_fractions_sum_to_one(self):
        plan = PartitionPlan.balanced(5, num_buckets=100)
        assert sum(plan.data_fractions().values()) == pytest.approx(1.0)

    def test_node_of_and_buckets_of(self):
        plan = PartitionPlan.balanced(2, num_buckets=10)
        for bucket in plan.buckets_of(0):
            assert plan.node_of(bucket) == 0

    def test_rejects_invalid_assignment(self):
        with pytest.raises(ConfigurationError):
            PartitionPlan([0, 1, 5], num_nodes=2)
        with pytest.raises(ConfigurationError):
            PartitionPlan([], num_nodes=1)
        with pytest.raises(ConfigurationError):
            PartitionPlan.balanced(0)

    def test_rejects_fewer_buckets_than_nodes(self):
        with pytest.raises(ConfigurationError):
            PartitionPlan.balanced(10, num_buckets=5)


class TestPlanMove:
    def test_noop(self):
        plan = PartitionPlan.balanced(3, num_buckets=60)
        new_plan, transfers = plan_move(plan, 3)
        assert new_plan is plan
        assert transfers == []

    def test_scale_out_balances(self):
        plan = PartitionPlan.balanced(2, num_buckets=128)
        new_plan, transfers = plan_move(plan, 4)
        counts = new_plan.bucket_counts()
        assert len(counts) == 4
        assert max(counts.values()) - min(counts.values()) <= 2
        # Only new nodes receive.
        for transfer in transfers:
            assert transfer.sender in (0, 1)
            assert transfer.receiver in (2, 3)

    def test_scale_out_equal_pair_shares(self):
        plan = PartitionPlan.balanced(3, num_buckets=1024)
        _, transfers = plan_move(plan, 14)
        sizes = [len(t.buckets) for t in transfers]
        assert len(transfers) == 3 * 11
        assert max(sizes) - min(sizes) <= 1

    def test_scale_in_empties_departing(self):
        plan = PartitionPlan.balanced(5, num_buckets=100)
        new_plan, transfers = plan_move(plan, 2)
        counts = new_plan.bucket_counts()
        assert counts.get(2, 0) == 0 or 2 not in counts
        assert counts[0] + counts[1] == 100
        for transfer in transfers:
            assert transfer.sender in (2, 3, 4)
            assert transfer.receiver in (0, 1)

    def test_moved_buckets_change_owner(self):
        plan = PartitionPlan.balanced(2, num_buckets=64)
        new_plan, transfers = plan_move(plan, 3)
        for transfer in transfers:
            for bucket in transfer.buckets:
                assert plan.node_of(bucket) == transfer.sender
                assert new_plan.node_of(bucket) == transfer.receiver

    def test_rejects_bad_target(self):
        plan = PartitionPlan.balanced(2, num_buckets=8)
        with pytest.raises(ConfigurationError):
            plan_move(plan, 0)
        with pytest.raises(ConfigurationError):
            plan_move(plan, 100)  # more nodes than buckets
