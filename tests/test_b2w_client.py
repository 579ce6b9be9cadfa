"""Tests for the B2W workload generator and trace-replay client."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.b2w import schema as s
from repro.b2w.client import B2WClient
from repro.b2w.generator import (
    B2WWorkloadConfig,
    B2WWorkloadGenerator,
    access_skew_report,
)
from repro.workloads.trace import LoadTrace


class TestGenerator:
    def test_keys_unique(self):
        generator = B2WWorkloadGenerator()
        keys = generator.generate_cart_keys(1000)
        assert len(set(keys)) == 1000

    def test_deterministic(self):
        a = B2WWorkloadGenerator(B2WWorkloadConfig(seed=9)).generate_cart_keys(10)
        b = B2WWorkloadGenerator(B2WWorkloadConfig(seed=9)).generate_cart_keys(10)
        assert a == b

    def test_session_structure(self):
        generator = B2WWorkloadGenerator(B2WWorkloadConfig(seed=1))
        session = generator.session()
        names = [txn.procedure for txn in session]
        assert "AddLineToCart" in names
        # Cart operations share one key.
        cart_keys = {
            txn.key for txn in session if txn.procedure.endswith("Cart")
        }
        assert len(cart_keys) == 1

    def test_checkout_sessions_exist(self):
        generator = B2WWorkloadGenerator(B2WWorkloadConfig(seed=2))
        checkout_seen = False
        for _ in range(50):
            names = [txn.procedure for txn in generator.session()]
            if "CreateCheckoutPayment" in names:
                checkout_seen = True
                assert "ReserveStock" in names
                assert "CreateCheckout" in names
        assert checkout_seen


class TestAccessSkewReport:
    def test_uniform_weights(self):
        keys = [f"k{i}" for i in range(30000)]
        report = access_skew_report(keys, num_partitions=30)
        # 1000 keys/partition: binomial std is ~3.1%, so the hottest
        # partition lands within a few sigma of the mean.
        assert report["max_over_mean_pct"] < 12.0
        assert report["total"] == 30000

    def test_concentrated_weights_show_skew(self):
        keys = [f"k{i}" for i in range(1000)]
        weights = [1] * 1000
        weights[0] = 100000
        report = access_skew_report(keys, weights, num_partitions=30)
        assert report["max_over_mean_pct"] > 100.0


class TestClient:
    def test_sessions_commit(self):
        client = B2WClient.fresh(initial_nodes=2)
        stats = client.execute_many(500)
        assert stats.issued == 500
        assert stats.abort_rate < 0.01

    def test_replay_scales_trace(self):
        client = B2WClient.fresh(initial_nodes=1)
        trace = LoadTrace(np.array([100.0, 50.0, 25.0]), slot_seconds=60.0)
        stats = client.replay(trace, scale=0.1)
        assert stats.per_slot == [10, 5, 2]
        assert stats.issued == 17

    def test_stock_conservation_invariant(self):
        """available + reserved + purchased is invariant per SKU."""
        config = B2WWorkloadConfig(num_stock_items=50, seed=3)
        client = B2WClient.fresh(initial_nodes=2, workload=config)
        initial_total = 10**6
        client.execute_many(2000)
        for index in range(50):
            sku = client.generator.sku(index)
            row = client.cluster.route(sku).get(s.STOCK, sku)
            total = row["available"] + row["reserved"] + row["purchased"]
            assert total == initial_total, sku

    def test_data_lands_on_all_nodes(self):
        client = B2WClient.fresh(initial_nodes=3)
        client.execute_many(3000)
        rows_per_node = [node.row_count() for node in client.cluster.active_nodes()]
        assert all(count > 0 for count in rows_per_node)
        # Near-uniform thanks to hashing (Section 8.1's assumption).
        assert max(rows_per_node) < 2.0 * min(rows_per_node)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_any_seed_produces_valid_sessions(seed):
    generator = B2WWorkloadGenerator(B2WWorkloadConfig(seed=seed))
    session = generator.session()
    assert session, "sessions are never empty"
    assert session[-1].procedure in (
        "PurchaseStock", "DeleteCart", "GetCart", "DeleteLineFromCart",
        "CreateCheckoutPayment",
    )
