"""B2W workload generation: keys, sessions and transaction streams.

The paper replays B2W's production logs joined with a database dump.
Without the proprietary data we generate equivalent streams:

* cart and checkout keys are random identifiers ("each shopping cart and
  checkout key is randomly generated", Section 8.1), so transaction
  routing is near-uniform after hashing — the property the uniformity
  analysis of Section 8.1 verifies;
* customers follow simple shopping *sessions*: check availability, add
  lines, sometimes remove them, then either abandon or go through the
  reserve / checkout / payment flow of Appendix C;
* the transaction *mix* is dominated by cart reads/writes with a smaller
  checkout tail, matching the flow's fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.b2w import schema as s
from repro.engine.executor import Executor
from repro.engine.transaction import Transaction


@dataclass(frozen=True)
class B2WWorkloadConfig:
    """Shape of the generated workload."""

    num_stock_items: int = 1000
    mean_lines_per_cart: float = 2.5
    abandon_probability: float = 0.35
    browse_ops_per_item: float = 1.3
    seed: int = 7


class B2WWorkloadGenerator:
    """Generates keys, initial data and transaction streams.

    Keys are hex identifiers drawn from a seeded RNG, mimicking the
    random UUID-style cart/checkout keys of the production system.
    """

    def __init__(self, config: Optional[B2WWorkloadConfig] = None) -> None:
        self.config = config or B2WWorkloadConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._cart_counter = 0
        self._txn_counter = 0

    # ------------------------------------------------------------------
    # Keys and data
    # ------------------------------------------------------------------
    def new_cart_id(self) -> str:
        self._cart_counter += 1
        raw = self.rng.integers(0, 2**63)
        return f"cart-{raw:016x}-{self._cart_counter:08d}"

    def new_stock_txn_id(self) -> str:
        self._txn_counter += 1
        raw = self.rng.integers(0, 2**63)
        return f"stxn-{raw:016x}-{self._txn_counter:08d}"

    def sku(self, index: Optional[int] = None) -> str:
        if index is None:
            index = int(self.rng.integers(0, self.config.num_stock_items))
        return f"sku-{index:08d}"

    def populate_stock(self, executor: Executor, quantity_each: int = 10**6) -> int:
        """Create every SKU's stock row directly (bulk load)."""
        created = 0
        for index in range(self.config.num_stock_items):
            sku = self.sku(index)
            partition = executor.cluster.route(sku)
            partition.put(
                s.STOCK,
                sku,
                {"sku": sku, "available": quantity_each, "reserved": 0, "purchased": 0},
            )
            created += 1
        return created

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------
    def session(self) -> List[Transaction]:
        """One customer session as a list of transactions.

        Follows Appendix C: availability checks and cart building, then
        either abandonment (cart deleted or left behind) or the full
        reserve -> checkout -> payment flow.
        """
        cfg = self.config
        cart_id = self.new_cart_id()
        ops: List[Transaction] = []
        num_lines = max(1, int(self.rng.poisson(cfg.mean_lines_per_cart)))
        skus = [self.sku() for _ in range(num_lines)]

        for sku in skus:
            # Browsing: availability checks before adding to the cart.
            for _ in range(int(self.rng.poisson(cfg.browse_ops_per_item))):
                ops.append(Transaction("GetStockQuantity", sku))
            price = round(float(self.rng.uniform(5.0, 500.0)), 2)
            ops.append(
                Transaction(
                    "AddLineToCart",
                    cart_id,
                    {"sku": sku, "quantity": 1, "price": price},
                )
            )
        ops.append(Transaction("GetCart", cart_id))

        # Occasionally remove a line again.
        if len(skus) > 1 and self.rng.random() < 0.2:
            ops.append(
                Transaction("DeleteLineFromCart", cart_id, {"sku": skus[0]})
            )
            skus = skus[1:]

        if self.rng.random() < cfg.abandon_probability:
            if self.rng.random() < 0.5:
                ops.append(Transaction("DeleteCart", cart_id))
            return ops

        # Checkout flow: reserve every item, record stock transactions,
        # reserve the cart, create the checkout and pay.
        for sku in skus:
            ops.append(Transaction("ReserveStock", sku, {"quantity": 1}))
            ops.append(
                Transaction(
                    "CreateStockTransaction",
                    self.new_stock_txn_id(),
                    {"sku": sku, "cart_id": cart_id, "quantity": 1},
                )
            )
        ops.append(Transaction("ReserveCart", cart_id))
        ops.append(Transaction("CreateCheckout", cart_id, {"cart_id": cart_id}))
        for sku in skus:
            ops.append(
                Transaction("AddLineToCheckout", cart_id, {"sku": sku, "quantity": 1})
            )
        ops.append(Transaction("GetCheckout", cart_id))
        ops.append(
            Transaction("CreateCheckoutPayment", cart_id, {"method": "card"})
        )
        for sku in skus:
            ops.append(Transaction("PurchaseStock", sku, {"quantity": 1}))
        return ops

    # ------------------------------------------------------------------
    # Uniformity analysis (Section 8.1)
    # ------------------------------------------------------------------
    def generate_cart_keys(self, count: int) -> List[str]:
        return [self.new_cart_id() for _ in range(count)]


def access_skew_report(
    keys: Sequence[str],
    accesses_per_key: Optional[Sequence[int]] = None,
    num_partitions: int = 30,
) -> Dict[str, float]:
    """Per-partition skew statistics after hashing keys (Section 8.1).

    The paper reports, over 30 partitions and 24 hours of accesses, that
    the most-accessed partition receives only 10.15% more accesses than
    average (stddev 2.62%), and that data skew is far smaller still
    (0.185% max, 0.099% stddev).

    Args:
        keys: The partitioning keys observed.
        accesses_per_key: Access count per key (default: one each, i.e.
            a data-distribution report).
        num_partitions: Partitions to hash into.

    Returns:
        Dict with ``max_over_mean_pct`` (how far above average the hottest
        partition is, percent) and ``stddev_over_mean_pct``.
    """
    from repro.engine.hashing import key_to_bucket

    counts = np.zeros(num_partitions)
    weights = accesses_per_key if accesses_per_key is not None else [1] * len(keys)
    for key, weight in zip(keys, weights):
        counts[key_to_bucket(key, num_partitions)] += weight
    mean = counts.mean()
    return {
        "max_over_mean_pct": 100.0 * (counts.max() - mean) / mean,
        "stddev_over_mean_pct": 100.0 * counts.std() / mean,
        "num_partitions": float(num_partitions),
        "total": float(counts.sum()),
    }
