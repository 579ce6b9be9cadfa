#!/usr/bin/env python3
"""The composite provisioning vision of Section 1, end to end.

The paper envisions elastic provisioning for shared-nothing OLTP DBMSs
as a combination of complementary techniques:

  (i)   predictive provisioning      — P-Store's planner + SPAR;
  (ii)  reactive provisioning        — the Section 4.3.1 fallback for
                                       unpredictable spikes;
  (iii) manual provisioning          — scheduled floors for rare,
                                       expected events (Black Friday).

This example runs all three layers together over a multi-week trace
containing a Black Friday surge plus an unscheduled flash crowd, and
compares the composite against each layer alone.  It also demonstrates
the online/active-learning wrapper (weekly SPAR refits, Section 6) and
the E-Store-style hot-spot rebalancer this repo adds as the paper's
stated future work.

Run:  python examples/composite_provisioning.py
"""

import numpy as np

from repro.core.params import PAPER_SATURATION_RATE, SystemParameters
from repro.engine import HotSpotRebalancer
from repro.b2w import B2WClient
from repro.core.controller import (
    ManualOverrideController,
    ProvisioningWindow,
    ReactiveController,
)
from repro.prediction import ForecastTable, OnlinePredictor, SPARPredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation import CapacitySimulator
from repro.workloads import FlashCrowd, generate_b2w_long_trace, inject_flash_crowd

SLOT = 300.0
INTERVALS_PER_DAY = int(86400 / SLOT)
NUM_DAYS = 70
BLACK_FRIDAY = 63      # known, scheduled
FLASH_CROWD_DAY = 50   # nobody saw it coming


def provisioning_section() -> None:
    trace = generate_b2w_long_trace(
        num_days=NUM_DAYS, black_friday_day=BLACK_FRIDAY, slot_seconds=SLOT,
        seed=77,
    ).scaled(6.0)
    # An unscheduled flash crowd on an ordinary day.
    trace = inject_flash_crowd(
        trace,
        FlashCrowd(
            start_seconds=(FLASH_CROWD_DAY + 0.55) * 86400,
            ramp_seconds=300.0, plateau_seconds=5400.0, decay_seconds=3600.0,
            magnitude=1.9,
        ),
    )
    train = trace.values[: 28 * INTERVALS_PER_DAY]
    eval_trace = trace[28 * INTERVALS_PER_DAY :]

    params = SystemParameters(
        q=PAPER_SATURATION_RATE * 0.65,
        q_max=PAPER_SATURATION_RATE * 0.80,
        interval_seconds=SLOT,
        partitions_per_node=6,
    )
    simulator = CapacitySimulator(params, max_machines=20)

    # Online SPAR: fitted on four weeks, refitting weekly thereafter.
    online = OnlinePredictor(
        SPARPredictor(period=INTERVALS_PER_DAY, n_periods=7, n_recent=12,
                      max_horizon=12),
        refit_every=7 * INTERVALS_PER_DAY,
    )
    online.fit(train)

    # The four-week fit's forecasts over the evaluation, issued in advance.
    table = ForecastTable.from_spar(
        online.inner, np.concatenate([train, eval_trace.values]), 12
    )

    def predictive():
        return OnlineControlLoop(
            params, OnlinePredictor.fitted(table, train), horizon=12, max_machines=20
        )

    controllers = {
        "reactive-h0.00": ReactiveController(params, max_machines=20, scale_in_slots=12),
        "pstore-spar": predictive(),
        "pstore-spar+manual": ManualOverrideController(
            predictive(),
            [ProvisioningWindow(BLACK_FRIDAY - 28 - 0.5, BLACK_FRIDAY - 28 + 1.5,
                                min_machines=14, label="Black Friday")],
        ),
    }

    print(f"{'strategy':<22} {'cost':>8} {'avg mach':>9} {'% insufficient':>15}")
    results = {}
    for name, controller in controllers.items():
        result = results[name] = simulator.run(eval_trace, controller)
        print(f"{name:<22} {result.cost:>8.0f} "
              f"{result.average_machines():>9.2f} "
              f"{result.pct_time_insufficient:>15.3f}")

    bf = (BLACK_FRIDAY - 28 - 1) * INTERVALS_PER_DAY
    window = slice(bf, bf + 3 * INTERVALS_PER_DAY)
    print("\n% of time insufficient within the Black Friday window:")
    for name, result in results.items():
        mask = result.insufficient_mask()[window]
        print(f"  {name:<22} {100 * mask.mean():6.2f}%")
    print("\nThe manual floor is the paper's 'extra precaution': P-Store "
          "already rides out Black Friday, so the overlay only adds cost "
          f"(+{100 * (results['pstore-spar+manual'].cost / results['pstore-spar'].cost - 1):.0f}%).")

    # Active learning (Section 6): stream the evaluation weeks into the
    # online wrapper, which refits SPAR once per week of new data.
    online.observe_many(eval_trace.values)
    print(f"Online learner refits after streaming "
          f"{eval_trace.duration_days:.0f} more days: {online.refits - 1} "
          f"(one per week of new measurements)")


def skew_section() -> None:
    print("\n=== Skew management (future-work extension) ===")
    client = B2WClient.fresh(initial_nodes=3, partitions_per_node=2, max_nodes=5)
    rebalancer = HotSpotRebalancer(client.cluster)

    # A celebrity product: one SKU gets hammered.
    hot_sku = client.generator.sku(0)
    from repro.engine import Transaction

    for _ in range(8000):
        client.executor.execute(Transaction("GetStockQuantity", hot_sku))
    client.execute_many(3000)  # background traffic

    counts = client.cluster.access_counts_per_partition()
    print(f"Per-partition accesses before rebalancing: {counts}")
    action = rebalancer.rebalance_once()
    if action is not None:
        print(f"Rebalanced: moved buckets {action.buckets} "
              f"({action.rows_moved} rows) from node {action.source_node} "
              f"to node {action.target_node}")
    fractions = client.cluster.data_fractions()
    print(f"Data fractions after shedding: "
          f"{ {n: round(f, 3) for n, f in sorted(fractions.items())} }")


def main() -> None:
    print("=== Composite provisioning: predictive + reactive + manual ===")
    provisioning_section()
    skew_section()


if __name__ == "__main__":
    main()
