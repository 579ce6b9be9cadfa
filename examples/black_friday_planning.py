#!/usr/bin/env python3
"""Capacity planning over months, including Black Friday (Section 8.3).

Runs the interval-level capacity simulator over a multi-month synthetic
B2W trace with a Black Friday surge, comparing five allocation
policies (Figure 12/13 of the paper), each the controller the engine
simulator runs:

* P-Store with SPAR predictions
* P-Store with an oracle (perfect predictions — the upper bound)
* Reactive (E-Store-style)
* Simple day/night switching
* Static allocations

Run:  python examples/black_friday_planning.py
"""

import numpy as np

from repro import viz
from repro.core.controller import ReactiveController, SimpleController
from repro.core.params import PAPER_SATURATION_RATE, SystemParameters
from repro.prediction import ForecastTable, OnlinePredictor, OraclePredictor, SPARPredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation import CapacitySimulator
from repro.workloads import generate_b2w_long_trace

SLOT = 300.0
INTERVALS_PER_DAY = int(86400 / SLOT)
NUM_DAYS = 98           # 4 training weeks + 10 evaluation weeks
BLACK_FRIDAY = 84       # near the end, like late November


def main() -> None:
    trace = generate_b2w_long_trace(
        num_days=NUM_DAYS, black_friday_day=BLACK_FRIDAY, slot_seconds=SLOT,
        seed=20160801,
    ).scaled(6.0)
    train = trace.values[: 28 * INTERVALS_PER_DAY]
    eval_trace = trace[28 * INTERVALS_PER_DAY :]
    print(f"Simulating {eval_trace.duration_days:.0f} days "
          f"({len(eval_trace)} five-minute intervals); Black Friday on "
          f"eval day {BLACK_FRIDAY - 28}")

    params = SystemParameters(
        q=PAPER_SATURATION_RATE * 0.65,
        q_max=PAPER_SATURATION_RATE * 0.80,
        interval_seconds=SLOT,
        partitions_per_node=6,
    )
    simulator = CapacitySimulator(params, max_machines=20)

    spar = SPARPredictor(
        period=INTERVALS_PER_DAY, n_periods=7, n_recent=12, max_horizon=12
    ).fit(train)

    def pstore(inner, history):
        """P-Store's control loop, handed a predictor that arrives fitted."""
        return OnlineControlLoop(
            params, OnlinePredictor.fitted(inner, history), horizon=12, max_machines=20
        )

    # SPAR's forecasts over the evaluation, issued in advance in one pass.
    table = ForecastTable.from_spar(spar, np.concatenate([train, eval_trace.values]), 12)
    simple = SimpleController(10, night_machines=4, morning_hour=6.0, night_hour=23.9)
    results = {
        "pstore-spar": simulator.run(eval_trace, pstore(table, train)),
        "pstore-oracle": simulator.run(
            eval_trace, pstore(OraclePredictor(eval_trace.values), ())
        ),
        "reactive-h0.00": simulator.run(
            eval_trace, ReactiveController(params, max_machines=20, scale_in_slots=12)
        ),
        "simple-10/4": simulator.run(eval_trace, simple, initial_machines=4),
        "static-10": simulator.run(eval_trace, initial_machines=10),
        "static-4": simulator.run(eval_trace, initial_machines=4),
    }
    reference = results["pstore-spar"].cost

    print(f"\n{'strategy':<16} {'norm cost':>10} {'avg mach':>9} "
          f"{'% insufficient':>15} {'moves':>6}")
    for name, result in results.items():
        print(f"{name:<16} {result.cost / reference:>10.3f} "
              f"{result.average_machines():>9.2f} "
              f"{result.pct_time_insufficient:>15.3f} {result.moves:>6}")

    # Zoom into the Black Friday window (Figure 13 right).
    bf_start = (BLACK_FRIDAY - 28 - 1) * INTERVALS_PER_DAY
    bf_end = bf_start + 4 * INTERVALS_PER_DAY
    print("\nBlack Friday window (4 days), % of time with insufficient capacity:")
    for name, result in results.items():
        mask = result.insufficient_mask()[bf_start:bf_end]
        print(f"  {name:<16} {100.0 * mask.mean():6.2f}%")

    # Textual Figure 13: load vs effective capacity around the surge.
    for name in ("pstore-spar", "simple-10/4", "static-10"):
        result = results[name]
        print(f"\n{name} around Black Friday:")
        print(
            viz.load_vs_capacity_strip(
                result.peak_load_rate[bf_start:bf_end],
                result.max_effective_capacity[bf_start:bf_end],
                width=72,
            )
        )


if __name__ == "__main__":
    main()
