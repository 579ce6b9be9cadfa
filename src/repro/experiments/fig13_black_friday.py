"""Figure 13: effective capacity of three strategies around Black Friday.

The paper plots the actual load and the effective capacity of P-Store
(SPAR), the Simple day/night strategy and a Static allocation over two
4-day windows: an ordinary stretch (where Simple "seems like it could
work") and the Black Friday surge (where only P-Store — combining its
predictive planning with the reactive fallback — keeps capacity above
the load).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.controller import SimpleController
from repro.core.params import PAPER_SATURATION_RATE, SystemParameters
from repro.experiments.common import PaperComparison, comparison_table, format_table
from repro.experiments.fig12_cost_capacity import (
    INTERVALS_PER_DAY,
    MAX_MACHINES,
    SLOT_SECONDS,
    build_trace,
)
from repro.prediction import ForecastTable, OnlinePredictor, SPARPredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation.capacity_sim import CapacitySimResult, CapacitySimulator

WINDOW_DAYS = 4


@dataclass
class WindowStats:
    """Violations of one strategy inside one 4-day window."""

    pct_time_insufficient: float
    min_headroom: float  # min(effective max capacity - peak load), txn/s


@dataclass
class Fig13Result:
    results: Dict[str, CapacitySimResult]
    regular_window: Tuple[int, int]
    black_friday_window: Tuple[int, int]

    def window_stats(self, strategy: str, window: Tuple[int, int]) -> WindowStats:
        result = self.results[strategy]
        lo, hi = window
        mask = result.insufficient_mask()[lo:hi]
        headroom = (
            result.max_effective_capacity[lo:hi] - result.peak_load_rate[lo:hi]
        )
        return WindowStats(
            pct_time_insufficient=100.0 * float(mask.mean()),
            min_headroom=float(headroom.min()),
        )

    def format_report(self) -> str:
        regular = {
            name: self.window_stats(name, self.regular_window) for name in self.results
        }
        friday = {
            name: self.window_stats(name, self.black_friday_window)
            for name in self.results
        }
        comparisons = [
            PaperComparison(
                "Simple adequate on a regular week", "mostly",
                f"{regular['simple'].pct_time_insufficient:.2f}% insufficient",
            ),
            PaperComparison(
                "Simple breaks down on Black Friday", "yes",
                f"{friday['simple'].pct_time_insufficient:.2f}% insufficient",
            ),
            PaperComparison(
                "Static not resilient to the surge", "yes",
                f"{friday['static'].pct_time_insufficient:.2f}% insufficient",
            ),
            PaperComparison(
                "P-Store handles Black Friday", "yes (predictive + reactive)",
                f"{friday['pstore-spar'].pct_time_insufficient:.2f}% insufficient",
            ),
        ]
        rows = []
        for name in self.results:
            rows.append(
                (
                    name,
                    f"{regular[name].pct_time_insufficient:.2f}",
                    f"{friday[name].pct_time_insufficient:.2f}",
                )
            )
        table = format_table(
            ("strategy", "% insufficient (regular)", "% insufficient (Black Friday)"),
            rows,
        )
        return (
            comparison_table(comparisons, "Figure 13 — Black Friday windows")
            + "\n\n"
            + table
        )


def run(fast: bool = False, seed: int = 20160801) -> Fig13Result:
    """Simulate the three strategies and slice the two 4-day windows."""
    num_days = 70 if fast else 165
    bf_day = 56 if fast else 144
    train, eval_trace = build_trace(num_days, seed=seed, black_friday_day=bf_day)
    eval_bf_day = bf_day - 28  # Black Friday day index within the eval trace

    params = SystemParameters(
        q=PAPER_SATURATION_RATE * 0.65,
        q_max=PAPER_SATURATION_RATE * 0.80,
        interval_seconds=SLOT_SECONDS,
        partitions_per_node=6,
    )
    simulator = CapacitySimulator(params, max_machines=MAX_MACHINES)

    spar = SPARPredictor(
        period=INTERVALS_PER_DAY, n_periods=7, n_recent=12, max_horizon=12
    ).fit(train)
    table = ForecastTable.from_spar(spar, np.concatenate([train, eval_trace.values]), 12)
    pstore = OnlineControlLoop(
        params, OnlinePredictor.fitted(table, train),
        horizon=12, max_machines=MAX_MACHINES,
    )

    results = {
        "pstore-spar": simulator.run(eval_trace, pstore),
        "simple": simulator.run(
            eval_trace,
            SimpleController(10, night_machines=4, morning_hour=6.0, night_hour=23.9),
            initial_machines=4,
        ),
        "static": simulator.run(eval_trace, initial_machines=10),
    }

    regular_start_day = max(eval_bf_day - 20, 0)
    regular = (
        regular_start_day * INTERVALS_PER_DAY,
        (regular_start_day + WINDOW_DAYS) * INTERVALS_PER_DAY,
    )
    friday = (
        (eval_bf_day - 1) * INTERVALS_PER_DAY,
        (eval_bf_day - 1 + WINDOW_DAYS) * INTERVALS_PER_DAY,
    )
    return Fig13Result(
        results=results, regular_window=regular, black_friday_window=friday
    )
