"""Figure 7: increasing throughput on a single machine.

The paper's parameter-discovery procedure (Section 4.1 / 8.1): run a
rate-limited workload against one server, stepping the transaction rate
up until the server can no longer keep up — latency blows past the SLA
and throughput plateaus.  The B2W workload on H-Store saturated at
438 txn/s; ``Q_hat`` was set to 80% of that (350 txn/s) and ``Q`` to
65% (285 txn/s).

We run the same sweep against the simulated engine.  The simulator's
knee lands near (not exactly at) the paper's constant — what matters is
that the *procedure* yields the Q/Q-hat the rest of the system uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.params import PAPER_SLA_MS, SystemParameters
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.experiments.common import PaperComparison, comparison_table, format_table
from repro.workloads.trace import LoadTrace

PAPER_SATURATION = 438.0
PAPER_QHAT = 350.0
PAPER_Q = 285.0


@dataclass
class RateLevel:
    offered: float
    served: float
    p50_ms: float
    p99_ms: float
    mean_ms: float


@dataclass
class Fig7Result:
    levels: List[RateLevel]
    saturation_rate: float
    sla_crossing_rate: float
    derived: SystemParameters

    def format_report(self) -> str:
        comparisons = [
            PaperComparison("saturation (txn/s)", f"{PAPER_SATURATION:.0f}",
                            f"{self.saturation_rate:.0f}"),
            PaperComparison("Q_hat = 80% of saturation", f"{PAPER_QHAT:.0f}",
                            f"{self.derived.q_max:.0f}"),
            PaperComparison("Q = 65% of saturation", f"{PAPER_Q:.0f}",
                            f"{self.derived.q:.0f}"),
            PaperComparison("p99 exceeds SLA near saturation", "yes",
                            f"first at {self.sla_crossing_rate:.0f} txn/s"),
        ]
        rows = [
            (f"{lvl.offered:.0f}", f"{lvl.served:.0f}", f"{lvl.p50_ms:.0f}",
             f"{lvl.p99_ms:.0f}")
            for lvl in self.levels
        ]
        table = format_table(("offered", "served", "p50 ms", "p99 ms"), rows)
        return (
            comparison_table(comparisons, "Figure 7 — single-machine saturation sweep")
            + "\n\n"
            + table
        )


def measure_level(
    offered: float,
    *,
    config: EngineConfig,
    warmup_seconds: int = 30,
    measure_seconds: int = 60,
) -> RateLevel:
    """Steady-state latency/throughput of one node at a fixed rate."""
    sim = EngineSimulator(config, initial_nodes=1)
    total = warmup_seconds + measure_seconds
    trace = LoadTrace(np.full(total, offered * config.dt_seconds),
                      slot_seconds=config.dt_seconds)
    result = sim.run(trace)
    sl = slice(warmup_seconds, None)
    return RateLevel(
        offered=offered,
        served=float(result.served[sl].mean()),
        p50_ms=float(result.p50_ms[sl].mean()),
        p99_ms=float(result.p99_ms[sl].mean()),
        mean_ms=float(result.mean_ms[sl].mean()),
    )


def run(fast: bool = False, sla_ms: float = PAPER_SLA_MS) -> Fig7Result:
    """Sweep the offered rate on one simulated node and derive Q, Q-hat.

    Saturation is the highest offered rate the server still keeps up
    with (served >= 99.5% of offered) — the paper's "can no longer keep
    up" point, where its Figure 7 latency curve explodes.  The rate at
    which p99 first crosses the SLA is reported alongside.
    """
    config = EngineConfig(max_nodes=1, dt_seconds=1.0)
    step = 50.0 if fast else 20.0
    rates = np.arange(100.0, 520.0 + step, step)
    measure = 30 if fast else 60
    levels = [
        measure_level(rate, config=config, measure_seconds=measure) for rate in rates
    ]
    saturation = 0.0
    sla_crossing = 0.0
    for level in levels:
        if level.served >= 0.995 * level.offered:
            saturation = level.offered
        if sla_crossing == 0.0 and level.p99_ms > sla_ms:
            sla_crossing = level.offered
    derived = SystemParameters.from_saturation(saturation)
    return Fig7Result(
        levels=levels,
        saturation_rate=saturation,
        sla_crossing_rate=sla_crossing,
        derived=derived,
    )
