#!/usr/bin/env python3
"""A full online run: P-Store vs a reactive baseline on one retail day.

Replays a compressed (10x, as in Section 7 of the paper) B2W-like day
against the simulated H-Store-like engine, with the complete online
loop in place: load monitoring, SPAR forecasting at 10-minute planning
granularity, the DP planner, and Squall-like live migrations.

Prints a Table-2-style comparison: SLA violations (seconds with
p50/p95/p99 latency above 500 ms) and average machines allocated.

Run:  python examples/b2w_retail_day.py        (about a minute)
"""

import numpy as np

from repro.core import ReactiveController, SystemParameters
from repro.engine import EngineConfig, EngineSimulator
from repro.prediction import OnlinePredictor, SPARPredictor
from repro.serve import OnlineControlLoop
from repro.telemetry.slo import sla_report
from repro.workloads import B2WTraceConfig, generate_b2w_trace

SPEEDUP = 10
SLOT = 6.0           # one original minute, compressed
PLAN = 60.0          # ten original minutes, compressed
TRAIN_DAYS = 10
EVAL_DAYS = 1


def main() -> None:
    # Trace calibrated so the compressed peak fits a 10-node cluster.
    config = B2WTraceConfig(
        num_days=TRAIN_DAYS + EVAL_DAYS, peak_per_minute=14500.0, seed=33
    )
    compressed = generate_b2w_trace(config=config).time_compressed(SPEEDUP)
    slots_per_day = int(86400 / SPEEDUP / SLOT)
    eval_trace = compressed[TRAIN_DAYS * slots_per_day :]

    intervals_per_day = int(86400 / SPEEDUP / PLAN)
    train = compressed.resample(PLAN).values[: TRAIN_DAYS * intervals_per_day]

    params = SystemParameters(interval_seconds=PLAN, partitions_per_node=6)
    print(f"Replaying {EVAL_DAYS} day at {SPEEDUP}x speed "
          f"({len(eval_trace)} slots of {SLOT:.0f}s); "
          f"peak {eval_trace.per_second().max():.0f} txn/s")

    spar = SPARPredictor(
        period=intervals_per_day, n_periods=7, n_recent=6, max_horizon=40
    ).fit(train)

    engine_config = EngineConfig(dt_seconds=1.0, max_nodes=10)
    first = max(1, int(np.ceil(eval_trace.per_second()[0] * 1.15 / params.q)))

    reports = []

    # --- P-Store ---------------------------------------------------------
    sim = EngineSimulator(engine_config, initial_nodes=first)
    pstore = OnlineControlLoop(
        params, OnlinePredictor.fitted(spar, train),
        measurement_slot_seconds=SLOT, max_machines=10,
    )
    result = sim.run(eval_trace, controller=pstore)
    reports.append((sla_report("P-Store (SPAR)", result), pstore.moves_requested))

    # --- Reactive (E-Store-style) ----------------------------------------
    sim = EngineSimulator(engine_config, initial_nodes=first)
    reactive = ReactiveController(
        params, max_machines=10, trigger_fraction=1.1, detect_slots=15,
        scale_in_slots=150, measurement_slot_seconds=SLOT,
    )
    result = sim.run(eval_trace, controller=reactive)
    reports.append((sla_report("Reactive", result), reactive.moves_requested))

    # --- Static baselines --------------------------------------------------
    for machines in (10, 4):
        sim = EngineSimulator(engine_config, initial_nodes=machines)
        result = sim.run(eval_trace)
        reports.append((sla_report(f"Static-{machines}", result), 0))

    print(f"\n{'approach':<28} {'p50':>6} {'p95':>6} {'p99':>6} "
          f"{'mach':>8}  moves")
    for report, moves in reports:
        print(f"{report.as_row()}  {moves:5d}")

    pstore_report = reports[0][0]
    reactive_report = reports[1][0]
    if reactive_report.violations_p99:
        saved = 100 * (1 - pstore_report.violations_p99
                       / reactive_report.violations_p99)
        print(f"\nP-Store causes {saved:.0f}% fewer p99 SLA violations than "
              f"the reactive baseline (paper: ~72% over 3 days)")


if __name__ == "__main__":
    main()
