"""Figure 8: latency while reconfiguring with different chunk sizes.

The paper's D-discovery experiment (Section 8.1): with the source
machine held at ``Q_hat`` transactions per second, move half the
database to a second machine, varying the migration chunk size.  With
1000 kB chunks the 99th-percentile latency is only slightly above a
static (no reconfiguration) system; larger chunks finish sooner but
cause progressively worse p99 spikes, because each chunk pauses the
source partitions for longer.

The experiment keeps the *source machine's* rate pinned at ``Q_hat`` as
data moves (scaling the offered load up as routing weight shifts), just
like the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.params import SystemParameters
from repro.engine.migration import MigrationConfig
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.experiments.common import PaperComparison, comparison_table, format_table

PAPER_CHUNK_SIZES_KB = (1000.0, 2000.0, 4000.0, 6000.0, 8000.0)
PAPER_D_SECONDS = 4646.0
PAPER_MIGRATION_RATE_KBPS = 244.0


@dataclass
class ChunkRunResult:
    chunk_kb: Optional[float]  # None = static baseline
    p50_ms_max: float
    p99_ms_max: float
    p99_ms_mean: float
    migration_seconds: float


@dataclass
class Fig8Result:
    runs: List[ChunkRunResult]
    derived_d_seconds: float

    def by_chunk(self) -> Dict[Optional[float], ChunkRunResult]:
        return {run.chunk_kb: run for run in self.runs}

    def format_report(self) -> str:
        by = self.by_chunk()
        static = by[None]
        smallest = by[min(k for k in by if k is not None)]
        largest = by[max(k for k in by if k is not None)]
        comparisons = [
            PaperComparison(
                "1000 kB p99 vs static", "slightly larger, within SLA",
                f"{smallest.p99_ms_max:.0f} ms vs {static.p99_ms_max:.0f} ms",
            ),
            PaperComparison(
                "large chunks risk latency spikes", "yes",
                f"{largest.p99_ms_max:.0f} ms at {largest.chunk_kb:.0f} kB",
            ),
            PaperComparison(
                "D (move whole DB, one thread + 10%)", f"{PAPER_D_SECONDS:.0f} s",
                f"{self.derived_d_seconds:.0f} s",
            ),
        ]
        rows = [
            (
                "static" if run.chunk_kb is None else f"{run.chunk_kb:.0f} kB",
                f"{run.p50_ms_max:.0f}",
                f"{run.p99_ms_max:.0f}",
                f"{run.migration_seconds:.0f}",
            )
            for run in self.runs
        ]
        table = format_table(("chunk", "max p50 ms", "max p99 ms", "move s"), rows)
        return (
            comparison_table(comparisons, "Figure 8 — chunk-size sweep during migration")
            + "\n\n"
            + table
        )


def _run_one(
    chunk_kb: Optional[float],
    *,
    config: EngineConfig,
    params: SystemParameters,
    duration: int,
) -> ChunkRunResult:
    """One run: source at Q_hat; optional 1 -> 2 migration."""
    migration_config = MigrationConfig(
        chunk_kb=chunk_kb or 1000.0, rate_kbps=PAPER_MIGRATION_RATE_KBPS
    )
    sim = EngineSimulator(config, initial_nodes=1, migration_config=migration_config)
    migration_seconds = 0.0
    if chunk_kb is not None:
        migration = sim.start_move(2)
        migration_seconds = migration.total_seconds
    p50: List[float] = []
    p99: List[float] = []
    for _ in range(duration):
        # Keep the *source node's* rate pinned at Q_hat: total offered is
        # Q_hat divided by the source's current routing weight.
        weights = sim.cluster.node_weights()
        source_fraction = max(weights[0], 1e-6)
        offered = params.q_max / source_fraction
        sim.step(offered)
        p50_s, _, p99_s, _ = sim.last_latency_components.summary
        p50.append(p50_s * 1000.0)
        p99.append(p99_s * 1000.0)
    return ChunkRunResult(
        chunk_kb=chunk_kb,
        p50_ms_max=float(np.max(p50)),
        p99_ms_max=float(np.max(p99)),
        p99_ms_mean=float(np.mean(p99)),
        migration_seconds=migration_seconds,
    )


def run(fast: bool = False) -> Fig8Result:
    """Sweep chunk sizes for a 1 -> 2 migration under Q_hat load."""
    params = SystemParameters()
    config = EngineConfig(max_nodes=2, dt_seconds=1.0)
    chunk_sizes = PAPER_CHUNK_SIZES_KB[::2] if fast else PAPER_CHUNK_SIZES_KB
    # T(1, 2) = D / (P * 1) * (1 - 1/2); run a little past completion.
    move_seconds = params.d_seconds / config.partitions_per_node / 2.0
    duration = int(move_seconds) + (30 if fast else 120)

    runs = [_run_one(None, config=config, params=params, duration=duration)]
    for chunk in chunk_sizes:
        runs.append(_run_one(chunk, config=config, params=params, duration=duration))

    # Derive D the way the paper does: time to move half the database at
    # the no-impact rate, doubled for the whole database, plus 10% buffer.
    half_db_seconds = (
        EngineConfig().db_size_kb / 2.0 / PAPER_MIGRATION_RATE_KBPS
    )
    derived_d = 2.0 * half_db_seconds * 1.10
    return Fig8Result(runs=runs, derived_d_seconds=derived_d)
