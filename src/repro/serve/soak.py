"""Sustained soak runs over the distributed serving path.

A soak is the anti-microbenchmark: an open-loop Poisson load at a high
*aggregate* rate, fanned over every worker shard for minutes of virtual
time, reporting the numbers that only show up under sustained pressure —
tail latency (p99), shed rate, and the request conservation identity
(``offered = served + shed + errored + in-flight``), which must hold
**exactly** or the distributed bookkeeping is wrong.

:func:`run_soak` builds the fleet from a :class:`SoakConfig`, drives it,
and returns a :class:`SoakReport` whose :meth:`SoakReport.gate` applies
the CI thresholds.  ``repro soak`` is the CLI face; the ``soak-smoke``
CI job runs ``scripts/soak_smoke.sh`` against it and fails the build on
any gate breach.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError
from repro.serve.checkpoint import CheckpointConfig
from repro.serve.edge import DistributedServeSession
from repro.serve.loadgen import poisson_arrivals
from repro.serve.resilience import BreakerConfig, BrownoutConfig
from repro.serve.worker import TRANSPORT_MODES, WorkerSpec
from repro.telemetry import Telemetry
from repro.telemetry.slo import SLOConfig

#: Report schema version for the CI artifact.
SOAK_REPORT_FORMAT = "repro-soak-report/1"


@dataclass(frozen=True)
class SoakConfig:
    """One soak run: fleet shape, load, and gate thresholds.

    Attributes:
        workers: Worker shard count.
        rate_per_s: Aggregate offered Poisson rate across the fleet.
        duration_s: Virtual seconds to sustain it.
        mode: Transport (``pipe``/``tcp``/``inproc``).
        seed: Seeds the arrival schedule, edge RNG and worker engines.
        initial_nodes / max_nodes / saturation_rate_per_node: Per-worker
            engine sizing (see :class:`~repro.serve.worker.WorkerSpec`).
        control: Per-worker control loop (``online``/``reactive``/``none``).
        edge_queue_limit_s: Optional coarse edge admission bound.
        low_priority_fraction: Sheddable fraction of the load.
        max_p99_ms: Gate — p99 latency ceiling (0 disables).
        max_shed_rate: Gate — shed-fraction ceiling (1 disables).
        telemetry / trace_requests: Edge observability toggles.
        telemetry_every_ticks: Pull worker telemetry deltas on this tick
            cadence so the edge holds a live fleet-wide view (0 = end of
            run only); implies telemetry.
        timeseries: Sample the edge's fleet view into a bounded
            ring-buffer :class:`~repro.telemetry.timeseries.
            TimeSeriesStore` once per tick; implies telemetry.
        checkpoint_path / checkpoint_every_s: Optional mid-soak fleet
            snapshots.
    """

    workers: int = 2
    rate_per_s: float = 400.0
    duration_s: float = 120.0
    mode: str = "pipe"
    seed: int = 0
    initial_nodes: int = 1
    max_nodes: int = 4
    saturation_rate_per_node: float = 438.0
    queue_limit_seconds: float = 10.0
    control: str = "none"
    edge_queue_limit_s: Optional[float] = None
    low_priority_fraction: float = 0.0
    max_p99_ms: float = 500.0
    max_shed_rate: float = 0.2
    telemetry: bool = False
    trace_requests: bool = False
    telemetry_every_ticks: int = 0
    timeseries: bool = False
    slo: bool = False
    checkpoint_path: Optional[str] = None
    checkpoint_every_s: float = 600.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError("soak needs at least one worker")
        if self.telemetry_every_ticks < 0:
            raise ConfigurationError("telemetry_every_ticks must be >= 0")
        if self.rate_per_s <= 0 or self.duration_s <= 0:
            raise ConfigurationError("soak rate and duration must be positive")
        if self.mode not in TRANSPORT_MODES:
            raise ConfigurationError(
                f"unknown soak transport {self.mode!r}; use one of "
                + ", ".join(TRANSPORT_MODES)
            )
        if self.max_p99_ms < 0:
            raise ConfigurationError("max_p99_ms must be >= 0")
        if not 0.0 <= self.max_shed_rate <= 1.0:
            raise ConfigurationError("max_shed_rate must be in [0, 1]")

    def worker_specs(self) -> List[WorkerSpec]:
        return [
            WorkerSpec(
                worker_id=index,
                initial_nodes=self.initial_nodes,
                max_nodes=self.max_nodes,
                saturation_rate_per_node=self.saturation_rate_per_node,
                queue_limit_seconds=self.queue_limit_seconds,
                control=self.control,
                # Distinct engine seeds per shard: identical seeds would
                # make every shard draw identical latency streams.
                seed=self.seed + index,
                trace_requests=self.trace_requests,
                collect_telemetry=(
                    self.telemetry
                    or self.trace_requests
                    or self.telemetry_every_ticks > 0
                    or self.timeseries
                ),
            )
            for index in range(self.workers)
        ]


@dataclass
class SoakReport:
    """Gate-able outcome of one soak run."""

    config: SoakConfig
    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    errored: int = 0
    in_flight: int = 0
    conserved: bool = True
    p50_ms: float = 0.0
    p95_ms: float = 0.0
    p99_ms: float = 0.0
    shed_rate: float = 0.0
    throughput_per_s: float = 0.0
    duration_s: float = 0.0
    wall_seconds: float = 0.0
    conservation_line: str = ""
    worker_machines: Dict[str, int] = field(default_factory=dict)
    checkpoints_written: int = 0
    failures: List[str] = field(default_factory=list)

    def gate(self) -> List[str]:
        """Evaluate the CI gates; the (cached) list of breaches."""
        if self.failures:
            return self.failures
        if not self.conserved:
            self.failures.append(
                f"conservation violated: {self.conservation_line}"
            )
        if self.config.max_p99_ms > 0 and self.p99_ms > self.config.max_p99_ms:
            self.failures.append(
                f"p99 {self.p99_ms:.1f}ms exceeds gate "
                f"{self.config.max_p99_ms:.1f}ms"
            )
        if self.shed_rate > self.config.max_shed_rate:
            self.failures.append(
                f"shed rate {self.shed_rate:.4f} exceeds gate "
                f"{self.config.max_shed_rate:.4f}"
            )
        return self.failures

    @property
    def passed(self) -> bool:
        return not self.gate()

    def as_dict(self) -> Dict[str, object]:
        return {
            "format": SOAK_REPORT_FORMAT,
            "config": {
                "workers": self.config.workers,
                "rate_per_s": self.config.rate_per_s,
                "duration_s": self.config.duration_s,
                "mode": self.config.mode,
                "seed": self.config.seed,
                "control": self.config.control,
                "max_p99_ms": self.config.max_p99_ms,
                "max_shed_rate": self.config.max_shed_rate,
            },
            "offered": self.offered,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "errored": self.errored,
            "in_flight": self.in_flight,
            "conserved": self.conserved,
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "shed_rate": round(self.shed_rate, 6),
            "throughput_per_s": round(self.throughput_per_s, 2),
            "duration_s": self.duration_s,
            "wall_seconds": round(self.wall_seconds, 3),
            "worker_machines": self.worker_machines,
            "checkpoints_written": self.checkpoints_written,
            "passed": self.passed,
            "failures": list(self.gate()),
        }

    def write(self, path: str) -> None:
        """Write the JSON artifact the soak-smoke CI job uploads."""
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def format_report(self) -> str:
        lines = [
            f"soak: {self.config.workers} workers ({self.config.mode}) | "
            f"{self.config.rate_per_s:g} req/s aggregate | "
            f"{self.duration_s:.0f}s virtual in {self.wall_seconds:.1f}s wall",
            f"offered {self.offered} | served {self.accepted} | "
            f"shed {self.rejected} ({100.0 * self.shed_rate:.2f}%) | "
            f"errored {self.errored}",
            f"latency p50/p95/p99: {self.p50_ms:.1f} / {self.p95_ms:.1f} / "
            f"{self.p99_ms:.1f} ms | throughput {self.throughput_per_s:.1f}/s",
            self.conservation_line,
        ]
        if self.worker_machines:
            lines.append(
                "workers: "
                + " | ".join(
                    f"w{wid} machines {count}"
                    for wid, count in sorted(self.worker_machines.items())
                )
            )
        if self.checkpoints_written:
            lines.append(f"checkpoints written: {self.checkpoints_written}")
        for failure in self.gate():
            lines.append(f"GATE FAIL: {failure}")
        if self.passed:
            lines.append("gates: PASS")
        return "\n".join(lines)


def build_soak_session(
    config: SoakConfig,
    telemetry: Optional[Telemetry] = None,
    *,
    restore: Optional[str] = None,
) -> DistributedServeSession:
    """The distributed session a soak config describes (not started).

    With ``restore``, the session is rebuilt mid-soak from that fleet
    checkpoint: ``config`` must match the checkpointed run; passing the
    session to :func:`run_soak` then serves only the remaining virtual
    time and the combined run is bit-identical to an uninterrupted soak.
    """
    checkpoint = None
    if config.checkpoint_path:
        checkpoint = CheckpointConfig(
            path=config.checkpoint_path, every_s=config.checkpoint_every_s
        )
    streaming = config.telemetry_every_ticks > 0 or config.timeseries
    if telemetry is None and (
        config.telemetry or config.trace_requests or streaming
    ):
        telemetry = Telemetry()
    timeseries = None
    if config.timeseries:
        from repro.telemetry.timeseries import TimeSeriesStore

        timeseries = TimeSeriesStore()
    recipe = {
        "mode": config.mode,
        "edge_queue_limit_s": config.edge_queue_limit_s,
        "breaker": BreakerConfig(),
        "brownout": (
            BrownoutConfig() if config.low_priority_fraction > 0 else None
        ),
        "slo": SLOConfig() if config.slo else None,
        "low_priority_fraction": config.low_priority_fraction,
        "trace_requests": config.trace_requests,
        "telemetry": telemetry,
        "telemetry_every_ticks": config.telemetry_every_ticks,
        "timeseries": timeseries,
        "seed": config.seed,
        "checkpoint": checkpoint,
    }
    arrivals = poisson_arrivals(
        config.rate_per_s, config.duration_s, seed=config.seed
    )
    if restore is not None:
        return DistributedServeSession.resume(
            config.worker_specs(), arrivals, restore, **recipe
        )
    return DistributedServeSession(config.worker_specs(), arrivals, **recipe)


def run_soak(
    config: SoakConfig,
    *,
    telemetry: Optional[Telemetry] = None,
    session: Optional[DistributedServeSession] = None,
    wall_clock=None,
) -> SoakReport:
    """Run one soak to completion and aggregate the report.

    Args:
        config: The soak recipe.
        telemetry: Optional pre-built edge telemetry handle.
        session: Pre-built (e.g. resumed-from-checkpoint) session to
            drive instead of building a fresh one; it is closed here.
        wall_clock: Injectable monotonic clock (tests pin it).
    """
    import time

    clock = wall_clock if wall_clock is not None else time.monotonic
    if session is None:
        session = build_soak_session(config, telemetry)
    started = clock()
    try:
        session.start()
        remaining = config.duration_s - session.report.duration_s
        if remaining > 0:
            session.run(remaining)
        session.collect_telemetry()
        report = _aggregate(config, session)
    finally:
        session.close()
    report.wall_seconds = max(0.0, clock() - started)
    return report


def _aggregate(
    config: SoakConfig, session: DistributedServeSession
) -> SoakReport:
    loadgen = session.report
    return SoakReport(
        config=config,
        offered=loadgen.offered,
        accepted=loadgen.accepted,
        rejected=loadgen.rejected,
        errored=loadgen.errored,
        in_flight=loadgen.in_flight,
        conserved=loadgen.conserved,
        p50_ms=loadgen.latency_percentile(50.0),
        p95_ms=loadgen.latency_percentile(95.0),
        p99_ms=loadgen.latency_percentile(99.0),
        shed_rate=loadgen.reject_rate,
        throughput_per_s=loadgen.throughput_per_s,
        duration_s=loadgen.duration_s,
        conservation_line=loadgen.conservation_line(),
        worker_machines={
            str(wid): int(ad[0])
            for wid, ad in sorted(session.engine.advertised.items())
        },
        checkpoints_written=session.checkpoints_written,
    )
