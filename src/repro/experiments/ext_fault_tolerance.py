"""Extension: chaos run — P-Store under infrastructure faults.

The paper's evaluation assumes machines never fail and Squall transfers
never stall.  This experiment replays the (compressed) B2W day of
Figure 9 twice with the same seed:

1. **fault-free baseline** — byte-identical to the normal P-Store run;
2. **chaos run** — the same workload under a deterministic
   :class:`~repro.faults.plan.FaultPlan`: a mid-ramp migration stall, a
   retried chunk failure, a failure streak long enough to kill the move
   permanently, a node crash (with later recovery) and a straggler
   window.

Migration-targeted faults are scheduled a few seconds after the
baseline's observed controller decisions, so they deterministically land
while a move is in flight.  The report shows the recovery behaviour the
controller must exhibit: aborted moves replanned from the surviving
allocation (or the reactive fallback when no plan is feasible), bounded
SLA damage, and a :class:`~repro.faults.injector.FaultStats` ledger that
accounts for every planned fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.engine.simulator import EngineSimulator, RunResult
from repro.experiments.common import PaperComparison, comparison_table, format_table
from repro.experiments.fig9_elasticity import BenchmarkSetup, build_setup, pstore_engine
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    MigrationStall,
    NodeCrash,
    NodeStraggler,
    TransferFailure,
)
from repro.telemetry.slo import SLAReport, sla_report

#: The documented default seed of the chaos experiment; the fault plan,
#: the workload and every recovery action are deterministic given it.
DEFAULT_FAULT_SEED = 727

#: Compressed day length (Section 7's 10x replay of 86400 s).
DAY_SECONDS = 8640.0


def build_fault_plan(
    decision_times: List[float], *, day_seconds: float = DAY_SECONDS
) -> FaultPlan:
    """The chaos schedule, anchored on the baseline's move times.

    ``decision_times`` are the fault-free run's controller decisions;
    stall/transfer-failure events fire a few seconds after a move starts
    so they deterministically catch it in flight.  The crash and the
    straggler are wall-clock anchored.
    """
    events = []
    if decision_times:
        events.append(
            MigrationStall(at_seconds=decision_times[0] + 5.0, duration_seconds=45.0)
        )
    if len(decision_times) > 1:
        events.append(TransferFailure(at_seconds=decision_times[1] + 5.0, count=1))
    if len(decision_times) > 2:
        # A streak longer than MigrationConfig.max_retries: the move
        # fails permanently and the controller must replan.
        events.append(TransferFailure(at_seconds=decision_times[2] + 5.0, count=5))
    events.append(
        NodeCrash(
            at_seconds=0.52 * day_seconds, node_id=2, recover_after_seconds=900.0
        )
    )
    events.append(
        NodeStraggler(
            at_seconds=0.68 * day_seconds,
            node_id=1,
            factor=0.5,
            duration_seconds=120.0,
        )
    )
    return FaultPlan(events)


@dataclass
class ChaosRun:
    """One engine run plus the control-loop observability around it."""

    result: RunResult
    report: SLAReport
    moves: int
    migrations_aborted: int
    topology_changes: int
    fallbacks: int
    decision_times: List[float]
    decision_kinds: List[str]


@dataclass
class ExtFaultToleranceResult:
    baseline: ChaosRun
    faulted: ChaosRun
    plan: FaultPlan
    stats: FaultStats
    crash_seconds: float
    recovery_seconds: float

    # ------------------------------------------------------------------
    def stats_match_plan(self) -> bool:
        """Every planned fault is accounted for: injected or (for
        migration-targeted faults that found no move in flight) skipped."""
        planned = self.plan.counts()
        s = self.stats
        return (
            s.crashes_injected + s.crashes_skipped == planned["crashes"]
            and s.stragglers_injected == planned["stragglers"]
            and s.transfer_failures_injected + s.transfer_failures_skipped
            == planned["transfer_failures"]
            and s.stalls_injected + s.stalls_skipped == planned["stalls"]
        )

    def controller_recovered(self) -> bool:
        """The control loop noticed every forced topology change and the
        run ended with a sane allocation."""
        return (
            self.faulted.topology_changes >= self.stats.crashes_injected
            and float(self.faulted.result.machines[-1]) >= 1.0
        )

    def machine_hours(self, run: ChaosRun) -> float:
        return run.result.total_cost() / 3600.0

    def format_report(self) -> str:
        base, chaos = self.baseline, self.faulted
        comparisons = [
            PaperComparison(
                "uncaught exceptions during chaos run", "0 (required)", "0"
            ),
            PaperComparison(
                "fault ledger accounts for the whole plan", "yes",
                str(self.stats_match_plan()),
            ),
            PaperComparison(
                "controller replanned after forced changes", "yes",
                str(self.controller_recovered()),
            ),
            PaperComparison(
                "longest p99 outage caused by a fault",
                "bounded",
                f"{self.recovery_seconds:.0f} s to p99 <= SLA",
            ),
        ]
        rows = [
            (
                "fault-free",
                base.report.violations_p50,
                base.report.violations_p95,
                base.report.violations_p99,
                f"{self.machine_hours(base):.2f}",
                base.moves,
                base.migrations_aborted,
                base.topology_changes,
            ),
            (
                "chaos",
                chaos.report.violations_p50,
                chaos.report.violations_p95,
                chaos.report.violations_p99,
                f"{self.machine_hours(chaos):.2f}",
                chaos.moves,
                chaos.migrations_aborted,
                chaos.topology_changes,
            ),
        ]
        table = format_table(
            ("run", "p50 viol", "p95 viol", "p99 viol", "mach-h", "moves",
             "aborted", "replans"),
            rows,
            title="Chaos run vs fault-free baseline (1 compressed B2W day)",
        )
        stats_table = format_table(
            ("fault counter", "value"),
            sorted(self.stats.as_dict().items()),
            title="FaultStats ledger",
        )
        return (
            comparison_table(
                comparisons, "Extension — fault tolerance (chaos experiment)"
            )
            + "\n\n" + table + "\n\n" + stats_table
        )


def _run_once(
    setup: BenchmarkSetup, injector: Optional[FaultInjector]
) -> Tuple[ChaosRun, EngineSimulator]:
    sim, controller = pstore_engine(setup, fault_injector=injector)
    result = sim.run(setup.eval_trace, controller=controller)
    report = sla_report("chaos" if injector else "baseline", result)
    run = ChaosRun(
        result=result,
        report=report,
        moves=controller.moves_requested,
        migrations_aborted=sim.migrations_aborted,
        topology_changes=controller.topology_changes_detected,
        fallbacks=sum(1 for d in controller.decision_log if d.kind == "fallback"),
        decision_times=[d.sim_time for d in controller.decision_log],
        decision_kinds=[d.kind for d in controller.decision_log],
    )
    return run, sim


def _recovery_seconds(result: RunResult, after_seconds: float) -> float:
    """Longest contiguous p99-over-SLA outage at/after ``after_seconds``.

    Anchored on the first injected fault, this is the worst disruption
    the fault schedule caused and therefore the time the control loop
    needed to restore service; 0 means every fault was absorbed with no
    p99 SLA impact at all.
    """
    over = (result.time >= after_seconds) & (result.p99_ms > result.sla_ms)
    edges = np.diff(np.concatenate(([0], over.astype(np.int8), [0])))
    starts = np.nonzero(edges == 1)[0]
    if len(starts) == 0:
        return 0.0
    ends = np.nonzero(edges == -1)[0]
    return float((ends - starts).max() * result.dt_seconds)


def run(fast: bool = False, seed: int = DEFAULT_FAULT_SEED) -> ExtFaultToleranceResult:
    """Replay one compressed B2W day fault-free, then under the plan."""
    def fresh_setup() -> BenchmarkSetup:
        return build_setup(
            eval_days=1,
            train_days=10 if fast else 28,
            seed=seed,
            with_skew=False,
        )

    baseline, _ = _run_once(fresh_setup(), None)
    plan = build_fault_plan(baseline.decision_times)
    injector = FaultInjector(plan)
    faulted, _sim = _run_once(fresh_setup(), injector)

    crash_seconds = next(
        (e.at_seconds for e in plan if isinstance(e, NodeCrash)), 0.0
    )
    first_fault = min((e.at_seconds for e in plan), default=0.0)
    return ExtFaultToleranceResult(
        baseline=baseline,
        faulted=faulted,
        plan=plan,
        stats=injector.stats,
        crash_seconds=crash_seconds,
        recovery_seconds=_recovery_seconds(faulted.result, first_fault),
    )
