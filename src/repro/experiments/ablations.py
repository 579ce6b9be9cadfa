"""Ablations of P-Store's design choices.

Four studies backing the design decisions DESIGN.md calls out:

1. **Effective-capacity-aware planning** (Section 4.4.4): planning with
   Equation 7 versus naively assuming allocated machines contribute full
   capacity during a move.  Naive plans look cheaper but leave intervals
   where the *true* effective capacity is below the predicted load.
2. **Three-phase migration scheduling** (Section 4.4.1): optimal round
   counts versus a naive whole-block scheduler across cluster sizes.
3. **Scale-in confirmation** (Section 6): requiring three agreeing
   prediction cycles before scaling in versus acting immediately —
   confirmation suppresses reconfiguration churn.
4. **Prediction inflation** (Sections 8.2/8.3): sweeping the safety
   factor trades cost for capacity-violation risk, mirroring the Q sweep
   (footnote 2 of the paper).
5. **Forecast window** (Section 5's discussion): the window must cover
   at least ``2 * D / P``.  Receding-horizon re-planning plus the
   reactive fallback keep moderately short windows *safe*, but windows
   shorter than a single move's duration cannot ever justify a scale-in
   (the planner cannot prove there is time to scale back out), so the
   cluster stays over-provisioned — short windows cost money.
6. **Dynamic program vs predictive-greedy**: is the DP worth it, or
   would a simple rule ("provision for the forecast's maximum") do?
   The greedy rule is *safe* but cannot delay scale-outs or ride out
   short dips, so it pays for capacity long before (and after) the
   load needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

import repro.core.capacity as cap_model
from repro.core.params import PAPER_SATURATION_RATE, SystemParameters
from repro.core.planner import Planner
from repro.core.policy import Decision, PredictivePolicy
from repro.core.schedule import build_move_schedule, naive_block_round_count
from repro.experiments.common import format_table
from repro.parallel import parallel_map
from repro.prediction import ForecastTable, OnlinePredictor, SPARPredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation.capacity_sim import CapacitySimulator
from repro.workloads.b2w import generate_b2w_long_trace


# ----------------------------------------------------------------------
# 1. Effective-capacity-aware planning
# ----------------------------------------------------------------------
@dataclass
class EffCapAblation:
    aware_cost: float
    naive_cost: float
    aware_true_violations: int
    naive_true_violations: int

    def format_report(self) -> str:
        rows = [
            ("eff-cap aware (paper)", f"{self.aware_cost:.1f}",
             self.aware_true_violations),
            ("naive full-capacity", f"{self.naive_cost:.1f}",
             self.naive_true_violations),
        ]
        return format_table(
            ("planner", "plan cost", "true under-capacity intervals"),
            rows,
            title="Ablation 1 — effective-capacity-aware planning (Eq. 7)",
        )


def _true_violations(plan, load: np.ndarray, params: SystemParameters) -> int:
    """Intervals where the plan's *true* effective capacity < load."""
    violations = 0
    for move in plan.moves:
        duration = move.end - move.start
        for i in range(1, duration + 1):
            t = move.start + i
            if t >= len(load):
                continue
            eff = cap_model.effective_capacity(
                move.before, move.after, i / duration, params
            )
            if load[t] > eff + 1e-9:
                violations += 1
    return violations


def run_effcap_ablation(params: SystemParameters = None) -> EffCapAblation:
    """Plan a steep ramp with and without Equation 7.

    One-minute planning intervals make moves span several intervals, so
    the effective-capacity check actually constrains which intervals a
    move may straddle; the naive planner happily schedules a large
    scale-out across the ramp and under-provisions mid-move.
    """
    params = params or SystemParameters(interval_seconds=60.0, partitions_per_node=6)
    q = params.q
    load = np.linspace(1.8, 9.0, 16) * q
    aware = Planner(params, max_machines=12).best_moves(load, initial_machines=2)
    naive = Planner(
        params, max_machines=12, effective_capacity_aware=False
    ).best_moves(load, initial_machines=2)
    return EffCapAblation(
        aware_cost=aware.cost,
        naive_cost=naive.cost,
        aware_true_violations=_true_violations(aware, load, params),
        naive_true_violations=_true_violations(naive, load, params),
    )


# ----------------------------------------------------------------------
# 2. Three-phase scheduling
# ----------------------------------------------------------------------
@dataclass
class ScheduleAblation:
    cases: List[Tuple[int, int, int, int]]  # (B, A, optimal, naive)

    @property
    def total_saved_rounds(self) -> int:
        return sum(naive - optimal for _, _, optimal, naive in self.cases)

    def format_report(self) -> str:
        rows = [
            (f"{b} -> {a}", optimal, naive, naive - optimal)
            for b, a, optimal, naive in self.cases
        ]
        return format_table(
            ("move", "3-phase rounds", "naive rounds", "saved"),
            rows,
            title="Ablation 2 — three-phase vs naive block scheduling",
        )


def run_schedule_ablation(max_nodes: int = 16) -> ScheduleAblation:
    """Compare round counts for every scale-out needing phase 3."""
    cases: List[Tuple[int, int, int, int]] = []
    for before in range(2, max_nodes):
        for after in range(before + 1, max_nodes + 1):
            delta = after - before
            if delta > before and delta % before != 0:
                schedule = build_move_schedule(before, after)
                cases.append(
                    (before, after, schedule.num_rounds,
                     naive_block_round_count(before, after))
                )
    return ScheduleAblation(cases=cases)


# ----------------------------------------------------------------------
# 3. Scale-in confirmation + 4. inflation sweep
# ----------------------------------------------------------------------
@dataclass
class PolicySweepPoint:
    label: str
    cost: float
    pct_time_insufficient: float
    moves: int
    fallbacks: int = 0


@dataclass
class PolicyAblation:
    confirmation: List[PolicySweepPoint]
    inflation: List[PolicySweepPoint]

    def format_report(self) -> str:
        conf = format_table(
            ("scale-in confirmations", "cost", "% insufficient", "moves"),
            [(p.label, f"{p.cost:.0f}", f"{p.pct_time_insufficient:.3f}", p.moves)
             for p in self.confirmation],
            title="Ablation 3 — scale-in confirmation",
        )
        infl = format_table(
            ("prediction inflation", "cost", "% insufficient", "moves"),
            [(p.label, f"{p.cost:.0f}", f"{p.pct_time_insufficient:.3f}", p.moves)
             for p in self.inflation],
            title="Ablation 4 — prediction inflation sweep",
        )
        return conf + "\n\n" + infl


def _spar_loop(
    simulator: CapacitySimulator, spar: SPARPredictor, eval_trace, train,
    horizon: int = 12, **loop_kwargs,
) -> OnlineControlLoop:
    """P-Store's control loop for ``eval_trace``, handed SPAR's forecasts
    issued in advance over ``train ++ eval``."""
    table = ForecastTable.from_spar(
        spar, np.concatenate([train, eval_trace.values]), horizon
    )
    return OnlineControlLoop(
        simulator.params, OnlinePredictor.fitted(table, train), horizon=horizon,
        max_machines=simulator.max_machines, **loop_kwargs,
    )


def _policy_cell(args) -> PolicySweepPoint:
    """One policy-sweep cell; module-level so ``parallel_map`` can
    pickle it.  Builds its own control loop, so cells share no mutable
    state and the grid is order-independent."""
    simulator, spar, eval_trace, train, kind, value = args
    if kind == "confirmation":
        label, knob = str(value), {"scale_in_confirmations": value}
    else:
        label, knob = f"{value:.0%}", {"inflation": value}
    loop = _spar_loop(simulator, spar, eval_trace, train, **knob)
    result = simulator.run(eval_trace, loop)
    return PolicySweepPoint(
        label, result.cost, result.pct_time_insufficient, result.moves
    )


def run_policy_ablation(
    fast: bool = False, seed: int = 4242, workers: int = 1
) -> PolicyAblation:
    """Capacity-simulate P-Store variants over a multi-week trace.

    The six sweep cells are independent; ``workers > 1`` shards them
    across processes (repro.parallel) with results identical to the
    serial run.
    """
    num_days = 35 if fast else 63
    slot = 300.0
    intervals_per_day = int(86400 / slot)
    trace = generate_b2w_long_trace(
        num_days=num_days, slot_seconds=slot, seed=seed, black_friday_day=num_days - 7
    ).scaled(6.0)
    train = trace.values[: 28 * intervals_per_day]
    eval_trace = trace[28 * intervals_per_day :]

    params = SystemParameters(
        q=PAPER_SATURATION_RATE * 0.65,
        q_max=PAPER_SATURATION_RATE * 0.80,
        interval_seconds=slot,
        partitions_per_node=6,
    )
    simulator = CapacitySimulator(params, max_machines=20)
    spar = SPARPredictor(
        period=intervals_per_day, n_periods=7, n_recent=12, max_horizon=12
    ).fit(train)

    cells = [
        (simulator, spar, eval_trace, train, "confirmation", c) for c in (1, 3, 6)
    ] + [
        (simulator, spar, eval_trace, train, "inflation", f) for f in (0.0, 0.15, 0.30)
    ]
    points = parallel_map(_policy_cell, cells, max_workers=workers)
    return PolicyAblation(confirmation=points[:3], inflation=points[3:])


# ----------------------------------------------------------------------
# 5. Forecast-window sweep
# ----------------------------------------------------------------------
@dataclass
class HorizonAblation:
    minimum_window_intervals: float  # 2D/P expressed in planner intervals
    points: List[PolicySweepPoint]

    def format_report(self) -> str:
        table = format_table(
            ("horizon (intervals)", "cost", "% insufficient", "moves",
             "reactive fallbacks"),
            [(p.label, f"{p.cost:.0f}", f"{p.pct_time_insufficient:.3f}",
              p.moves, p.fallbacks)
             for p in self.points],
            title=(
                "Ablation 5 — forecast window "
                f"(2D/P = {self.minimum_window_intervals:.1f} intervals)"
            ),
        )
        return table


def _horizon_cell(args) -> PolicySweepPoint:
    """One horizon-sweep cell (module-level for ``parallel_map``); the
    loop is built in the worker so its fallback counter is local."""
    simulator, spar, eval_trace, train, horizon = args
    loop = _spar_loop(simulator, spar, eval_trace, train, horizon)
    result = simulator.run(eval_trace, loop)
    return PolicySweepPoint(
        str(horizon), result.cost, result.pct_time_insufficient,
        result.moves, loop.policy.fallback_scale_outs,
    )


def run_horizon_ablation(
    fast: bool = False, seed: int = 555, workers: int = 1
) -> HorizonAblation:
    """Sweep the forecast horizon around the 2D/P minimum.

    Uses 1-minute planner intervals so moves span many intervals and the
    window genuinely binds (at 5-minute granularity every move fits in
    one or two intervals and any horizon works).  ``workers > 1`` shards
    the sweep across processes with serial-identical results.
    """
    slot = 60.0
    intervals_per_day = int(86400 / slot)
    num_days = 6 if fast else 10
    trace = generate_b2w_long_trace(
        num_days=num_days, slot_seconds=slot, seed=seed,
        black_friday_day=num_days - 2,
    ).scaled(6.0)
    train_days = num_days - 3
    train = trace.values[: train_days * intervals_per_day]
    eval_trace = trace[train_days * intervals_per_day :]

    params = SystemParameters(
        q=PAPER_SATURATION_RATE * 0.65,
        q_max=PAPER_SATURATION_RATE * 0.80,
        interval_seconds=slot,
        partitions_per_node=6,
    )
    minimum = cap_model.minimum_forecast_window_seconds(params) / slot
    simulator = CapacitySimulator(params, max_machines=20)
    spar = SPARPredictor(
        period=intervals_per_day,
        n_periods=min(4, train_days - 1),
        n_recent=20,
        max_horizon=40,
    ).fit(train)

    cells = [
        (simulator, spar, eval_trace, train, horizon)
        for horizon in (4, 8, 16, 26, 33)
    ]
    points = parallel_map(_horizon_cell, cells, max_workers=workers)
    return HorizonAblation(minimum_window_intervals=minimum, points=points)


# ----------------------------------------------------------------------
# 6. Dynamic program vs predictive-greedy
# ----------------------------------------------------------------------
class _GreedyPolicy(PredictivePolicy):
    """Ablation baseline: same forecasts, no dynamic program.

    Provisions ``ceil(max(measured, inflated forecast) / Q)`` machines at
    every decision — the "plan for the forecast's peak, now" rule.  Safe,
    but it cannot delay scale-outs until they are needed nor skip
    transient dips, which is exactly what the DP buys.
    """

    def decide(self, load, current_machines, audit=None) -> Decision:
        peak = self.params.machines_for_load(float(np.max(load)))
        return Decision(target=self._clamp(peak))


@dataclass
class GreedyAblation:
    dp_point: PolicySweepPoint
    greedy_point: PolicySweepPoint

    @property
    def cost_savings_pct(self) -> float:
        return 100.0 * (1.0 - self.dp_point.cost / self.greedy_point.cost)

    def format_report(self) -> str:
        rows = [
            ("DP planner (paper)", f"{self.dp_point.cost:.0f}",
             f"{self.dp_point.pct_time_insufficient:.3f}", self.dp_point.moves),
            ("predictive-greedy", f"{self.greedy_point.cost:.0f}",
             f"{self.greedy_point.pct_time_insufficient:.3f}",
             self.greedy_point.moves),
        ]
        table = format_table(
            ("policy", "cost", "% insufficient", "moves"),
            rows,
            title="Ablation 6 — dynamic program vs predictive-greedy",
        )
        return table + f"\nDP cost savings: {self.cost_savings_pct:.1f}%"


def run_greedy_ablation(fast: bool = False, seed: int = 606) -> GreedyAblation:
    """Same predictor, same trace: DP planner vs the greedy peak rule."""
    num_days = 35 if fast else 63
    slot = 300.0
    intervals_per_day = int(86400 / slot)
    trace = generate_b2w_long_trace(
        num_days=num_days, slot_seconds=slot, seed=seed,
        black_friday_day=num_days - 7,
    ).scaled(6.0)
    train = trace.values[: 28 * intervals_per_day]
    eval_trace = trace[28 * intervals_per_day :]
    params = SystemParameters(
        q=PAPER_SATURATION_RATE * 0.65,
        q_max=PAPER_SATURATION_RATE * 0.80,
        interval_seconds=slot,
        partitions_per_node=6,
    )
    simulator = CapacitySimulator(params, max_machines=20)
    spar = SPARPredictor(
        period=intervals_per_day, n_periods=7, n_recent=12, max_horizon=12
    ).fit(train)

    dp_result = simulator.run(eval_trace, _spar_loop(simulator, spar, eval_trace, train))
    greedy = _spar_loop(simulator, spar, eval_trace, train)
    greedy.policy = _GreedyPolicy(params, simulator.max_machines)
    greedy_result = simulator.run(eval_trace, greedy)
    return GreedyAblation(
        dp_point=PolicySweepPoint(
            "dp", dp_result.cost, dp_result.pct_time_insufficient,
            dp_result.moves,
        ),
        greedy_point=PolicySweepPoint(
            "greedy", greedy_result.cost, greedy_result.pct_time_insufficient,
            greedy_result.moves,
        ),
    )


# ----------------------------------------------------------------------
@dataclass
class AblationsResult:
    effcap: EffCapAblation
    schedule: ScheduleAblation
    policy: PolicyAblation
    horizon: HorizonAblation
    greedy: GreedyAblation

    def format_report(self) -> str:
        return "\n\n".join(
            (
                self.effcap.format_report(),
                self.schedule.format_report(),
                self.policy.format_report(),
                self.horizon.format_report(),
                self.greedy.format_report(),
            )
        )


def run(fast: bool = False, workers: int = 1) -> AblationsResult:
    """Run all six ablations; ``workers`` shards the sweep cells."""
    return AblationsResult(
        effcap=run_effcap_ablation(),
        schedule=run_schedule_ablation(10 if fast else 16),
        policy=run_policy_ablation(fast=fast, workers=workers),
        horizon=run_horizon_ablation(fast=fast, workers=workers),
        greedy=run_greedy_ablation(fast=fast),
    )
