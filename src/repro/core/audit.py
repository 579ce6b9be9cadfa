"""Planner decision audit: why the controller did what it did.

The decision log (:class:`~repro.core.controller.ControllerDecision`)
records *executed* moves — enough to replay a run, not enough to answer
the operator's question after an incident: *why did the planner pick
5 machines at 14:00 when the spike needed 8?*  Answering that needs the
alternatives the dynamic program weighed and the forecast it weighed
them against.

This module defines that audit trail:

* :class:`PlanCandidate` — one candidate final machine count with its
  DP cost (``inf`` when infeasible).  :meth:`Planner.best_moves
  <repro.core.planner.Planner.best_moves>` fills a list of these on
  request, including on the infeasible path.
* :class:`DecisionAudit` — the per-cycle record the
  :class:`~repro.core.policy.PredictivePolicy` fills while deciding:
  the reason (``plateau`` / ``move`` / ``receding-hold`` /
  ``scale-in-pending`` / ``fallback``), the candidate list, the chosen
  schedule and the runner-up with its rejection reason and the
  machine-hours the choice saved over it.
* :func:`audit_event_fields` — the JSON-safe telemetry ``audit`` event
  body (``inf`` costs become ``null``); the Predictive Controller
  (:class:`~repro.serve.control.OnlineControlLoop`) emits one per
  replan, and ``repro.cli explain`` joins these events with the
  ``forecast`` events (predicted vs actual load) to reconstruct each
  decision.

Costs are in machine-*intervals* (the planner's unit); the event
converts the chosen-vs-runner-up delta to machine-hours using the
planning ``interval_seconds`` so the number operators see matches the
paper's cost accounting (Equation 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class PlanCandidate:
    """One candidate final machine count weighed by the DP.

    Attributes:
        machines: Final machine count of the candidate plan.
        cost: Total plan cost in machine-intervals; ``inf`` when no
            feasible move series reaches this count.
    """

    machines: int
    cost: float

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.cost)


#: Decision reasons, in the order an operator meets them.
REASON_PLATEAU = "plateau"  # hold is provably optimal, DP skipped
REASON_MOVE = "move"  # first planned move executes now
REASON_RECEDING_HOLD = "receding-hold"  # move scheduled later; replan next cycle
REASON_SCALE_IN_PENDING = "scale-in-pending"  # awaiting confirmation votes
REASON_FALLBACK = "fallback"  # infeasible plan, reactive scale-out


@dataclass
class DecisionAudit:
    """Everything one planning cycle considered, filled by the policy.

    Attributes:
        reason: One of the ``REASON_*`` constants.
        candidates: Candidate final machine counts with DP costs
            (empty on the plateau fast path and during warm-up).
        chosen_machines: Final machine count of the selected plan.
        plan_cost: Cost of the selected plan, machine-intervals.
        schedule: The selected plan's coalesced move list, rendered.
        target: Machine count the cycle reconfigures to now (None=hold).
        runner_up: The next feasible candidate after the chosen one.
        rejection: Why the runner-up lost.
        scale_in_votes: Confirmation votes accumulated so far (only
            meaningful for ``scale-in-pending``).
        infeasible_detail: The planner's error message on the fallback
            path.
        tenant_costs: With tenancy on, one entry per tenant recording
            the demand share and the weighted violation cost this cycle
            traded against machine-hours (WiSeDB-style per-class SLA
            accounting); see :func:`tenant_violation_costs`.
    """

    reason: str = REASON_PLATEAU
    candidates: List[PlanCandidate] = field(default_factory=list)
    chosen_machines: Optional[int] = None
    plan_cost: Optional[float] = None
    schedule: List[str] = field(default_factory=list)
    target: Optional[int] = None
    runner_up: Optional[PlanCandidate] = None
    rejection: Optional[str] = None
    scale_in_votes: int = 0
    infeasible_detail: Optional[str] = None
    tenant_costs: Optional[List[Dict[str, object]]] = None

    def machine_hours_delta(self, interval_seconds: float) -> Optional[float]:
        """Machine-hours the chosen plan saves over the runner-up
        (negative means the runner-up was cheaper in raw cost but lost
        on the fewest-machines tie-break)."""
        if (
            self.runner_up is None
            or self.plan_cost is None
            or not self.runner_up.feasible
        ):
            return None
        delta_intervals = self.runner_up.cost - self.plan_cost
        return delta_intervals * interval_seconds / 3600.0


def audit_event_fields(
    audit: DecisionAudit,
    *,
    interval: int,
    measured_rate: float,
    predicted_rate: Optional[float],
    window_intervals: int,
    interval_seconds: float,
) -> Dict[str, object]:
    """Flatten one cycle's audit into JSON-safe ``audit`` event fields.

    ``inf`` candidate costs become ``None`` (JSON has no infinity);
    ``interval`` indexes the history so ``explain`` can join the cycle
    with the ``forecast`` event scoring its one-ahead prediction.
    """
    delta = audit.machine_hours_delta(interval_seconds)
    return {
        "interval": interval,
        "measured_rate": round(measured_rate, 6),
        "predicted_rate": (
            round(predicted_rate, 6) if predicted_rate is not None else None
        ),
        "window_intervals": window_intervals,
        "reason": audit.reason,
        "candidates": [
            {
                "machines": c.machines,
                "cost": round(c.cost, 6) if c.feasible else None,
            }
            for c in audit.candidates
        ],
        "chosen_machines": audit.chosen_machines,
        "plan_cost": (
            round(audit.plan_cost, 6) if audit.plan_cost is not None else None
        ),
        "schedule": list(audit.schedule),
        "target": audit.target,
        "runner_up": (
            audit.runner_up.machines if audit.runner_up is not None else None
        ),
        "rejection": audit.rejection,
        "machine_hours_delta": (
            round(delta, 6) if delta is not None else None
        ),
        "scale_in_votes": audit.scale_in_votes,
        "infeasible_detail": audit.infeasible_detail,
        "tenants": audit.tenant_costs,
    }


def tenant_violation_costs(
    rates: Dict[str, float],
    weights: Dict[str, int],
    *,
    capacity_per_machine: float,
    chosen_machines: int,
    runner_up_machines: Optional[int],
    interval_seconds: float,
) -> List[Dict[str, object]]:
    """Per-tenant violation cost of a provisioning choice, WiSeDB-style.

    The planner provisions for the *aggregate* demand forecast; this
    helper decomposes what each choice risks per tenant so the audit can
    show the trade.  Unmet demand is distributed over tenants by their
    demand share, and each tenant's violation cost is its priority
    weight times its unmet request-seconds — so a cheap plan that would
    starve a weight-3 tenant audits three times worse than one starving
    a weight-1 tenant at the same shortfall.

    Args:
        rates: Per-tenant measured demand, requests/second.
        weights: Per-tenant priority weights.
        capacity_per_machine: Serving capacity of one machine, req/s.
        chosen_machines: The machine count the cycle selected.
        runner_up_machines: The rejected alternative (None when the
            cycle had no runner-up).
        interval_seconds: Planning interval, for request-second units.

    Returns a JSON-safe list sorted by registry/dict order, one entry
    per tenant with the demand share and the violation cost under both
    the chosen plan and the runner-up.
    """
    total_rate = sum(rates.values())

    def unmet(machines: Optional[int]) -> Optional[float]:
        if machines is None:
            return None
        return max(0.0, total_rate - machines * capacity_per_machine)

    unmet_chosen = unmet(chosen_machines)
    unmet_runner_up = unmet(runner_up_machines)

    def cost(tenant_rate: float, weight: int, shortfall: Optional[float]):
        if shortfall is None:
            return None
        share = tenant_rate / total_rate if total_rate > 0 else 0.0
        return round(weight * shortfall * share * interval_seconds, 6)

    out: List[Dict[str, object]] = []
    for name, rate in rates.items():
        weight = weights.get(name, 1)
        out.append(
            {
                "tenant": name,
                "rate": round(rate, 6),
                "share": round(rate / total_rate, 6) if total_rate > 0 else 0.0,
                "weight": weight,
                "violation_cost": cost(rate, weight, unmet_chosen),
                "runner_up_violation_cost": cost(rate, weight, unmet_runner_up),
            }
        )
    return out
