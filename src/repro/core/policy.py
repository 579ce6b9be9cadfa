"""The move-execution policy of P-Store's Predictive Controller.

Each cycle, given the inflated load forecast and the current machine
count, run the planner and act on the *first* move only (receding-horizon
control), with the scale-in confirmation heuristic and the reactive
fallback of Section 4.3.1.  :class:`~repro.serve.control.OnlineControlLoop`
feeds it, on the capacity simulation (Section 8.3), the engine simulation
(Section 8.2) and the serving engine alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.audit import (
    REASON_FALLBACK,
    REASON_MOVE,
    REASON_PLATEAU,
    REASON_RECEDING_HOLD,
    REASON_SCALE_IN_PENDING,
    DecisionAudit,
)
from repro.core.params import SystemParameters
from repro.core.planner import MovePlan, Planner
from repro.errors import ConfigurationError, InfeasiblePlanError


@dataclass(frozen=True)
class Decision:
    """Outcome of one planning cycle.

    Attributes:
        target: Machine count to reconfigure to now, or ``None`` to hold.
        fallback: True when the planner found no feasible plan and the
            target comes from the reactive fallback (the caller may want
            to boost the migration rate; Figure 11 compares both options).
        planned: True when the dynamic program actually ran (false on the
            plateau fast path).
    """

    target: Optional[int]
    fallback: bool = False
    planned: bool = False


class PredictivePolicy:
    """Stateful decision-maker wrapping the DP planner.

    Args:
        params: System parameters (Q drives machine counts).
        max_machines: Cluster-size cap.
        scale_in_confirmations: Consecutive agreeing cycles required
            before executing a scale-in (paper: 3).
    """

    def __init__(
        self,
        params: SystemParameters,
        max_machines: int,
        scale_in_confirmations: int = 3,
    ) -> None:
        self.params = params
        self.max_machines = max_machines
        self.scale_in_confirmations = scale_in_confirmations
        self.planner = Planner(params, max_machines=max_machines)
        self._scale_in_votes = 0
        self.plans_computed = 0
        self.fallback_scale_outs = 0

    def notify_topology_change(self) -> None:
        """The machine set changed outside this policy's control (a node
        crashed or a move was aborted).  Confirmation votes accumulated
        against the old topology are meaningless; drop them so a stale
        scale-in cannot fire against the post-fault cluster."""
        self._scale_in_votes = 0

    def _clamp(self, machines: int) -> int:
        return max(1, min(machines, self.max_machines))

    def sanitize_forecast(self, load: np.ndarray) -> np.ndarray:
        """Defend the planner against a misbehaving predictor.

        Non-finite or negative forecast entries (a diverged model, a
        degenerate fit) are replaced with the measured current load
        (``load[0]``), which degrades the cycle to roughly reactive
        behaviour instead of crashing or planning nonsense.  ``load[0]``
        itself is a measurement and must be finite and non-negative.
        """
        current = float(load[0])
        if not np.isfinite(current) or current < 0:
            raise ConfigurationError(
                f"measured load must be finite and non-negative, got {current}"
            )
        bad = ~np.isfinite(load) | (load < 0)
        if bad.any():
            load = load.copy()
            load[bad] = current
        return load

    @staticmethod
    def _audit_plan(audit: DecisionAudit, plan: MovePlan) -> None:
        """Record the chosen plan and the runner-up it beat."""
        audit.chosen_machines = plan.final_machines
        audit.plan_cost = plan.cost
        audit.schedule = [str(move) for move in plan.coalesced()]
        for candidate in audit.candidates:
            if candidate.feasible and candidate.machines != plan.final_machines:
                audit.runner_up = candidate
                audit.rejection = (
                    f"{candidate.machines} machines feasible at cost "
                    f"{candidate.cost:g} vs {plan.cost:g} machine-intervals; "
                    f"fewest-machines tie-break prefers {plan.final_machines}"
                )
                break

    def decide(
        self,
        load: np.ndarray,
        current_machines: int,
        audit: Optional[DecisionAudit] = None,
    ) -> Decision:
        """One planning cycle.

        Args:
            load: Predicted load per interval in txn/s, already inflated;
                ``load[0]`` is the measured current load.  Non-finite or
                negative predictions are sanitized (see
                :meth:`sanitize_forecast`).
            current_machines: Machines allocated now (no move in flight).
            audit: Optional :class:`~repro.core.audit.DecisionAudit`
                filled in place with what this cycle considered — the
                candidate finals and costs, the chosen schedule and the
                reason for the outcome.

        Returns:
            The :class:`Decision` for this cycle.
        """
        load = self.sanitize_forecast(np.asarray(load, dtype=np.float64))
        q = self.params.q
        needed_max = max(1, math.ceil(float(load.max()) / q))
        needed_min = max(1, math.ceil(float(load.min()) / q))
        if needed_max == needed_min == current_machines:
            # Every interval of the horizon needs exactly the current
            # machine count; "hold" is provably optimal.
            self._scale_in_votes = 0
            if audit is not None:
                audit.reason = REASON_PLATEAU
                audit.chosen_machines = current_machines
            return Decision(target=None)

        self.plans_computed += 1
        candidates: Optional[list] = [] if audit is not None else None
        try:
            plan = self.planner.best_moves(
                load, current_machines, candidates_out=candidates
            )
        except InfeasiblePlanError as exc:
            # Unpredicted spike (Section 4.3.1): reactively scale out to
            # the needed size.
            self.fallback_scale_outs += 1
            self._scale_in_votes = 0
            target = self._clamp(needed_max)
            if audit is not None:
                audit.reason = REASON_FALLBACK
                audit.candidates = candidates or []
                audit.infeasible_detail = str(exc)
                audit.chosen_machines = target
                audit.target = None if target == current_machines else target
            if target == current_machines:
                return Decision(target=None, fallback=True, planned=True)
            return Decision(target=target, fallback=True, planned=True)

        if audit is not None:
            audit.candidates = candidates or []
            self._audit_plan(audit, plan)

        first = plan.first_real_move()
        if first is None or first.start > 0:
            # Hold, or the move is scheduled for later: re-plan next
            # cycle with fresher predictions (receding horizon).
            self._scale_in_votes = 0
            if audit is not None:
                audit.reason = REASON_RECEDING_HOLD
            return Decision(target=None, planned=True)

        if first.after < current_machines:
            self._scale_in_votes += 1
            if self._scale_in_votes < self.scale_in_confirmations:
                if audit is not None:
                    audit.reason = REASON_SCALE_IN_PENDING
                    audit.scale_in_votes = self._scale_in_votes
                return Decision(target=None, planned=True)
            self._scale_in_votes = 0
            if audit is not None:
                audit.reason = REASON_MOVE
                audit.target = self._clamp(first.after)
            return Decision(target=self._clamp(first.after), planned=True)

        self._scale_in_votes = 0
        if audit is not None:
            audit.reason = REASON_MOVE
            audit.target = self._clamp(first.after)
        return Decision(target=self._clamp(first.after), planned=True)
