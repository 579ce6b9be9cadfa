"""The Predictive Controller: monitoring -> Predictor -> Planner -> moves.

Section 6's controller, once.  :class:`OnlineControlLoop` implements the
``ElasticityController`` protocol for ``CapacitySimulator.run``
(Figures 12 and 13, the ablations), for a bare ``EngineSimulator.run``
(Figures 9 and 11, the chaos experiment) and for a live
:class:`~repro.serve.engine.ServerEngine` alike; *when* the SPAR
parameters get learned is a property of the
:class:`~repro.prediction.online.OnlinePredictor` it is handed:

* **pre-fitted** — ``OnlinePredictor.fitted(model, training_history)``:
  parameters learned offline, forecasts from the first interval (the
  model may be a :class:`~repro.prediction.table.ForecastTable` of
  forecasts issued in advance, or the oracle);
* **cold start** — a bare ``OnlinePredictor(model)``: until the first
  fit the loop degrades to the reactive control law (scale out when
  measured load exceeds the allocation's target capacity) so the
  cluster is never left stranded.  The same path covers any interval
  the fitted model cannot forecast from.

Every observation is fed to the predictor, which refits itself on its
cadence (Section 6's active learning).  Once fitted the loop forecasts
from the accumulated history, inflates, runs the shared
:class:`~repro.core.policy.PredictivePolicy` (DP planner + receding
horizon + scale-in confirmation) and executes the first move — at
``R x spike_boost`` when no plan was feasible and ``spike_policy`` is
``"boost"`` (Section 4.3.1, Figure 11).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.audit import DecisionAudit, audit_event_fields, tenant_violation_costs
from repro.core.capacity import minimum_forecast_window_seconds
from repro.core.controller import (
    SPIKE_POLICY_BOOST,
    SPIKE_POLICY_NORMAL_RATE,
    ControllerDecision,
)
from repro.core.params import SystemParameters
from repro.core.policy import PredictivePolicy
from repro.engine.simulator import EngineSimulator
from repro.errors import ConfigurationError, MigrationError
from repro.prediction.online import OnlinePredictor


class OnlineControlLoop:
    """P-Store's Predictive Controller.

    The loop measures load at the monitor's slot granularity but *plans*
    at the coarser ``params.interval_seconds`` granularity, so the
    forecast window can cover ``2 * D / P`` (the minimum safe window of
    Section 5) without exploding the dynamic program.

    Args:
        params: System parameters; ``interval_seconds`` is the planning
            interval and must be a multiple of the measurement slot.
        online: The accumulate-fit-refit predictor wrapper (SPAR inner in
            the paper's configuration), working in per-planning-interval
            counts.  Pre-fitted or completely cold.
        measurement_slot_seconds: Slot length of the monitor feed.
        horizon: Forecast window in planning intervals; defaults to the
            smallest window covering ``2 * D / P`` plus slack, capped by
            the inner model's ``max_horizon``.
        inflation: Prediction inflation factor (paper: 0.15).
        max_machines: Cluster-size cap (the testbed had 10 nodes).
        spike_policy: ``"normal-rate"`` (default; keep migrating at R) or
            ``"boost"`` (migrate at ``R * spike_boost``).
        spike_boost: Rate multiplier for the boost policy (paper: 8).
        scale_in_confirmations: Agreeing cycles before a scale-in.
    """

    def __init__(
        self,
        params: SystemParameters,
        online: OnlinePredictor,
        *,
        measurement_slot_seconds: Optional[float] = None,
        horizon: Optional[int] = None,
        inflation: float = 0.15,
        max_machines: int = 10,
        spike_policy: str = SPIKE_POLICY_NORMAL_RATE,
        spike_boost: float = 8.0,
        scale_in_confirmations: int = 3,
    ) -> None:
        if spike_policy not in (SPIKE_POLICY_NORMAL_RATE, SPIKE_POLICY_BOOST):
            raise ConfigurationError(
                f"unknown spike_policy {spike_policy!r}; use "
                f"{SPIKE_POLICY_NORMAL_RATE!r} or {SPIKE_POLICY_BOOST!r}"
            )
        slot = measurement_slot_seconds or params.interval_seconds
        ratio = params.interval_seconds / slot
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise ConfigurationError(
                "planning interval must be a positive multiple of the "
                f"measurement slot ({params.interval_seconds}s vs {slot}s)"
            )
        if horizon is None:
            horizon = params.intervals(1.25 * minimum_forecast_window_seconds(params))
            if online.max_horizon:
                horizon = min(horizon, online.max_horizon)
        if horizon < 1:
            raise ConfigurationError("horizon must be >= 1")
        if inflation < 0:
            raise ConfigurationError("inflation must be >= 0")
        if online.max_horizon and horizon > online.max_horizon:
            raise ConfigurationError(
                f"horizon {horizon} exceeds the predictor's max_horizon "
                f"{online.max_horizon}"
            )
        self.params = params
        self.online = online
        self.slot_seconds = slot
        self.slots_per_interval = int(round(ratio))
        self.horizon = horizon
        self.inflation = inflation
        self.max_machines = max_machines
        self.spike_policy = spike_policy
        self.spike_boost = spike_boost
        self.policy = PredictivePolicy(params, max_machines, scale_in_confirmations)
        self._slot_buffer: List[float] = []
        self.moves_requested = 0
        self.boosted_moves = 0
        self.cold_start_decisions = 0
        self.predictive_decisions = 0
        self.intervals_observed = 0
        #: Observability: one entry per executed action, for operators
        #: and for the examples' move logs.
        self.decision_log: List[ControllerDecision] = []
        #: Machine count the loop believes the cluster has (the target of
        #: its last move); a mismatch means the machine set changed under
        #: us — a crash or an aborted move — and the active schedule is
        #: void.
        self._expected_machines: Optional[int] = None
        self.topology_changes_detected = 0
        #: Last cycle's one-interval-ahead forecast (raw txn/s), scored
        #: against the next measured interval as a ``forecast`` event —
        #: the predicted-vs-actual feedback ``repro.cli explain`` joins
        #: with the audit trail.
        self._pending_forecast: Optional[float] = None
        # Tenancy hookup (see set_tenant_stats): cumulative per-tenant
        # offered counts are diffed each interval into demand rates so
        # the audit can decompose each replan's violation risk.
        self._tenant_stats: Optional[Callable[[], Dict[str, int]]] = None
        self._tenant_weights: Dict[str, int] = {}
        self._tenant_last: Dict[str, int] = {}

    def set_tenant_stats(
        self,
        offered_fn: Callable[[], Dict[str, int]],
        weights: Dict[str, int],
    ) -> None:
        """Wire per-tenant demand into the decision audit.

        ``offered_fn`` returns *cumulative* offered counts per tenant
        (the engine passes its tenant admission counters); the loop
        diffs them per planning interval and attaches WiSeDB-style
        per-tenant violation costs to every ``audit`` event.
        """
        self._tenant_stats = offered_fn
        self._tenant_weights = dict(weights)

    # ------------------------------------------------------------------
    @property
    def refits(self) -> int:
        return self.online.refits

    @property
    def is_fitted(self) -> bool:
        return self.online.is_fitted

    def _move(
        self,
        sim: EngineSimulator,
        measured_rate: float,
        target: int,
        kind: str,
        boost: float = 1.0,
    ) -> None:
        """Log the decision and execute it; a cluster that refuses (e.g.
        spare nodes died between planning and execution) costs us the
        cycle, not the run."""
        self.decision_log.append(
            ControllerDecision(
                sim_time=sim.now,
                measured_rate=measured_rate,
                machines_before=sim.machines_allocated,
                target=target,
                kind=kind,
                boost=boost,
            )
        )
        tel = sim.telemetry
        if tel is not None:
            tel.counter("control.decisions").inc()
            tel.event(
                "decision",
                sim.now,
                action=kind,
                measured_rate=measured_rate,
                machines_before=sim.machines_allocated,
                target=target,
            )
        try:
            sim.start_move(target, boost=boost)
        except MigrationError:
            return
        self._expected_machines = target
        self.moves_requested += 1

    # ------------------------------------------------------------------
    def on_slot(
        self, sim: EngineSimulator, slot_index: int, measured_count: float
    ) -> None:
        """Accumulate one measurement slot; act when an interval closes."""
        self._slot_buffer.append(float(measured_count))
        if len(self._slot_buffer) < self.slots_per_interval:
            return
        interval_count = sum(self._slot_buffer)
        self._slot_buffer.clear()
        self.intervals_observed += 1

        refitted = self.online.observe(interval_count)
        # Index of the interval just closed in the predictor's history.
        interval = self.online.slots_observed - 1
        interval_seconds = self.params.interval_seconds
        measured_rate = interval_count / interval_seconds
        tenant_rates: Optional[Dict[str, float]] = None
        if self._tenant_stats is not None:
            # Diff cumulative offered counts every interval close, even
            # on cold-start paths, so rates never span stale intervals.
            offered = self._tenant_stats()
            tenant_rates = {}
            for name, total in offered.items():
                prev = self._tenant_last.get(name, 0)
                tenant_rates[name] = max(0, int(total) - prev) / interval_seconds
            self._tenant_last = {name: int(v) for name, v in offered.items()}
        tel = sim.telemetry
        if tel is not None:
            tel.gauge("control.measured_rate").set(measured_rate)
            if self._pending_forecast is not None:
                tel.event(
                    "forecast",
                    sim.now,
                    interval=interval,
                    predicted=self._pending_forecast,
                    actual=measured_rate,
                )
                tel.counter("control.forecasts_scored").inc()
                if measured_rate > 0:
                    tel.gauge("control.forecast_ape_pct").set(
                        100.0 * abs(self._pending_forecast - measured_rate)
                        / measured_rate
                    )
        self._pending_forecast = None
        if refitted and tel is not None:
            tel.counter("control.refits").inc()
            tel.event(
                "refit",
                sim.now,
                history_slots=self.online.slots_observed,
                refit_number=self.online.refits,
            )

        if sim.migration_active:
            return
        current = sim.machines_allocated
        fault_recovery = self._expected_machines not in (None, current)
        if fault_recovery:
            # The machine set changed under an active plan (node crash,
            # aborted move): invalidate stale confirmation state and
            # replan from the surviving allocation this very cycle.
            self.policy.notify_topology_change()
            self.topology_changes_detected += 1
        self._expected_machines = current
        # Never target more nodes than are physically healthy.
        cap = min(self.max_machines, sim.cluster.num_available_nodes)
        # An operator's floor outranks the loop's own cap.
        floor = sim.min_machines

        if not self.online.is_fitted:
            # Cold start: reactive scale-out only, never scale-in (we
            # have no forecast to justify shrinking).
            needed = self.params.machines_for_load(measured_rate * (1.0 + self.inflation))
            needed = max(min(needed, cap), floor)
            if needed > current:
                self.cold_start_decisions += 1
                self._move(sim, measured_rate, needed, "cold-start-reactive")
            return

        forecast_counts = self.online.predict_from_observed(self.horizon)
        load = np.empty(self.horizon + 1)
        load[0] = measured_rate
        load[1:] = (forecast_counts / interval_seconds) * (1.0 + self.inflation)
        self._pending_forecast = float(forecast_counts[0]) / interval_seconds
        audit = DecisionAudit() if tel is not None else None
        decision = self.policy.decide(load, current, audit=audit)
        if audit is not None and tenant_rates:
            chosen = (
                audit.chosen_machines
                if audit.chosen_machines is not None
                else current
            )
            audit.tenant_costs = tenant_violation_costs(
                tenant_rates,
                self._tenant_weights,
                capacity_per_machine=self.params.q,
                chosen_machines=chosen,
                runner_up_machines=(
                    audit.runner_up.machines if audit.runner_up is not None else None
                ),
                interval_seconds=interval_seconds,
            )
        if tel is not None and audit is not None:
            tel.gauge("control.predicted_rate").set(self._pending_forecast)
            tel.counter("control.replans").inc()
            tel.event(
                "audit",
                sim.now,
                **audit_event_fields(
                    audit,
                    interval=interval,
                    measured_rate=measured_rate,
                    predicted_rate=self._pending_forecast,
                    window_intervals=self.horizon,
                    interval_seconds=interval_seconds,
                ),
            )
        target = current if decision.target is None else min(decision.target, cap)
        target = max(target, floor)
        if target == current:
            return
        self.predictive_decisions += 1
        kind, boost = "planned", 1.0
        if decision.fallback:
            kind = "fallback"
            if self.spike_policy == SPIKE_POLICY_BOOST:
                boost = self.spike_boost
                self.boosted_moves += 1
        elif fault_recovery:
            kind = "fault-recovery"
        self._move(sim, measured_rate, target, kind, boost)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable control state: SPAR fit, window buffers and
        the policy's scale-in votes — everything a restored loop needs to
        keep deciding bit-identically.  The decision log is observability,
        not control state, and is not included."""
        return {
            "config": {
                "interval_seconds": self.params.interval_seconds,
                "slot_seconds": self.slot_seconds,
                "horizon": self.horizon,
                "inflation": self.inflation,
                "max_machines": self.max_machines,
            },
            "online": self.online.state_dict(),
            "slot_buffer": list(self._slot_buffer),
            "moves_requested": self.moves_requested,
            "boosted_moves": self.boosted_moves,
            "topology_changes_detected": self.topology_changes_detected,
            "cold_start_decisions": self.cold_start_decisions,
            "predictive_decisions": self.predictive_decisions,
            "intervals_observed": self.intervals_observed,
            "expected_machines": self._expected_machines,
            "pending_forecast": self._pending_forecast,
            "tenant_last": dict(self._tenant_last),
            "policy": {
                "scale_in_votes": self.policy._scale_in_votes,
                "plans_computed": self.policy.plans_computed,
                "fallback_scale_outs": self.policy.fallback_scale_outs,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore control state into an identically-configured loop."""
        config = state["config"]
        mine = self.state_dict()["config"]
        if config != mine:
            raise ConfigurationError(
                f"control checkpoint config {config} does not match loop {mine}"
            )
        self.online.load_state_dict(state["online"])
        self._slot_buffer = [float(v) for v in state["slot_buffer"]]
        self.moves_requested = int(state["moves_requested"])
        self.boosted_moves = int(state.get("boosted_moves", 0))
        self.topology_changes_detected = int(state.get("topology_changes_detected", 0))
        self.cold_start_decisions = int(state["cold_start_decisions"])
        self.predictive_decisions = int(state["predictive_decisions"])
        self.intervals_observed = int(state["intervals_observed"])
        expected = state["expected_machines"]
        self._expected_machines = None if expected is None else int(expected)
        forecast = state["pending_forecast"]
        self._pending_forecast = None if forecast is None else float(forecast)
        self._tenant_last = {
            str(name): int(v) for name, v in state.get("tenant_last", {}).items()
        }
        policy = state["policy"]
        self.policy._scale_in_votes = int(policy["scale_in_votes"])
        self.policy.plans_computed = int(policy["plans_computed"])
        self.policy.fallback_scale_outs = int(policy["fallback_scale_outs"])
