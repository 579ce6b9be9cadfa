"""The reactive baseline controller and the controllers' decision record.

The **Predictive Controller** of Section 6 — monitor, Predictor,
Planner, first move of the optimal plan — is
:class:`repro.serve.control.OnlineControlLoop`; this module holds what
it shares with the baseline (the :class:`ControllerDecision` log entry,
the Section 4.3.1 spike-policy names) and the **Reactive Controller**,
which reproduces the E-Store baseline of Figure 9c: it only reconfigures
after detecting that the load has exceeded the current allocation's
target capacity — i.e. when the system is already degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.params import SystemParameters
from repro.errors import ConfigurationError, MigrationError
from repro.engine.simulator import EngineSimulator

#: Reactive fallback policies for unpredicted spikes (Section 4.3.1).
SPIKE_POLICY_NORMAL_RATE = "normal-rate"
SPIKE_POLICY_BOOST = "boost"


@dataclass(frozen=True)
class ControllerDecision:
    """One executed controller action, for observability.

    Attributes:
        sim_time: Simulation time (seconds) when the move was requested.
        measured_rate: Load measurement driving the decision, txn/s.
        machines_before: Machines allocated at decision time.
        target: Machines the move reconfigures to.
        kind: ``"planned"`` (DP first move), ``"fallback"`` (infeasible
            plan, Section 4.3.1), ``"cold-start-reactive"``, or
            ``"fault-recovery"`` (replanned after the machine set changed
            under an active schedule).
        boost: Migration-rate multiplier used (1.0 or ``R x boost``).
    """

    sim_time: float
    measured_rate: float
    machines_before: int
    target: int
    kind: str
    boost: float = 1.0

    def __str__(self) -> str:
        tag = "" if self.boost == 1.0 else f" @R x {self.boost:g}"
        return (
            f"t={self.sim_time:8.0f}s load={self.measured_rate:7.0f}/s "
            f"{self.machines_before} -> {self.target} ({self.kind}{tag})"
        )


class ReactiveController:
    """E-Store-style reactive controller, for either simulator.

    Scale-out triggers once the measured load exceeds
    ``trigger_fraction`` of the current allocation's target capacity for
    ``detect_slots`` consecutive slots (standing in for E-Store's
    monitoring window), to the machines the load needs plus ``headroom``;
    scale-in, one machine at a time, requires ``scale_in_slots`` slots of
    comfortably low load.  Sweeping ``headroom`` traces the reactive
    cost/violation curve of Figure 12.
    """

    def __init__(
        self,
        params: SystemParameters,
        *,
        max_machines: int = 10,
        headroom: float = 0.0,
        trigger_fraction: float = 1.0,
        detect_slots: int = 2,
        scale_in_slots: int = 30,
        measurement_slot_seconds: Optional[float] = None,
    ) -> None:
        if detect_slots < 1 or scale_in_slots < 1:
            raise ConfigurationError("detection windows must be >= 1 slot")
        if headroom < 0:
            raise ConfigurationError("headroom must be >= 0")
        if not 0 < trigger_fraction <= 1.5:
            raise ConfigurationError("trigger_fraction must be in (0, 1.5]")
        self.params = params
        self.max_machines = max_machines
        self.headroom = headroom
        self.trigger_fraction = trigger_fraction
        self.detect_slots = detect_slots
        self.scale_in_slots = scale_in_slots
        self.slot_seconds = measurement_slot_seconds or params.interval_seconds
        self._over = 0
        self._under = 0
        self._last_machines: Optional[int] = None
        self.moves_requested = 0

    def _needed(self, rate: float) -> int:
        return min(
            self.params.machines_for_load(rate * (1.0 + self.headroom)),
            self.max_machines,
        )

    def on_slot(
        self, sim: EngineSimulator, slot_index: int, measured_count: float
    ) -> None:
        if sim.migration_active:
            return
        rate = measured_count / self.slot_seconds
        current = sim.machines_allocated
        if self._last_machines is not None and current != self._last_machines:
            # The allocation changed since we last looked (our own move
            # landing, or a fault re-routing the cluster): detection
            # windows accumulated against the old size are stale.
            self._over = 0
            self._under = 0
        self._last_machines = current
        needed = min(self._needed(rate), sim.cluster.num_available_nodes)

        if rate > self.trigger_fraction * self.params.q * current:
            self._over += 1
            self._under = 0
            if self._over >= self.detect_slots and needed > current:
                self._over = 0
                self._request(sim, needed)
            return
        self._over = 0

        if needed < current:
            self._under += 1
            if self._under >= self.scale_in_slots:
                self._under = 0
                self._request(sim, current - 1)
        else:
            self._under = 0

    def _request(self, sim: EngineSimulator, target: int) -> None:
        machines_before = sim.machines_allocated
        try:
            sim.start_move(target)
        except MigrationError:
            return
        self.moves_requested += 1
        tel = sim.telemetry
        if tel is not None:
            tel.counter("control.decisions").inc()
            tel.event(
                "decision",
                sim.now,
                action="reactive",
                machines_before=machines_before,
                target=target,
            )

    def state_dict(self) -> Dict[str, Optional[int]]:
        """The detection windows, for serving checkpoints."""
        return {
            "over": self._over,
            "under": self._under,
            "last_machines": self._last_machines,
            "moves_requested": self.moves_requested,
        }

    def load_state_dict(self, state: Dict[str, Optional[int]]) -> None:
        self._over, self._under = int(state["over"]), int(state["under"])
        self._last_machines = state["last_machines"]
        self.moves_requested = int(state["moves_requested"])
