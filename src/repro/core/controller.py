"""The baseline controllers, the manual overlay and the decision record.

The **Predictive Controller** of Section 6 — monitor, Predictor,
Planner, first move of the optimal plan — is
:class:`repro.serve.control.OnlineControlLoop`; this module holds what
it shares with the baselines (the :class:`ControllerDecision` log entry,
the Section 4.3.1 spike-policy names) and the other controllers of the
composite vision (Section 1):

* the **Reactive Controller**, which reproduces the E-Store baseline of
  Figure 9c: it only reconfigures after detecting that the load has
  exceeded the current allocation's target capacity — i.e. when the
  system is already degrading;
* the **Simple** day/night schedule of Figures 12 and 13;
* the **manual provisioning** overlay: operator-scheduled capacity
  floors for rare, expected events such as Black Friday.

Every controller implements the ``ElasticityController`` protocol and
runs on the capacity simulator and the engine simulator alike; a static
allocation is no controller at all.  Each reads the floor an overlay
holds as ``sim.min_machines`` (0 without one, never above the healthy
nodes) and never targets fewer machines, so an overlay's floor never
shows up as a change under the controller's feet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.params import SystemParameters
from repro.errors import ConfigurationError, MigrationError
from repro.engine.simulator import ElasticityController, EngineSimulator
from repro.workloads.trace import SECONDS_PER_DAY

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
        floor = sim.min_machines
        needed = max(min(self._needed(rate), sim.cluster.num_available_nodes), floor)
        if current < floor:
            self._request(sim, needed)
            return

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


class SimpleController:
    """The "Simple" day/night schedule of Figures 12 and 13.

    Scale out every morning, scale in every night, to fixed machine
    counts.  It looks workable on a regular week (Figure 13 left) but
    breaks down as soon as the load deviates from the pattern — Black
    Friday crushes it (Figure 13 right), and buying safety by raising the
    day count "vastly increases the cost".  Each slot with no move in
    flight it moves to the count for the hour of ``sim.now``.

    Args:
        day_machines: Machines between ``morning_hour`` and ``night_hour``.
        night_machines: Machines otherwise.
        morning_hour: Hour of day to scale out (default 07:00 — ahead of
            the daily ramp).
        night_hour: Hour of day to scale in (default 23:00).
    """

    def __init__(
        self,
        day_machines: int,
        night_machines: int,
        morning_hour: float = 7.0,
        night_hour: float = 23.0,
    ) -> None:
        if day_machines < night_machines:
            raise ConfigurationError("day_machines must be >= night_machines")
        if night_machines < 1:
            raise ConfigurationError("night_machines must be >= 1")
        if not 0 <= morning_hour < night_hour <= 24:
            raise ConfigurationError("need 0 <= morning_hour < night_hour <= 24")
        self.day_machines = day_machines
        self.night_machines = night_machines
        self.morning_hour = morning_hour
        self.night_hour = night_hour
        self.name = f"simple-{day_machines}/{night_machines}"

    def target_at(self, now: float) -> int:
        """Machines the schedule asks for at ``now`` seconds."""
        hour = (now % SECONDS_PER_DAY) / 3600.0
        if self.morning_hour <= hour < self.night_hour:
            return self.day_machines
        return self.night_machines

    def on_slot(self, sim, slot_index: int, measured_count: float) -> None:
        if sim.migration_active:
            return
        target = max(
            min(self.target_at(sim.now), sim.cluster.num_available_nodes),
            sim.min_machines,
        )
        if target != sim.machines_allocated:
            try:
                sim.start_move(target)
            except MigrationError:
                pass  # a cluster that refuses costs this slot, not the run


@dataclass(frozen=True)
class ProvisioningWindow:
    """An operator-scheduled capacity floor.

    Attributes:
        start_day: First day (inclusive, fractional days allowed) of the
            window, measured from the start of the simulated trace.
        end_day: End of the window (exclusive).
        min_machines: Machines the cluster must not drop below while the
            window is active.
        label: Operator-facing note (e.g. "Black Friday").
    """

    start_day: float
    end_day: float
    min_machines: int
    label: str = ""

    def __post_init__(self) -> None:
        if self.end_day <= self.start_day:
            raise ConfigurationError("end_day must be after start_day")
        if self.min_machines < 1:
            raise ConfigurationError("min_machines must be >= 1")

    def active(self, day: float) -> bool:
        return self.start_day <= day < self.end_day


class ManualOverrideController:
    """A base controller plus operator-scheduled capacity floors.

    Section 1's third leg: manual provisioning "for rare one-off, but
    expected, load spikes (e.g. special promotions)", which the paper's
    evaluation finds "not strictly necessary, but may still be used as
    an extra precaution for rare, important events" like Black Friday.

    Each slot the overlay sets ``sim.min_machines`` to the floor active
    at ``sim.now``, capped at the healthy nodes, and hands the slot to
    the base, which never targets fewer machines and moves up to the
    floor at its next decision, with its own decision kinds.  Approaching
    windows are pre-provisioned one move ahead so the floor is in place
    when the window opens (the whole point of manual provisioning is
    being early).  Without a base the overlay moves to the floor itself.

    Args:
        base: The controller to wrap (typically P-Store's control loop),
            or ``None`` for floors over a static allocation.
        windows: Scheduled floors, e.g. Black Friday.
        lead_days: How far ahead of a window to start enforcing its
            floor (default 0.05 day ≈ 72 minutes, comfortably more than
            any single move).
    """

    def __init__(
        self,
        base: Optional[ElasticityController],
        windows: Sequence[ProvisioningWindow],
        lead_days: float = 0.05,
    ) -> None:
        if lead_days < 0:
            raise ConfigurationError("lead_days must be >= 0")
        self.base = base
        self.windows: List[ProvisioningWindow] = list(windows)
        self.lead_days = lead_days

    def floor_at(self, now: float) -> int:
        """The highest floor active (or about to be) at ``now`` seconds."""
        day = now / SECONDS_PER_DAY
        floor = 0
        for window in self.windows:
            if window.active(day) or window.active(day + self.lead_days):
                floor = max(floor, window.min_machines)
        return floor

    def on_slot(self, sim, slot_index: int, measured_count: float) -> None:
        floor = min(self.floor_at(sim.now), sim.cluster.num_available_nodes)
        sim.min_machines = floor
        if self.base is not None:
            self.base.on_slot(sim, slot_index, measured_count)
            return
        if floor > sim.machines_allocated and not sim.migration_active:
            try:
                sim.start_move(floor)
            except MigrationError:
                pass  # a cluster that refuses costs this slot, not the run
