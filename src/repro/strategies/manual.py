"""Manual provisioning overlays (the third leg of the composite vision).

Section 1 of the paper envisions elastic provisioning as a composite of
(i) predictive provisioning, (ii) reactive provisioning for unpredictable
spikes, and (iii) **manual provisioning "for rare one-off, but expected,
load spikes (e.g. special promotions)"** — noting that the evaluation
shows it is "not strictly necessary, but may still be used as an extra
precaution for rare, important events" like Black Friday.

:class:`ManualOverrideStrategy` implements that overlay: it wraps any
base controller and enforces operator-scheduled machine-count floors over
calendar windows, deferring to the base controller everywhere else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.errors import ConfigurationError, MigrationError
from repro.workloads.trace import SECONDS_PER_DAY

if TYPE_CHECKING:
    from repro.engine.simulator import ElasticityController


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


class _Floored:
    """The simulator as the base controller sees it: a move it requests
    below the active floor is raised to the floor."""

    def __init__(self, sim, floor: int, overlay: "ManualOverrideStrategy") -> None:
        self._sim = sim
        self._floor = floor
        self._overlay = overlay
        self.requested = False

    def __getattr__(self, name: str):
        return getattr(self._sim, name)

    def start_move(self, target: int, *, boost: float = 1.0):
        self.requested = True
        if target < self._floor:
            self._overlay.overrides_applied += 1
            target = self._floor
        return self._sim.start_move(target, boost=boost)


class ManualOverrideStrategy:
    """A base controller plus operator-scheduled capacity floors.

    Inside an active window a move the base controller requests is
    raised to ``min_machines``, and the cluster moves to the floor when
    the base requests nothing; approaching windows are pre-provisioned
    one move ahead so the floor is in place when the window opens (the
    whole point of manual provisioning is being early).  A base
    :class:`~repro.serve.control.OnlineControlLoop` sees the override as
    a machine-set change and replans from it.

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
        base: "Optional[ElasticityController]",
        windows: Sequence[ProvisioningWindow],
        lead_days: float = 0.05,
    ) -> None:
        if lead_days < 0:
            raise ConfigurationError("lead_days must be >= 0")
        self.base = base
        self.windows: List[ProvisioningWindow] = list(windows)
        self.lead_days = lead_days
        self.overrides_applied = 0

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
        view = _Floored(sim, floor, self)
        if self.base is not None:
            self.base.on_slot(view, slot_index, measured_count)
        if view.requested or sim.migration_active:
            return
        if floor > sim.machines_allocated:
            self.overrides_applied += 1
            try:
                sim.start_move(floor)
            except MigrationError:
                pass  # a cluster that refuses costs this slot, not the run
