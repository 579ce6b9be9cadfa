"""The "Simple" day/night strategy of Figure 12/13.

Scale out every morning, scale in every night, to fixed machine counts.
It looks workable on a regular week (Figure 13 left) but breaks down as
soon as the load deviates from the pattern — Black Friday crushes it
(Figure 13 right), and buying safety by raising the day count "vastly
increases the cost".
"""

from __future__ import annotations

from repro.errors import ConfigurationError, MigrationError
from repro.workloads.trace import SECONDS_PER_DAY


class SimpleStrategy:
    """Fixed day/night machine counts switched at fixed hours.

    An elasticity controller: each slot with no move in flight it moves
    to the count for the hour of ``sim.now``.

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
        target = min(self.target_at(sim.now), sim.cluster.num_available_nodes)
        if target != sim.machines_allocated:
            try:
                sim.start_move(target)
            except MigrationError:
                pass  # a cluster that refuses costs this slot, not the run
