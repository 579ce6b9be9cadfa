"""Reactive provisioning, E-Store style (Sections 2 and 8.2).

E-Store monitors utilization and reconfigures only after detecting that
the system is (nearly) overloaded — which means every daily ramp starts a
migration exactly when there is no headroom left, producing the latency
spikes of Figure 9c.  The strategy below reproduces that control law at
the capacity-simulation level:

* **scale out** as soon as the measured load exceeds the scale-out
  threshold of the current allocation (after a short detection delay,
  standing in for E-Store's monitoring window);
* **scale in** when the load has stayed comfortably below the target of
  a smaller allocation for a sustained period.

The ``headroom`` knob adds a buffer of extra machines; sweeping it traces
the reactive capacity-cost curve of Figure 12.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.strategies.base import AllocationStrategy, SimState


class ReactiveStrategy(AllocationStrategy):
    """Threshold-triggered reactive elasticity.

    Args:
        headroom: Fraction of extra capacity to provision beyond the
            measured load (0.0 = allocate exactly ceil(load / Q)).
            Sweeping this knob traces the reactive cost/violation curve.
        trigger_fraction: Scale out once load exceeds this fraction of
            the current allocation's *target* capacity (Q-based).  The
            default 1.0 is genuinely reactive: reconfiguration starts
            only after performance is already degrading — the weakness
            Section 1 identifies in all reactive techniques.
        detect_intervals: Consecutive intervals the trigger must hold
            (the monitoring delay before E-Store reacts).
        scale_in_intervals: Consecutive intervals of low load required
            before scaling in.
    """

    def __init__(
        self,
        headroom: float = 0.0,
        trigger_fraction: float = 1.0,
        detect_intervals: int = 2,
        scale_in_intervals: int = 12,
    ) -> None:
        if headroom < 0:
            raise ConfigurationError("headroom must be >= 0")
        if not 0 < trigger_fraction <= 1.5:
            raise ConfigurationError("trigger_fraction must be in (0, 1.5]")
        if detect_intervals < 1 or scale_in_intervals < 1:
            raise ConfigurationError("detection windows must be >= 1 interval")
        self.headroom = headroom
        self.trigger_fraction = trigger_fraction
        self.detect_intervals = detect_intervals
        self.scale_in_intervals = scale_in_intervals
        self.name = f"reactive-h{headroom:.2f}"
        self._over_count = 0
        self._under_count = 0
        self._last_machines: Optional[int] = None

    def reset(self, params, max_machines, trace=None) -> None:  # noqa: D102
        super().reset(params, max_machines, trace)
        self._over_count = 0
        self._under_count = 0
        self._last_machines = None

    def _needed(self, load_rate: float) -> int:
        """Machines for the load plus the configured headroom."""
        return self.clamp(
            self.params.machines_for_load(load_rate * (1.0 + self.headroom))
        )

    def decide(self, state: SimState) -> Optional[int]:
        params = self.params
        if self._last_machines is not None and state.machines != self._last_machines:
            # The allocation changed since our last decision returned —
            # a move we requested completing, or a *forced* change (a
            # fault-driven re-route).  Consecutive-interval counts
            # measured against the old allocation are stale; detection
            # must restart against the new one.
            self._over_count = 0
            self._under_count = 0
        self._last_machines = state.machines
        target_capacity = params.q * state.machines
        needed = self._needed(state.load_rate)

        if state.load_rate > self.trigger_fraction * target_capacity:
            self._over_count += 1
            self._under_count = 0
            if self._over_count >= self.detect_intervals and needed > state.machines:
                self._over_count = 0
                self._last_machines = needed
                self.note_decision(state, needed, "reactive-out")
                return needed
            return None
        self._over_count = 0

        if needed < state.machines:
            self._under_count += 1
            if self._under_count >= self.scale_in_intervals:
                self._under_count = 0
                # Scale in one step at a time: reactive systems avoid
                # large speculative shrinks they might instantly regret.
                self._last_machines = state.machines - 1
                self.note_decision(state, state.machines - 1, "reactive-in")
                return state.machines - 1
        else:
            self._under_count = 0
        return None
