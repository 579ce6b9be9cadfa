"""The fault injector: a deterministic cursor over a :class:`FaultPlan`.

The engine simulator owns the cluster and the in-flight migration, so
the injector does not mutate anything itself — it tells the simulator
*what is due now* (fault events, straggler expirations, scheduled node
recoveries) and keeps the :class:`FaultStats` ledger the chaos
experiment asserts against.  One injector drives exactly one run; create
a fresh one (same plan) to replay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import FaultInjectionError
from repro.faults.plan import FaultEvent, FaultPlan


@dataclass
class FaultStats:
    """Per-fault counters for one run; all monotone, all assertable.

    ``injected`` counters track what the injector delivered; ``skipped``
    counters track migration-targeted events that found no migration in
    flight (a fault plan is written against wall-clock time, not against
    the controller's move timing, so this is expected and must be
    visible rather than silently folded into "injected").
    """

    crashes_injected: int = 0
    crashes_skipped: int = 0          # node already failed / never existed
    nodes_recovered: int = 0
    stragglers_injected: int = 0
    stragglers_recovered: int = 0
    transfer_failures_injected: int = 0
    transfer_failures_skipped: int = 0  # no migration in flight
    transfer_retries: int = 0
    transfers_failed_permanently: int = 0
    stalls_injected: int = 0
    stalls_skipped: int = 0             # no migration in flight
    stalls_recovered: int = 0
    migrations_aborted: int = 0
    buckets_rerouted: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class _Straggler:
    node_id: int
    factor: float
    end_seconds: float


class FaultInjector:
    """Single-use cursor over a fault plan, with the run's stats ledger."""

    def __init__(self, plan: FaultPlan) -> None:
        if not isinstance(plan, FaultPlan):
            raise FaultInjectionError("FaultInjector needs a FaultPlan")
        self.plan = plan
        self.stats = FaultStats()
        self._pending: List[FaultEvent] = list(plan.events)  # time-sorted
        self._cursor = 0
        self._recoveries: List[Tuple[float, int]] = []  # (at_seconds, node)
        self._stragglers: List[_Straggler] = []
        #: Telemetry handle installed by the owning simulator; ``None``
        #: (the default) makes every instrumentation site below inert.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Schedule queries (all relative to simulation time ``now``)
    # ------------------------------------------------------------------
    def events_due(self, now: float) -> List[FaultEvent]:
        """Pop and return all plan events with ``at_seconds <= now``."""
        due: List[FaultEvent] = []
        while self._cursor < len(self._pending):
            event = self._pending[self._cursor]
            if event.at_seconds > now:
                break
            due.append(event)
            self._cursor += 1
        if due and self.telemetry is not None:
            self.telemetry.counter("faults.events_delivered").inc(len(due))
        return due

    def schedule_recovery(self, node_id: int, at_seconds: float) -> None:
        self._recoveries.append((at_seconds, node_id))
        self._recoveries.sort()

    def recoveries_due(self, now: float) -> List[int]:
        """Pop node ids whose scheduled recovery time has arrived."""
        due = [node for at, node in self._recoveries if at <= now]
        if due:
            self._recoveries = [(at, n) for at, n in self._recoveries if at > now]
            if self.telemetry is not None:
                self.telemetry.counter("faults.recoveries_delivered").inc(len(due))
        return due

    def add_straggler(self, node_id: int, factor: float, end_seconds: float) -> None:
        self._stragglers.append(_Straggler(node_id, factor, end_seconds))

    def straggler_expirations(self, now: float) -> List[int]:
        """Pop node ids whose straggler window has closed."""
        done = [s.node_id for s in self._stragglers if s.end_seconds <= now]
        if done:
            self._stragglers = [s for s in self._stragglers if s.end_seconds > now]
            if self.telemetry is not None:
                self.telemetry.counter("faults.stragglers_expired").inc(len(done))
        return done

    def active_stragglers(self) -> List[Tuple[int, float]]:
        """(node_id, factor) for every straggler window currently open."""
        return [(s.node_id, s.factor) for s in self._stragglers]

    @property
    def exhausted(self) -> bool:
        """True once nothing (events, recoveries, expirations) remains."""
        return (
            self._cursor >= len(self._pending)
            and not self._recoveries
            and not self._stragglers
        )

    def quiet_over(self, start: float, last: float) -> bool:
        """True when nothing fires in ``(start, last]`` — the engine's
        steady-slot fast path is only safe over such windows."""
        if self._cursor < len(self._pending):
            at = self._pending[self._cursor].at_seconds
            if start < at <= last:
                return False
        for at, _ in self._recoveries:
            if start < at <= last:
                return False
        for s in self._stragglers:
            if start < s.end_seconds <= last:
                return False
        return True
