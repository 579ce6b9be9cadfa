"""Interval-granularity capacity simulation (Section 8.3 of the paper).

Running the full benchmark over months is impractical ("at least 7.2
hours per experiment"), so the paper compares allocation policies by
*simulation*: walk the load trace interval by interval, let a controller
request reconfigurations, account machine cost (Equation 1) and check the
load against the cluster's **effective capacity** — which, while a move
is in flight, is below the allocated machine count (Equation 7).

The controllers are the engine simulator's: anything implementing the
``ElasticityController`` protocol (``on_slot(sim, slot_index,
measured_count)``) runs here unchanged, against a view exposing the
slice of :class:`~repro.engine.simulator.EngineSimulator` they read.

Outputs per run: total cost, the percentage of time with insufficient
capacity, and the full allocation / effective-capacity series (the data
behind Figures 12 and 13).

Conventions:

* "Insufficient capacity" means the interval's load exceeds the
  *maximum* effective throughput (Q-hat based); controllers plan against
  the *target* throughput Q, so the gap between Q and Q-hat is the
  buffer the paper's Q-sweep trades against cost.
* Machines allocated during a move follow the just-in-time schedule of
  Section 4.4.1, so a move's accounted cost equals
  ``T(B,A) * avg-mach-alloc(B,A)`` (Equation 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

import numpy as np

import repro.core.capacity as cap_model
from repro.core.params import SystemParameters
from repro.core.schedule import MoveSchedule, build_move_schedule
from repro.errors import ConfigurationError, MigrationError
from repro.telemetry import Telemetry, resolve_telemetry
from repro.workloads.trace import LoadTrace

if TYPE_CHECKING:
    from repro.engine.simulator import ElasticityController


@dataclass
class _InFlightMove:
    """A reconfiguration occupying intervals ``[start, start+duration)``."""

    before: int
    after: int
    start: int
    duration: int
    schedule: MoveSchedule

    def end(self) -> int:
        return self.start + self.duration

    def fill_span(
        self,
        n: int,
        effective: np.ndarray,
        allocated: np.ndarray,
        target: np.ndarray,
        reconfiguring: np.ndarray,
    ) -> int:
        """Write this move's intervals ``[start, min(end, n))`` in one
        vectorized pass; returns the first interval after the span.

        Interval ``k`` has shipped ``(k + 1 - start) / duration`` of the
        move's data: its effective capacity follows Equation 7 and its
        allocation the just-in-time round active at that progress.
        """
        span_end = min(self.end(), n)
        k = np.arange(self.start, span_end)
        frac = np.minimum((k + 1 - self.start) / self.duration, 1.0)
        inv_b, inv_a = 1.0 / self.before, 1.0 / self.after
        if self.before < self.after:
            share = inv_b - frac * (inv_b - inv_a)
        elif self.before > self.after:
            share = inv_b + frac * (inv_a - inv_b)
        else:
            share = np.full(len(k), inv_b)
        effective[k] = 1.0 / share
        rounds = self.schedule.num_rounds
        if rounds == 0:
            allocated[k] = self.after
        else:
            per_round = np.array(
                [self.schedule.machines_allocated_at(i) for i in range(rounds)],
                dtype=np.float64,
            )
            idx = np.clip(np.ceil(frac * rounds).astype(np.int64) - 1, 0, rounds - 1)
            allocated[k] = per_round[idx]
        target[k] = self.after
        reconfiguring[k] = True
        return span_end


class _SimView:
    """What a controller sees of a capacity simulation.

    The surface controllers read on an ``EngineSimulator``: ``now``,
    ``machines_allocated`` (the pre-move count until a move lands),
    ``migration_active``, ``telemetry``, ``cluster.num_available_nodes``
    (the simulator's ``max_machines``), ``min_machines`` (an overlay's
    floor) and :meth:`start_move`.
    """

    def __init__(
        self, machines: int, max_machines: int, telemetry: Optional[Telemetry]
    ) -> None:
        self.now = 0.0
        self.machines_allocated = machines
        self.telemetry = telemetry
        self.cluster = SimpleNamespace(num_available_nodes=max_machines)
        self.min_machines = 0
        #: Target of the move requested this interval, until it lands.
        self.target: Optional[int] = None

    @property
    def migration_active(self) -> bool:
        return self.target is not None

    def start_move(self, target: int, *, boost: float = 1.0) -> None:
        """Request a reconfiguration, starting this interval, to ``target``
        clamped into ``[1, max_machines]``.

        Raises MigrationError, like the engine, if one is already in
        flight or the target is the current size.
        """
        if boost != 1.0:
            raise ConfigurationError("the capacity model migrates at rate R only")
        if self.target is not None:
            raise MigrationError("a reconfiguration is already in flight")
        target = max(1, min(target, self.cluster.num_available_nodes))
        if target == self.machines_allocated:
            raise MigrationError("target equals current size; nothing to migrate")
        self.target = target


@dataclass
class CapacitySimResult:
    """Complete record of one controller's run over a trace."""

    trace_name: str
    slot_seconds: float
    load_rate: np.ndarray
    peak_load_rate: np.ndarray
    allocated: np.ndarray
    effective_machines: np.ndarray
    target_machines: np.ndarray
    reconfiguring: np.ndarray
    q: float
    q_max: float
    moves: int

    @property
    def cost(self) -> float:
        """Total machine-intervals (Equation 1)."""
        return float(self.allocated.sum())

    @property
    def max_effective_capacity(self) -> np.ndarray:
        """Q-hat capacity of the effective machine count, txn/s."""
        return self.effective_machines * self.q_max

    def insufficient_mask(self) -> np.ndarray:
        """Intervals whose *instantaneous peak* load exceeded the maximum
        effective capacity — the Figure 12 y-axis."""
        return self.peak_load_rate > self.max_effective_capacity + 1e-9

    @property
    def pct_time_insufficient(self) -> float:
        return 100.0 * float(self.insufficient_mask().mean())

    def average_machines(self) -> float:
        return float(self.allocated.mean())


class CapacitySimulator:
    """Runs elasticity controllers over long load traces.

    Args:
        params: System parameters; ``interval_seconds`` must equal the
            trace's slot length.
        max_machines: Cluster-size cap for every run.
    """

    def __init__(self, params: SystemParameters, max_machines: int = 20) -> None:
        if max_machines < 1:
            raise ConfigurationError("max_machines must be >= 1")
        self.params = params
        self.max_machines = max_machines

    def run(
        self,
        trace: LoadTrace,
        controller: "Optional[ElasticityController]" = None,
        *,
        initial_machines: Optional[int] = None,
    ) -> CapacitySimResult:
        """Simulate ``controller`` over ``trace``.

        Each interval ``t`` calls ``controller.on_slot(view, t,
        trace.values[t])``, including the intervals a move is in flight
        (so a controller's history stays complete); a move requested at
        ``t`` occupies ``t`` onward.  Without a controller the allocation
        is static.

        Args:
            trace: Offered load per interval.
            controller: Optional elasticity controller.
            initial_machines: Machines at ``t = 0``; by default enough for
                the first interval's load.  Capped at ``max_machines``.
        """
        params = self.params
        if abs(trace.slot_seconds - params.interval_seconds) > 1e-9:
            raise ConfigurationError(
                f"trace slots ({trace.slot_seconds}s) must match planner "
                f"intervals ({params.interval_seconds}s)"
            )
        n = len(trace)
        rates = trace.per_second()
        values = trace.values
        slot = trace.slot_seconds
        if initial_machines is None:
            initial_machines = params.machines_for_load(float(rates[0]))
        if initial_machines < 1:
            raise ConfigurationError("initial_machines must be >= 1")
        view = _SimView(
            min(initial_machines, self.max_machines),
            self.max_machines,
            resolve_telemetry(None),
        )
        moves_executed = 0

        allocated = np.empty(n)
        effective = np.empty(n)
        target = np.empty(n)
        reconfiguring = np.zeros(n, dtype=bool)

        t = 0
        while t < n:
            if controller is not None:
                view.now = t * slot
                controller.on_slot(view, t, float(values[t]))
            if view.target is None:
                effective[t] = allocated[t] = target[t] = view.machines_allocated
                t += 1
                continue
            # The whole span of an accepted move is filled in one
            # vectorized pass; the controller still sees every interval.
            before, after = view.machines_allocated, view.target
            move = _InFlightMove(
                before=before,
                after=after,
                start=t,
                duration=cap_model.move_time_intervals(before, after, params),
                schedule=build_move_schedule(before, after, params.partitions_per_node),
            )
            moves_executed += 1
            span_end = move.fill_span(n, effective, allocated, target, reconfiguring)
            for u in range(t + 1, span_end):
                view.now = u * slot
                controller.on_slot(view, u, float(values[u]))
            view.machines_allocated, view.target = after, None
            t = span_end

        return CapacitySimResult(
            trace_name=trace.name,
            slot_seconds=slot,
            load_rate=rates.copy(),
            peak_load_rate=trace.peak_per_second(),
            allocated=allocated,
            effective_machines=effective,
            target_machines=target,
            reconfiguring=reconfiguring,
            q=params.q,
            q_max=params.q_max,
            moves=moves_executed,
        )
