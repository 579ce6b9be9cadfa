"""The predictive-elasticity planner (Section 4.3, Algorithms 1-3).

Given a time series of predicted load ``L`` over ``T`` intervals, the
current machine count ``N0`` and the per-node target throughput ``Q``, the
planner finds the cheapest feasible series of *moves* — reconfigurations
from ``B`` to ``A`` machines, including the do-nothing move ``B == A`` —
such that the predicted load never exceeds the *effective capacity* of the
cluster (Equation 7), even while migrations are in flight.

The paper formulates this as a dynamic program with optimal substructure:
the minimum cost of reaching ``A`` machines at time ``t`` is the minimum
over ``B`` of the cost of reaching ``B`` machines at ``t - T(B, A)`` plus
the cost ``C(B, A)`` of the final move.  We compute the same recurrence
bottom-up (forward over time), which is equivalent to the paper's memoized
recursion but avoids deep recursion for long horizons.

Cost is measured in machine-intervals (Equation 1): the base case charges
``A`` for the first interval, a do-nothing move charges ``B`` per interval,
and a real move charges ``T(B, A) * avg-mach-alloc(B, A)`` (Equation 4).

Indexing convention: ``load[0]`` is the load of the current interval
(t = 0) and ``load[t]`` the prediction for interval ``t``; the horizon is
``T = len(load) - 1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

import repro.core.capacity as cap_model
from repro.core.params import SystemParameters
from repro.errors import ConfigurationError, InfeasiblePlanError
from repro.telemetry.perf import timed

INFINITY = math.inf

#: Below this many ``(t, B, A)`` cells the DP runs its scalar loop;
#: numpy call overhead dominates the vectorized pass on tiny instances
#: (the 12-interval receding-horizon replans of the capacity simulation).
_SCALAR_DP_LIMIT = 2000


@dataclass(frozen=True)
class Move:
    """One reconfiguration in a plan.

    Attributes:
        start: Interval at which the move begins.
        end: Interval at which the move completes (``end > start``).
        before: Machines before the move (``B``).
        after: Machines after the move (``A``).  ``before == after`` is the
            do-nothing move, which always spans one interval.
    """

    start: int
    end: int
    before: int
    after: int

    @property
    def is_noop(self) -> bool:
        return self.before == self.after

    @property
    def duration(self) -> int:
        return self.end - self.start

    def __str__(self) -> str:
        if self.is_noop:
            return f"[{self.start}..{self.end}] hold {self.before}"
        arrow = "scale-out" if self.after > self.before else "scale-in"
        return f"[{self.start}..{self.end}] {arrow} {self.before} -> {self.after}"


@dataclass
class MovePlan:
    """A feasible, minimum-cost series of moves returned by the planner."""

    moves: List[Move]
    cost: float
    final_machines: int
    horizon: int

    def __bool__(self) -> bool:
        return bool(self.moves)

    def first_real_move(self) -> Optional[Move]:
        """The first non-noop move, if any (receding-horizon control uses
        only this one; the rest is re-planned after it completes)."""
        for move in self.moves:
            if not move.is_noop:
                return move
        return None

    def coalesced(self) -> List[Move]:
        """Merge runs of consecutive do-nothing moves for display."""
        out: List[Move] = []
        for move in self.moves:
            if (
                out
                and move.is_noop
                and out[-1].is_noop
                and out[-1].after == move.before
                and out[-1].end == move.start
            ):
                prev = out.pop()
                out.append(Move(prev.start, move.end, prev.before, move.after))
            else:
                out.append(move)
        return out

    def machines_at(self, t: int) -> int:
        """Machine count *targeted* at interval ``t`` (after of last move
        ending at or before ``t``; ``before`` of the move spanning ``t``)."""
        current = self.moves[0].before if self.moves else 0
        for move in self.moves:
            if move.end <= t:
                current = move.after
        return current


class Planner:
    """Dynamic-programming planner for predictive elasticity.

    The planner is deterministic and stateless: each call to
    :meth:`best_moves` solves one instance.  Construction pre-computes the
    move-duration, move-cost and effective-capacity tables for all pairs
    ``(B, A)`` up to ``max_machines``, so repeated receding-horizon calls
    (one per control cycle) stay cheap.
    """

    def __init__(
        self,
        params: SystemParameters,
        max_machines: int = 64,
        effective_capacity_aware: bool = True,
    ) -> None:
        """Args:
            params: Cluster model parameters.
            max_machines: Largest cluster the planner may schedule.
            effective_capacity_aware: When True (the paper's algorithm),
                feasibility during a move uses Equation 7's effective
                capacity; when False it naively assumes the full capacity
                of the allocated machines — the ablation showing why
                Section 4.4.4 matters (naive plans under-provision).
        """
        if max_machines < 1:
            raise ConfigurationError("max_machines must be >= 1")
        self.params = params
        self.max_machines = max_machines
        self.effective_capacity_aware = effective_capacity_aware
        # Tables are memoized per (params, max_machines): the controller
        # re-plans every cycle with identical parameters, so repeated
        # construction (one planner per control loop, per sweep point,
        # per test) reuses one shared table set.
        self._tables = cap_model.planner_tables(params, max_machines)
        self._duration = self._tables.duration
        self._cost = self._tables.cost

    # ------------------------------------------------------------------
    def move_cost(self, before: int, after: int) -> float:
        """C(B, A) in machine-intervals; ``B`` for the do-nothing move."""
        if before == after:
            return float(before)
        return float(self._cost[before, after])

    # ------------------------------------------------------------------
    @timed("planner.dp")
    def best_moves(
        self,
        load: Sequence[float],
        initial_machines: int,
        *,
        required_final_machines: Optional[int] = None,
        candidates_out: Optional[List["PlanCandidate"]] = None,
    ) -> MovePlan:
        """Find the minimum-cost feasible series of moves (Algorithm 1).

        Args:
            load: Predicted load per interval, ``load[0]`` being the
                current interval; horizon ``T = len(load) - 1``.
            initial_machines: Machines allocated now (``N0``).
            required_final_machines: If given, force the plan to end with
                exactly this many machines instead of the fewest feasible.
            candidates_out: If given, receives one
                :class:`~repro.core.audit.PlanCandidate` per candidate
                final machine count with its DP cost (``inf`` when
                infeasible) — the decision-audit trail.  Filled on the
                infeasible path too, before the raise.

        Returns:
            A :class:`MovePlan` ordered by starting time whose moves tile
            ``[0, T]`` contiguously.

        Raises:
            InfeasiblePlanError: If no feasible series of moves exists —
                the initial machine count is too low to scale out in time.
                Callers handle this with one of the reactive options of
                Section 4.3.1.
        """
        load_arr = np.asarray(load, dtype=np.float64)
        if load_arr.ndim != 1 or len(load_arr) < 2:
            raise ConfigurationError("load must be a 1-D series with horizon >= 1")
        if np.any(load_arr < 0):
            raise ConfigurationError("load must be non-negative")
        if initial_machines < 1:
            raise ConfigurationError("initial_machines must be >= 1")
        horizon = len(load_arr) - 1

        # Z: machines needed for the maximum predicted load (Alg. 1 line 2).
        q = self.params.q
        z = max(int(math.ceil(load_arr.max() / q)), initial_machines, 1)
        if required_final_machines is not None:
            z = max(z, required_final_machines)
        if self.params.max_machines:
            z = min(z, self.params.max_machines)
        if initial_machines > self.max_machines:
            raise ConfigurationError("initial_machines exceeds max_machines")
        # Load beyond the largest allocatable cluster makes those intervals
        # infeasible; the DP then reports InfeasiblePlanError and the
        # controller falls back to reactive scale-out (Section 4.3.1).
        z = min(z, self.max_machines)

        cost, prev_time, prev_nodes = self._solve(load_arr, initial_machines, z)

        candidates: Sequence[int]
        if required_final_machines is not None:
            if not 1 <= required_final_machines <= z:
                raise InfeasiblePlanError(
                    f"required final machine count {required_final_machines} "
                    f"outside feasible range [1, {z}]"
                )
            candidates = [required_final_machines]
        else:
            candidates = range(1, z + 1)

        if candidates_out is not None:
            from repro.core.audit import PlanCandidate

            candidates_out.extend(
                PlanCandidate(final, float(cost[horizon][final]))
                for final in candidates
            )

        for final in candidates:
            if math.isfinite(cost[horizon][final]):
                moves = self._backtrack(prev_time, prev_nodes, horizon, final)
                return MovePlan(
                    moves=moves,
                    cost=float(cost[horizon][final]),
                    final_machines=final,
                    horizon=horizon,
                )
        raise InfeasiblePlanError(
            f"no feasible series of moves from {initial_machines} machines "
            f"over horizon {horizon}; peak predicted load {load_arr.max():.1f} "
            f"needs up to {z} machines"
        )

    def plan(
        self, load: Sequence[float], initial_machines: int
    ) -> Optional[MovePlan]:
        """Like :meth:`best_moves` but returns ``None`` when infeasible."""
        try:
            return self.best_moves(load, initial_machines)
        except InfeasiblePlanError:
            return None

    # ------------------------------------------------------------------
    def _feasibility(self, load: np.ndarray, z: int) -> np.ndarray:
        """Feasibility of every candidate final move (Alg. 3 lines 6-9).

        ``feas[t, b-1, a-1]`` is True when the predicted load stays under
        the effective capacity throughout a ``b -> a`` move *ending* at
        interval ``t``.  Moves are grouped by duration so the sliding
        window check runs vectorized over end times and moves at once.
        """
        horizon = len(load) - 1
        q = self.params.q
        feas = np.zeros((horizon + 1, z, z), dtype=bool)
        for d, (befores, afters, profiles) in self._tables.by_duration.items():
            if d > horizon:
                continue  # cannot complete within the horizon
            sel = (befores <= z) & (afters <= z)
            if not sel.any():
                continue
            bsel = befores[sel]
            asel = afters[sel]
            if self.effective_capacity_aware:
                prof = profiles[sel]
            else:
                # Ablation: naively assume the full capacity of the
                # larger allocation for the whole move.
                naive = q * np.maximum(bsel, asel).astype(np.float64)
                prof = np.broadcast_to(naive[:, None], (len(bsel), d))
            # End times t = d..horizon; move interval i checks load[t-d+i].
            window = horizon + 1 - d
            ok = np.ones((len(bsel), window), dtype=bool)
            for i in range(1, d + 1):
                ok &= load[None, i : i + window] <= prof[:, i - 1 : i] + 1e-9
            feas[d:, bsel - 1, asel - 1] = ok.T
        return feas

    def _solve(self, load: np.ndarray, initial_machines: int, z: int):
        """Bottom-up version of the cost/sub-cost recursion (Alg. 2 and 3).

        Returns ``cost[t][a]``, ``prev_time[t][a]`` and ``prev_nodes[t][a]``
        (the memo matrix ``m`` of the paper).  Small instances (the common
        receding-horizon case: short horizon, few machines) run a plain
        scalar loop — numpy call overhead would dominate; larger ones run
        the min-over-B inner loop as one vectorized pass over all
        ``(B, A)`` pairs per interval.  Both paths evaluate the identical
        recurrence (same table values, same first-minimum tie-break).
        """
        horizon = len(load) - 1
        if z * z * horizon <= _SCALAR_DP_LIMIT:
            return self._solve_small(load, initial_machines, z)
        q = self.params.q
        cost = np.full((horizon + 1, z + 1), INFINITY)
        prev_time = np.full((horizon + 1, z + 1), -1, dtype=np.int64)
        prev_nodes = np.full((horizon + 1, z + 1), -1, dtype=np.int64)

        # Base case (Alg. 2 lines 5-6): t = 0 requires A == N0.
        if load[0] <= q * initial_machines + 1e-9:
            cost[0, initial_machines] = float(initial_machines)

        feas = self._feasibility(load, z)
        dur = np.maximum(self._duration[1 : z + 1, 1 : z + 1], 1)  # (B, A)
        move_cost = self._cost[1 : z + 1, 1 : z + 1]
        b_col = np.arange(1, z + 1)[:, None]  # machine count per row
        a_idx = np.arange(z)
        # Penalty for insufficient capacity at t (Alg. 2 line 2).
        cap_ok = load[:, None] <= q * np.arange(1, z + 1)[None, :] + 1e-9

        for t in range(1, horizon + 1):
            starts = t - dur
            valid = (starts >= 0) & feas[t] & cap_ok[t][None, :]
            if not valid.any():
                continue
            base = cost[np.where(valid, starts, 0), b_col]
            value = np.where(valid, base + move_cost, INFINITY)
            best_b = np.argmin(value, axis=0)  # ties -> smallest B, as before
            best = value[best_b, a_idx]
            finite = np.isfinite(best)
            if not finite.any():
                continue
            cost[t, 1:] = np.where(finite, best, INFINITY)
            chosen = np.where(finite, best_b + 1, prev_nodes[t, 1:])
            prev_nodes[t, 1:] = chosen
            prev_time[t, 1:] = np.where(finite, t - dur[best_b, a_idx], prev_time[t, 1:])
        return cost, prev_time, prev_nodes

    def _solve_small(self, load: np.ndarray, initial_machines: int, z: int):
        """Scalar DP for small instances; see :meth:`_solve`."""
        horizon = len(load) - 1
        q = self.params.q
        feas = self._feasibility(load, z).tolist()
        dur = np.maximum(self._duration[1 : z + 1, 1 : z + 1], 1).tolist()
        mcost = self._cost[1 : z + 1, 1 : z + 1].tolist()
        load_l = load.tolist()
        cost = [[INFINITY] * (z + 1) for _ in range(horizon + 1)]
        prev_time = [[-1] * (z + 1) for _ in range(horizon + 1)]
        prev_nodes = [[-1] * (z + 1) for _ in range(horizon + 1)]
        if load_l[0] <= q * initial_machines + 1e-9:
            cost[0][initial_machines] = float(initial_machines)
        for t in range(1, horizon + 1):
            feas_t = feas[t]
            load_t = load_l[t]
            for a in range(1, z + 1):
                if load_t > q * a + 1e-9:
                    continue
                best = INFINITY
                best_b = -1
                best_start = -1
                for b in range(1, z + 1):
                    if not feas_t[b - 1][a - 1]:
                        continue
                    start = t - dur[b - 1][a - 1]
                    if start < 0:
                        continue
                    value = cost[start][b] + mcost[b - 1][a - 1]
                    if value < best:  # strict: ties keep the smallest B
                        best = value
                        best_b = b
                        best_start = start
                if best_b >= 0 and best < INFINITY:
                    cost[t][a] = best
                    prev_nodes[t][a] = best_b
                    prev_time[t][a] = best_start
        return cost, prev_time, prev_nodes

    @staticmethod
    def _backtrack(
        prev_time,
        prev_nodes,
        horizon: int,
        final: int,
    ) -> List[Move]:
        """Walk the memo matrix backwards (Alg. 1 lines 6-11)."""
        moves: List[Move] = []
        t, nodes = horizon, final
        while t > 0:
            start = int(prev_time[t][nodes])
            before = int(prev_nodes[t][nodes])
            moves.append(Move(start=start, end=t, before=before, after=nodes))
            t, nodes = start, before
        moves.reverse()
        return moves


def plan_cost_lower_bound(
    load: Sequence[float], params: SystemParameters
) -> float:
    """Cost of the ideal steady-state plan: exactly ``ceil(load/Q)``
    machines at every interval, with instantaneous reconfigurations.

    This is a baseline for benchmarks, not a strict lower bound: during
    a move interval the just-in-time schedule charges the *average*
    machines allocated (Equation 4), which can fractionally undercut the
    interval's ceil-based demand — by at most ``(A - B) / 2`` machines
    per scale-out move.
    """
    total = 0.0
    for value in load:
        total += params.machines_for_load(float(value))
    return total
