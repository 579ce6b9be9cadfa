"""Round-based migration schedules (Section 4.4.1 and Table 1 of the paper).

A *move* reconfigures the cluster from ``B`` to ``A`` machines.  Data moves
in *rounds*: within one round every machine participates in at most one
transfer, so all transfers in a round proceed in parallel.  Because every
sender must ship an equal amount of data to every receiver (to preserve the
balanced-data invariant), a scale-out from ``B`` to ``A`` machines requires
exactly ``B * (A - B)`` sender/receiver transfers, each carrying
``1 / (A * B)`` of the database.

P-Store schedules these transfers with three strategies (Figure 4):

* Case 1 (``delta <= B``): all new machines are allocated at once and the
  senders rotate over them; ``B`` rounds.
* Case 2 (``delta`` a multiple of ``B``): blocks of ``B`` machines are
  allocated just in time and filled one block per ``B`` rounds.
* Case 3 (general): a three-phase schedule — full blocks, then a partially
  filled block, then the remaining machines while the partial block is
  topped up — keeping every sender busy in every round so the whole move
  finishes in the optimal ``delta`` rounds (Table 1 shows 3 -> 14 machines
  finishing in 11 rounds instead of the naive 12).

Scale-in is symmetric: the schedule for ``B -> A`` with ``B > A`` is the
time-reversed scale-out schedule ``A -> B`` with senders and receivers
swapped, and machines are *deallocated* as soon as they are emptied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.core.edge_coloring import bipartite_edge_coloring
from repro.core.params import SystemParameters
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Transfer:
    """One sender -> receiver data transfer within a round.

    Machine indices are zero-based cluster-wide identifiers.  For a
    scale-out the senders are the original machines ``0..B-1`` and the
    receivers the new machines ``B..A-1`` in allocation order; for a
    scale-in the senders are the departing machines ``A..B-1`` and the
    receivers the surviving machines ``0..A-1``.
    """

    sender: int
    receiver: int

    def __str__(self) -> str:  # 1-based, matching Table 1 of the paper
        return f"{self.sender + 1} → {self.receiver + 1}"


@dataclass(frozen=True)
class Round:
    """A set of parallel transfers plus the machines allocated meanwhile."""

    index: int
    transfers: Tuple[Transfer, ...]
    machines_allocated: int
    phase: int  # 1, 2 or 3 (always 1 for cases 1 and 2)


@dataclass
class MoveSchedule:
    """Complete schedule of a reconfiguration from ``before`` to ``after``.

    Rounds all move the same amount of data, so the fraction of the move
    completed grows linearly with the round index, which is exactly the
    assumption behind the planner's effective-capacity check (Equation 7).
    """

    before: int
    after: int
    partitions_per_node: int = 1
    rounds: List[Round] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Shape helpers
    # ------------------------------------------------------------------
    @property
    def is_noop(self) -> bool:
        return self.before == self.after

    @property
    def is_scale_out(self) -> bool:
        return self.after > self.before

    @property
    def is_scale_in(self) -> bool:
        return self.after < self.before

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    @property
    def smaller(self) -> int:
        return min(self.before, self.after)

    @property
    def larger(self) -> int:
        return max(self.before, self.after)

    # ------------------------------------------------------------------
    # Timing and accounting
    # ------------------------------------------------------------------
    def data_per_transfer(self) -> float:
        """Fraction of the whole database carried by one transfer."""
        if self.is_noop:
            return 0.0
        return 1.0 / (self.larger * self.smaller)

    def round_duration_seconds(self, params: SystemParameters) -> float:
        """Wall-clock duration of one round.

        Each node pair ships ``1/(larger*smaller)`` of the database using
        ``P`` parallel partition threads, each running at the single-thread
        rate (the whole database takes ``D`` seconds single-threaded).
        """
        if self.is_noop:
            return 0.0
        return params.d_seconds * self.data_per_transfer() / params.partitions_per_node

    def total_seconds(self, params: SystemParameters) -> float:
        """Total schedule duration; equals ``T(B, A)`` from Equation 3."""
        return self.num_rounds * self.round_duration_seconds(params)

    def machines_allocated_at(self, round_index: int) -> int:
        """Machines allocated while ``round_index`` executes."""
        return self.rounds[round_index].machines_allocated

    def fraction_completed_after(self, round_index: int) -> float:
        """Fraction of the move's data shipped once a round finishes."""
        if self.is_noop or not self.rounds:
            return 1.0
        return (round_index + 1) / self.num_rounds

    def average_machines_allocated(self) -> float:
        """Time-average machine count; matches Algorithm 4 of the paper."""
        if self.is_noop or not self.rounds:
            return float(self.before)
        total = sum(r.machines_allocated for r in self.rounds)
        return total / self.num_rounds

    def as_table(self) -> str:
        """Render the schedule like Table 1 of the paper (1-based ids)."""
        lines = []
        current_phase = None
        for rnd in self.rounds:
            prefix = ""
            if rnd.phase != current_phase:
                current_phase = rnd.phase
                prefix = f"Phase {rnd.phase}: "
            pairs = ", ".join(str(t) for t in rnd.transfers)
            lines.append(f"{prefix or '         '}{pairs}")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all scheduling invariants; raise ConfigurationError if broken.

        Invariants:
        * every required sender/receiver pair appears exactly once;
        * within a round, no machine appears in two transfers;
        * a machine only transfers data in rounds where it is allocated;
        * allocation is monotone (non-decreasing for scale-out rounds,
          non-increasing for scale-in);
        * the round count is optimal: ``max(smaller, delta)`` rounds.
        """
        if self.is_noop:
            if self.rounds:
                raise ConfigurationError("no-op move must have no rounds")
            return
        smaller, larger = self.smaller, self.larger
        delta = larger - smaller
        expected_rounds = max(smaller, delta)
        if self.num_rounds != expected_rounds:
            raise ConfigurationError(
                f"{self.before}->{self.after}: {self.num_rounds} rounds, "
                f"expected optimal {expected_rounds}"
            )
        if self.is_scale_out:
            senders = set(range(self.before))
            receivers = set(range(self.before, self.after))
        else:
            senders = set(range(self.after, self.before))
            receivers = set(range(self.after))
        required = {(s, r) for s in senders for r in receivers}
        seen: Set[Tuple[int, int]] = set()
        prev_alloc = None
        for rnd in self.rounds:
            used: Set[int] = set()
            for transfer in rnd.transfers:
                pair = (transfer.sender, transfer.receiver)
                if pair not in required:
                    raise ConfigurationError(f"unexpected transfer {pair}")
                if pair in seen:
                    raise ConfigurationError(f"duplicate transfer {pair}")
                seen.add(pair)
                for machine in pair:
                    if machine in used:
                        raise ConfigurationError(
                            f"machine {machine} used twice in round {rnd.index}"
                        )
                    used.add(machine)
                    if machine >= rnd.machines_allocated and self.is_scale_out:
                        raise ConfigurationError(
                            f"machine {machine} transfers before allocation "
                            f"in round {rnd.index}"
                        )
            if prev_alloc is not None:
                if self.is_scale_out and rnd.machines_allocated < prev_alloc:
                    raise ConfigurationError("scale-out allocation decreased")
                if self.is_scale_in and rnd.machines_allocated > prev_alloc:
                    raise ConfigurationError("scale-in allocation increased")
            prev_alloc = rnd.machines_allocated
        if seen != required:
            missing = required - seen
            raise ConfigurationError(f"missing transfers: {sorted(missing)[:5]} ...")


def _scale_out_rounds(before: int, after: int) -> List[Round]:
    """Build the scale-out schedule ``before < after`` (Section 4.4.1)."""
    num_senders = before
    delta = after - before
    receivers_start = before
    rounds: List[Round] = []

    if delta <= num_senders:
        # Case 1: allocate all new machines at once; senders rotate.
        for rotation in range(num_senders):
            transfers = []
            for j in range(delta):
                sender = (j + rotation) % num_senders
                transfers.append(Transfer(sender, receivers_start + j))
            rounds.append(Round(len(rounds), tuple(transfers), after, 1))
        return rounds

    num_full_blocks = delta // num_senders
    remainder = delta % num_senders

    if remainder == 0:
        # Case 2: just-in-time blocks of `before` machines.
        for block in range(num_full_blocks):
            block_start = receivers_start + block * num_senders
            allocated = before + (block + 1) * num_senders
            for rotation in range(num_senders):
                transfers = []
                for sender in range(num_senders):
                    receiver = block_start + (sender + rotation) % num_senders
                    transfers.append(Transfer(sender, receiver))
                rounds.append(Round(len(rounds), tuple(transfers), allocated, 1))
        return rounds

    # Case 3: three phases.
    # Phase 1: (delta // before - 1) full blocks, filled completely.
    phase1_blocks = num_full_blocks - 1
    for block in range(phase1_blocks):
        block_start = receivers_start + block * num_senders
        allocated = before + (block + 1) * num_senders
        for rotation in range(num_senders):
            transfers = []
            for sender in range(num_senders):
                receiver = block_start + (sender + rotation) % num_senders
                transfers.append(Transfer(sender, receiver))
            rounds.append(Round(len(rounds), tuple(transfers), allocated, 1))

    # Phase 2: one more block of `before` machines, filled only
    # `remainder / before` of the way (r rotation rounds).
    partial_start = receivers_start + phase1_blocks * num_senders
    allocated_phase2 = before + (phase1_blocks + 1) * num_senders  # == after - remainder
    received_from: Dict[int, Set[int]] = {
        partial_start + j: set() for j in range(num_senders)
    }
    for rotation in range(remainder):
        transfers = []
        for sender in range(num_senders):
            receiver = partial_start + (sender + rotation) % num_senders
            received_from[receiver].add(sender)
            transfers.append(Transfer(sender, receiver))
        rounds.append(Round(len(rounds), tuple(transfers), allocated_phase2, 2))

    # Phase 3: allocate the last `remainder` machines; fill them completely
    # while topping up the partial block.  Every sender has exactly
    # `before` transfers left, so a bipartite edge coloring packs them into
    # `before` rounds with all senders busy every round.
    final_start = after - remainder
    edges: List[Tuple[int, int]] = []
    for sender in range(num_senders):
        for j in range(remainder):
            edges.append((sender, final_start + j))
    for receiver, got in received_from.items():
        for sender in range(num_senders):
            if sender not in got:
                edges.append((sender, receiver))
    colors = bipartite_edge_coloring(edges)
    by_color: Dict[int, List[Transfer]] = {}
    for (sender, receiver), color in zip(edges, colors):
        by_color.setdefault(color, []).append(Transfer(sender, receiver))
    for color in sorted(by_color):
        rounds.append(Round(len(rounds), tuple(by_color[color]), after, 3))
    return rounds


def build_move_schedule(
    before: int, after: int, partitions_per_node: int = 1
) -> MoveSchedule:
    """Build the migration schedule for a move from ``before`` to ``after``.

    Node-level schedule: with ``P`` partitions per node, each node-pair
    transfer internally runs ``P`` partition pairs in parallel, dividing
    the round duration by ``P`` (already accounted for by
    :meth:`MoveSchedule.round_duration_seconds`).

    Args:
        before: Machines currently allocated (``B``).
        after: Target machine count (``A``).
        partitions_per_node: Partitions per machine (``P``).

    Returns:
        A validated :class:`MoveSchedule`.
    """
    if before < 1 or after < 1:
        raise ConfigurationError(
            f"cluster sizes must be >= 1, got before={before}, after={after}"
        )
    if partitions_per_node < 1:
        raise ConfigurationError("partitions_per_node must be >= 1")
    schedule = MoveSchedule(before, after, partitions_per_node)
    if before == after:
        return schedule

    if before < after:
        schedule.rounds = _scale_out_rounds(before, after)
    else:
        # Scale-in: time-reverse the A -> B scale-out with roles swapped.
        # Survivors are 0..after-1; departing machines after..before-1 act
        # as senders and are deallocated once emptied.
        mirror = _scale_out_rounds(after, before)
        total = len(mirror)
        reversed_rounds: List[Round] = []
        for idx, rnd in enumerate(reversed(mirror)):
            transfers = tuple(
                Transfer(sender=t.receiver, receiver=t.sender) for t in rnd.transfers
            )
            reversed_rounds.append(
                Round(idx, transfers, rnd.machines_allocated, rnd.phase)
            )
        schedule.rounds = reversed_rounds
    schedule.validate()
    return schedule


def naive_block_round_count(before: int, after: int) -> int:
    """Rounds needed without the three-phase trick (for the ablation).

    A naive scheduler that only adds whole blocks of ``min(B, A)`` machines
    and fills each block completely needs ``smaller * ceil(delta/smaller)``
    rounds when ``delta > smaller`` (12 instead of 11 for 3 -> 14).
    """
    smaller = min(before, after)
    larger = max(before, after)
    delta = larger - smaller
    if delta == 0:
        return 0
    if delta <= smaller:
        return smaller
    return smaller * -(-delta // smaller)  # smaller * ceil(delta / smaller)
