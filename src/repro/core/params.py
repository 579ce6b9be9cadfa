"""System parameters of the P-Store model (Section 4.1 of the paper).

The model has three empirically-discovered parameters:

``Q``
    Target throughput of each server (txn/s).  Used to decide how many
    servers the predicted load requires.  The paper sets it to 65% of the
    single-server saturation rate.

``Q_hat``
    Maximum throughput of each server (txn/s).  Loads above this violate
    the latency SLA.  The paper sets it to 80% of saturation.

``D``
    Shortest time (seconds) to move *all* data in the database exactly once
    with a single sender-receiver thread pair without noticeable latency
    impact, including a 10% buffer.

The defaults below are the values measured in Section 8.1 of the paper for
the B2W workload on H-Store with 6 partitions per node: saturation at
438 txn/s, ``Q_hat`` = 350 txn/s, ``Q`` = 285 txn/s, ``D`` = 4646 s
(77 minutes) for a 1106 MB database at a migration rate of 244 kB/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Single-node saturation rate measured in the paper (txn/s, Figure 7).
PAPER_SATURATION_RATE = 438.0
#: Fraction of saturation used for the maximum per-node throughput Q_hat.
PAPER_QHAT_FRACTION = 0.80
#: Fraction of saturation used for the target per-node throughput Q.
PAPER_Q_FRACTION = 0.65
#: Paper's single-thread full-database migration time, seconds (77 min).
PAPER_D_SECONDS = 4646.0
#: Paper's database size in kB (1106 MB).
PAPER_DB_SIZE_KB = 1106.0 * 1024.0
#: Paper's effective migration rate, kB/s.
PAPER_MIGRATION_RATE_KBPS = 244.0
#: Latency SLA threshold, milliseconds (Section 8.2).
PAPER_SLA_MS = 500.0


@dataclass(frozen=True)
class SystemParameters:
    """Empirical parameters of a database cluster, used by the planner.

    Attributes:
        q: Target average throughput per node, txn/s (symbol ``Q``).
        q_max: Maximum throughput per node before SLA violations, txn/s
            (symbol ``Q̂``).
        d_seconds: Time to migrate the entire database once with a single
            thread pair, seconds (symbol ``D``), including buffer.
        partitions_per_node: Number of logical data partitions per node
            (symbol ``P``); bounds migration parallelism (Equation 2).
        interval_seconds: Planner time-interval length.  The dynamic
            program of Section 4.3 discretizes time into intervals of this
            length; the paper uses 5-minute prediction granularity.
        max_machines: Hard upper bound on cluster size (0 = unbounded).
    """

    q: float = PAPER_SATURATION_RATE * PAPER_Q_FRACTION
    q_max: float = PAPER_SATURATION_RATE * PAPER_QHAT_FRACTION
    d_seconds: float = PAPER_D_SECONDS
    partitions_per_node: int = 6
    interval_seconds: float = 300.0
    max_machines: int = 0

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise ConfigurationError(f"q must be positive, got {self.q}")
        if self.q_max < self.q:
            raise ConfigurationError(
                f"q_max ({self.q_max}) must be >= q ({self.q}); Q is the "
                "target rate and Q_hat the maximum rate per node"
            )
        if self.d_seconds <= 0:
            raise ConfigurationError(f"d_seconds must be positive, got {self.d_seconds}")
        if self.partitions_per_node < 1:
            raise ConfigurationError(
                f"partitions_per_node must be >= 1, got {self.partitions_per_node}"
            )
        if self.interval_seconds <= 0:
            raise ConfigurationError(
                f"interval_seconds must be positive, got {self.interval_seconds}"
            )
        if self.max_machines < 0:
            raise ConfigurationError(f"max_machines must be >= 0, got {self.max_machines}")

    @classmethod
    def from_saturation(
        cls,
        saturation_rate: float,
        *,
        q_fraction: float = PAPER_Q_FRACTION,
        q_max_fraction: float = PAPER_QHAT_FRACTION,
        **kwargs: object,
    ) -> "SystemParameters":
        """Derive Q and Q_hat from a measured saturation rate.

        Mirrors Section 4.1: ``Q_hat`` is set to ``q_max_fraction`` (80% by
        default) of the saturation point and ``Q`` to ``q_fraction`` (65%).
        """
        if saturation_rate <= 0:
            raise ConfigurationError("saturation_rate must be positive")
        if not 0 < q_fraction <= q_max_fraction <= 1:
            raise ConfigurationError(
                "need 0 < q_fraction <= q_max_fraction <= 1, got "
                f"{q_fraction} and {q_max_fraction}"
            )
        return cls(
            q=saturation_rate * q_fraction,
            q_max=saturation_rate * q_max_fraction,
            **kwargs,  # type: ignore[arg-type]
        )

    def machines_for_load(self, load: float) -> int:
        """Minimum machines whose target capacity covers ``load`` txn/s."""
        if load <= 0:
            return 1
        return max(1, math.ceil(load / self.q))

    def intervals(self, seconds: float) -> int:
        """Convert a duration in seconds to planner intervals, rounding up."""
        return int(math.ceil(seconds / self.interval_seconds))


#: Parameters as measured in the paper's evaluation (Section 8.1).
PAPER_PARAMETERS = SystemParameters()
