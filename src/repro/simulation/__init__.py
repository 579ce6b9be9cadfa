"""Long-horizon capacity simulation (Section 8.3)."""

from repro.simulation.capacity_sim import (
    CapacitySimResult,
    CapacitySimulator,
)

__all__ = [
    "CapacitySimResult",
    "CapacitySimulator",
]
