"""System monitoring: aggregate load measurement (Section 6).

P-Store "uses H-Store's system calls to obtain measurements of the
aggregate load of the system".  The :class:`LoadMonitor` accumulates the
simulator's served transactions into fixed-length slots, producing the
online history the Predictor consumes.  Training history (from the
analytic store, Section 7) can be seeded in front of the live
measurements.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError


class LoadMonitor:
    """Accumulates load measurements into fixed slots.

    Args:
        slot_seconds: Length of one measurement slot (the prediction
            granularity — 1 minute in Section 5, 5 minutes in Section 8.3).
        seed_history: Optional per-slot counts preceding the live window
            (e.g. four weeks of training data).
    """

    def __init__(
        self, slot_seconds: float, seed_history: Optional[Sequence[float]] = None
    ) -> None:
        if slot_seconds <= 0:
            raise ConfigurationError("slot_seconds must be positive")
        self.slot_seconds = slot_seconds
        self._closed: List[float] = list(map(float, seed_history or []))
        self._seed_len = len(self._closed)
        self._current = 0.0
        self._current_elapsed = 0.0

    # ------------------------------------------------------------------
    def record(self, count: float, dt: float) -> int:
        """Add ``count`` transactions observed over ``dt`` seconds.

        Returns the number of slots closed by this call (0 most of the
        time; >= 1 whenever a slot boundary passes).
        """
        if dt < 0 or count < 0:
            raise ConfigurationError("count and dt must be non-negative")
        closed = 0
        remaining_dt = dt
        rate = count / dt if dt > 0 else 0.0
        while remaining_dt > 0:
            room = self.slot_seconds - self._current_elapsed
            take = min(room, remaining_dt)
            self._current += rate * take
            self._current_elapsed += take
            remaining_dt -= take
            if self._current_elapsed >= self.slot_seconds - 1e-9:
                self._closed.append(self._current)
                self._current = 0.0
                self._current_elapsed = 0.0
                closed += 1
        return closed

    # ------------------------------------------------------------------
    def history(self) -> np.ndarray:
        """All closed slots (seed + live), oldest first."""
        return np.asarray(self._closed, dtype=np.float64)

    def last(self, n: int) -> np.ndarray:
        return self.history()[-n:]
