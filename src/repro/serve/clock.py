"""Clocks for the serving layer: virtual (deterministic) and wall.

The serving loop is written against a tiny scheduling interface —
``now``, ``call_at`` and ``run_until`` — instead of
``asyncio`` directly, so the same engine/loadgen/control code runs in
two modes:

* :class:`VirtualClock`: a heap-ordered discrete-event loop.  Time jumps
  from event to event with **zero real sleeps**, ties break by insertion
  order, and a seeded run is bit-for-bit reproducible.  This is what the
  unit tests, the CI smoke and ``repro serve --clock virtual`` use.
* Wall-clock mode lives in :mod:`repro.serve.http`, which paces the same
  virtual-clock session one tick per real ``dt / speedup`` seconds.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, List, Tuple

from repro.errors import ConfigurationError


class VirtualClock:
    """Deterministic discrete-event scheduler.

    Events fire in ``(time, insertion order)`` order; callbacks may
    schedule further events (the tick loop reschedules itself this way).
    ``run_until`` never sleeps — it is a plain loop over a heap, so a
    simulated day costs only the callbacks it runs.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._seq = 0
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        # Latest time the running run_until() still fires events at.
        self._horizon = math.inf

    @property
    def now(self) -> float:
        return self._now

    def quiet_until(self) -> float:
        """Exclusive end of the stretch only the running callback owns.

        Every event the callback could schedule at a time strictly
        before the returned one would fire, in time order, ahead of
        everything else on the heap and inside the current
        :meth:`run_until` — so a callback that chains such events (the
        load generator's arrivals) may act on the whole stretch at once.
        An event *at* the returned time would fire after the heap's.
        """
        beyond_horizon = math.nextafter(self._horizon, math.inf)
        if self._heap and self._heap[0][0] < beyond_horizon:
            return self._heap[0][0]
        return beyond_horizon

    def advance(self, when: float) -> None:
        """Move ``now`` forward to ``when`` (never backwards), as firing
        an event scheduled at ``when`` would."""
        if when > self._now:
            self._now = when

    @property
    def pending(self) -> int:
        return len(self._heap)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self._now - 1e-9:
            raise ConfigurationError(
                f"cannot schedule event at {when:.3f}s, now is {self._now:.3f}s"
            )
        self._seq += 1
        heapq.heappush(self._heap, (float(when), self._seq, callback))

    def run_until(self, deadline: float) -> int:
        """Run every event due at or before ``deadline``; returns the
        number of events fired.  The clock ends exactly at ``deadline``
        even if the heap drains early."""
        fired = 0
        self._horizon = deadline + 1e-9
        try:
            while self._heap and self._heap[0][0] <= self._horizon:
                when, _, callback = heapq.heappop(self._heap)
                if when > self._now:
                    self._now = when
                callback()
                fired += 1
        finally:
            self._horizon = math.inf
        if deadline > self._now:
            self._now = deadline
        return fired

    def run(self) -> int:
        """Drain the heap completely (callbacks may keep it alive)."""
        fired = 0
        while self._heap:
            when, _, callback = heapq.heappop(self._heap)
            if when > self._now:
                self._now = when
            callback()
            fired += 1
        return fired
