"""Deterministic ring-buffer time-series store with rollup tiers.

Post-mortem telemetry answers "what happened"; an operator watching a
live fleet needs "what is happening *now* and how did the last hour
trend".  :class:`TimeSeriesStore` fills that gap: once per engine tick a
session calls :meth:`TimeSeriesStore.sample`, which reads every labelled
counter, gauge and histogram out of the :class:`MetricsRegistry` and
appends one point per series — counters and gauges by value, histograms
as ``name:p50`` / ``name:p99`` quantiles plus ``name:count``.

Three properties the serving stack depends on:

* **Deterministic.**  Sampling only *reads* the registry; it never
  touches the RNG, the tracer or the timeline, so a run with sampling
  enabled is bit-identical to one without (pinned by the traced-vs-
  untraced equivalence tests).  Points are keyed by the sim-time tick
  ``t`` that produced them, never a wall clock.
* **Bounded.**  Every tier is a fixed-capacity ring (``deque(maxlen)``);
  memory is ``O(series × tiers × capacity)`` no matter how long the run
  is.  A 48-hour soak holds the same footprint as a 10-minute smoke.
* **Tiered.**  Raw 1-tick samples roll up into coarser windows
  (default 1 → 10 → 100 ticks), each window keeping min/max/mean/last —
  enough to draw a spike without replaying the run.

The ``GET /timeseries`` API on :class:`~repro.serve.http.ServeApp` and
the ``repro top`` terminal view are thin readers over
:meth:`TimeSeriesStore.query`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry

#: Default rollup tiers, in ticks per window.  Tier 1 is the raw series.
DEFAULT_TIERS: Tuple[int, ...] = (1, 10, 100)

#: Default points retained per series per tier.
DEFAULT_CAPACITY = 720

#: Histogram quantiles sampled per tick, as ``name:p50``-style suffixes.
HISTOGRAM_QUANTILES: Tuple[Tuple[str, float], ...] = (("p50", 0.5), ("p99", 0.99))


class _Window:
    """Accumulator for one in-progress rollup window."""

    __slots__ = ("count", "vmin", "vmax", "vsum", "last", "t_start")

    def __init__(self) -> None:
        self.count = 0
        self.vmin = 0.0
        self.vmax = 0.0
        self.vsum = 0.0
        self.last = 0.0
        self.t_start = 0.0

    def add(self, t: float, value: float) -> None:
        if self.count == 0:
            self.t_start = t
            self.vmin = self.vmax = value
        else:
            if value < self.vmin:
                self.vmin = value
            if value > self.vmax:
                self.vmax = value
        self.vsum += value
        self.last = value
        self.count += 1


class _Series:
    """One named series: a ring buffer per rollup tier."""

    __slots__ = ("rings", "windows")

    def __init__(self, tiers: Sequence[int], capacity: int) -> None:
        self.rings: List[Deque[Dict[str, float]]] = [
            deque(maxlen=capacity) for _ in tiers
        ]
        self.windows: List[_Window] = [_Window() for _ in tiers]

    def add(self, tiers: Sequence[int], t: float, value: float) -> None:
        for tier_index, width in enumerate(tiers):
            window = self.windows[tier_index]
            window.add(t, value)
            if window.count >= width:
                self.rings[tier_index].append(
                    {
                        "t": window.t_start,
                        "min": window.vmin,
                        "max": window.vmax,
                        "mean": window.vsum / window.count,
                        "last": window.last,
                    }
                )
                self.windows[tier_index] = _Window()


class TimeSeriesStore:
    """Per-tick sampler over a :class:`MetricsRegistry` (see module doc)."""

    def __init__(
        self,
        tiers: Sequence[int] = DEFAULT_TIERS,
        capacity: int = DEFAULT_CAPACITY,
    ) -> None:
        widths = tuple(int(w) for w in tiers)
        if not widths or widths[0] != 1:
            raise ConfigurationError("time-series tiers must start at 1 tick")
        if any(b <= a for a, b in zip(widths, widths[1:])):
            raise ConfigurationError("time-series tiers must be strictly increasing")
        if capacity < 1:
            raise ConfigurationError("time-series capacity must be >= 1")
        self.tiers = widths
        self.capacity = int(capacity)
        self._series: Dict[str, _Series] = {}
        self.samples_taken = 0

    # ------------------------------------------------------------------
    def sample(self, metrics: MetricsRegistry, t: float) -> None:
        """Record one point per live metric at sim-time ``t``.

        Read-only over the registry: safe to call from the session tick
        loop without perturbing the engine.
        """
        now = float(t)
        for name, counter in metrics.counters().items():
            self._point(name, now, counter.value)
        for name, gauge in metrics.gauges().items():
            self._point(name, now, gauge.value)
        for name, histogram in metrics.histograms().items():
            for suffix, q in HISTOGRAM_QUANTILES:
                self._point(f"{name}:{suffix}", now, histogram.quantile(q))
            self._point(f"{name}:count", now, float(histogram.count))
        self.samples_taken += 1

    def _point(self, name: str, t: float, value: float) -> None:
        series = self._series.get(name)
        if series is None:
            series = self._series[name] = _Series(self.tiers, self.capacity)
        series.add(self.tiers, t, float(value))

    # ------------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self._series)

    def query(self, name: str, window: int = 1) -> List[Dict[str, float]]:
        """Completed windows for ``name`` at rollup tier ``window`` ticks.

        ``window`` must be one of the configured tiers; the raw tier is
        ``1``.  Unknown series return an empty list (a series appears on
        the first tick its metric exists, so "not yet" and "never" look
        the same to a poller).
        """
        if window not in self.tiers:
            raise ConfigurationError(
                f"window {window} is not a rollup tier; choose from {list(self.tiers)}"
            )
        series = self._series.get(name)
        if series is None:
            return []
        return list(series.rings[self.tiers.index(window)])

    def summary(self) -> Dict[str, object]:
        """Index payload for ``GET /timeseries`` with no ``name``."""
        return {
            "series": self.names(),
            "windows": list(self.tiers),
            "capacity": self.capacity,
            "samples": self.samples_taken,
        }

    def dump(self) -> Dict[str, object]:
        """Everything the store holds, JSON-safe (the smoke artifact)."""
        return {
            "format": "repro-timeseries/1",
            **self.summary(),
            "points": {
                name: {
                    str(width): list(series.rings[tier_index])
                    for tier_index, width in enumerate(self.tiers)
                }
                for name, series in sorted(self._series.items())
            },
        }
