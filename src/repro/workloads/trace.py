"""Load traces: time series of aggregate request rates.

A :class:`LoadTrace` is the unit of currency between the workload
generators, the predictors and the simulators.  Values are request counts
per *slot*; slots have a fixed duration (1 minute for the B2W traces,
1 hour for Wikipedia, 5 minutes for the long-horizon simulations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from repro.errors import ConfigurationError

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0


@dataclass
class LoadTrace:
    """A time series of load measurements.

    Attributes:
        values: Request count per slot (numpy float array).
        slot_seconds: Duration of one slot in seconds.
        name: Human-readable label for plots and reports.
        start_slot: Absolute index of the first slot (lets slices keep
            their position inside a longer trace, e.g. for time-of-day
            math).
        peak_values: Optional per-slot *instantaneous peak* counts
            (same unit as ``values``): the highest within-slot request
            rate, expressed as a count over the slot.  Measurements and
            predictions see ``values``; capacity checks may use the
            peaks — this models the paper's observation that even a
            perfect 5-minute-granularity predictor misses sub-slot
            spikes (Section 8.3).
    """

    values: np.ndarray
    slot_seconds: float = SECONDS_PER_MINUTE
    name: str = "trace"
    start_slot: int = 0
    peak_values: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ConfigurationError("trace values must be one-dimensional")
        if self.slot_seconds <= 0:
            raise ConfigurationError("slot_seconds must be positive")
        if np.any(self.values < 0):
            raise ConfigurationError("load values must be non-negative")
        if self.peak_values is not None:
            self.peak_values = np.asarray(self.peak_values, dtype=np.float64)
            if self.peak_values.shape != self.values.shape:
                raise ConfigurationError("peak_values must align with values")
            if np.any(self.peak_values + 1e-9 < self.values):
                raise ConfigurationError("peak_values must be >= values")

    # ------------------------------------------------------------------
    # Basic container behaviour
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index: Union[int, slice]) -> Union[float, "LoadTrace"]:
        if isinstance(index, slice):
            start, _, step = index.indices(len(self.values))
            if step != 1:
                raise ConfigurationError("trace slices must have step 1")
            peaks = self.peak_values[index] if self.peak_values is not None else None
            return LoadTrace(
                self.values[index],
                self.slot_seconds,
                self.name,
                self.start_slot + start,
                peaks,
            )
        return float(self.values[index])

    # ------------------------------------------------------------------
    # Time math
    # ------------------------------------------------------------------
    @property
    def duration_seconds(self) -> float:
        return len(self.values) * self.slot_seconds

    @property
    def duration_days(self) -> float:
        return self.duration_seconds / SECONDS_PER_DAY

    @property
    def slots_per_day(self) -> int:
        per_day = SECONDS_PER_DAY / self.slot_seconds
        if abs(per_day - round(per_day)) > 1e-9:
            raise ConfigurationError(
                f"slot_seconds={self.slot_seconds} does not divide a day"
            )
        return int(round(per_day))

    # ------------------------------------------------------------------
    # Rate conversions
    # ------------------------------------------------------------------
    def per_second(self) -> np.ndarray:
        """Request rate per second for each slot."""
        return self.values / self.slot_seconds

    def peak_per_second(self) -> np.ndarray:
        """Instantaneous peak rate per slot (falls back to the average)."""
        peaks = self.peak_values if self.peak_values is not None else self.values
        return peaks / self.slot_seconds

    def scaled(self, factor: float, name: Optional[str] = None) -> "LoadTrace":
        """Multiply all values by ``factor`` (e.g. the paper's 10x replay
        speedup is a time compression, modelled here as a rate scale when
        the slot length is kept fixed)."""
        if factor < 0:
            raise ConfigurationError("factor must be non-negative")
        peaks = self.peak_values * factor if self.peak_values is not None else None
        return LoadTrace(
            self.values * factor,
            self.slot_seconds,
            name or self.name,
            self.start_slot,
            peaks,
        )

    def time_compressed(self, speedup: int, name: Optional[str] = None) -> "LoadTrace":
        """Replay the trace ``speedup`` times faster (Section 7).

        Slot durations shrink by ``speedup`` while per-slot counts stay
        the same (the same transactions replayed in less wall-clock
        time), so the instantaneous *rate* is multiplied by ``speedup``
        — exactly what replaying a day in 2.4 hours does.
        """
        if speedup < 1:
            raise ConfigurationError("speedup must be >= 1")
        return LoadTrace(
            self.values.copy(),
            self.slot_seconds / speedup,
            name or f"{self.name} (x{speedup})",
            self.start_slot,
            self.peak_values.copy() if self.peak_values is not None else None,
        )

    def resample(self, new_slot_seconds: float) -> "LoadTrace":
        """Aggregate or split slots to a new slot duration.

        Coarsening sums whole groups of slots (tail remainder dropped);
        refining splits each slot evenly.
        """
        if new_slot_seconds <= 0:
            raise ConfigurationError("new_slot_seconds must be positive")
        ratio = new_slot_seconds / self.slot_seconds
        if abs(ratio - round(ratio)) < 1e-9 and round(ratio) >= 1:
            group = int(round(ratio))
            usable = (len(self.values) // group) * group
            values = self.values[:usable].reshape(-1, group).sum(axis=1)
            peaks = None
            if self.peak_values is not None:
                # Peak rate of the group is the max member peak rate.
                member_peaks = self.peak_values[:usable].reshape(-1, group)
                peaks = member_peaks.max(axis=1) * group
                peaks = np.maximum(peaks, values)
            return LoadTrace(values, new_slot_seconds, self.name, 0, peaks)
        inv = self.slot_seconds / new_slot_seconds
        if abs(inv - round(inv)) < 1e-9 and round(inv) >= 1:
            split = int(round(inv))
            values = np.repeat(self.values / split, split)
            peaks = (
                np.repeat(self.peak_values / split, split)
                if self.peak_values is not None
                else None
            )
            return LoadTrace(values, new_slot_seconds, self.name, 0, peaks)
        raise ConfigurationError(
            f"cannot resample {self.slot_seconds}s slots to {new_slot_seconds}s: "
            "durations must divide evenly"
        )

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def peak(self) -> float:
        return float(self.values.max())

    def trough(self) -> float:
        return float(self.values.min())

    def mean(self) -> float:
        return float(self.values.mean())

    def peak_to_trough(self) -> float:
        """Ratio of peak to trough load (the paper reports ~10x for B2W)."""
        trough = self.trough()
        if trough <= 0:
            return math.inf
        return self.peak() / trough

    def daily_peak_to_trough(self) -> float:
        """Median of the per-day peak/trough ratios.

        Uses robust (98th/2nd percentile) extremes so single noisy slots
        do not dominate — matching how one reads "peak is about 10x the
        trough" off the paper's Figure 1.
        """
        per_day = self.slots_per_day
        days = len(self.values) // per_day
        if days == 0:
            return self.peak_to_trough()
        ratios = []
        for day in range(days):
            chunk = self.values[day * per_day : (day + 1) * per_day]
            peak = np.percentile(chunk, 98)
            trough = np.percentile(chunk, 2)
            ratios.append(math.inf if trough <= 0 else peak / trough)
        return float(np.median(ratios))
