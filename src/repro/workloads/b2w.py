"""Synthetic B2W-like retail load traces (substitute for the proprietary logs).

The paper evaluates P-Store on several months of transaction logs from
B2W Digital.  Those logs are proprietary, so this module synthesizes traces
with the statistical structure the paper describes and plots:

* a strong diurnal pattern — load "essentially following a sine wave",
  peaking in the afternoon/evening and dipping at night (Figure 1);
* peak roughly **10x** the trough;
* peak load around 2.3e4 requests/minute;
* weekly seasonality and day-to-day variability (seasonality of demand,
  advertising campaigns) — the structure SPAR's periodic terms capture;
* occasional promotion spikes, and a large **Black Friday** surge in late
  November (Section 8.3, Figure 13);
* short-term autocorrelated noise, which SPAR's recent-offset terms capture.

All generators are deterministic given a seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.workloads.trace import SECONDS_PER_DAY, LoadTrace

#: Approximate peak load of the paper's B2W database (requests/minute).
B2W_PEAK_PER_MINUTE = 23000.0
#: Peak-to-trough ratio reported in the paper ("about 10x").
B2W_PEAK_TO_TROUGH = 10.0
#: Weekday demand multipliers, Monday..Sunday.
WEEKDAY_FACTORS = (1.00, 1.02, 1.03, 1.04, 1.08, 0.90, 0.84)


@dataclass(frozen=True)
class B2WTraceConfig:
    """Parameters of the synthetic B2W trace generator."""

    num_days: int = 3
    slot_seconds: float = 60.0
    seed: int = 20160701
    peak_per_minute: float = B2W_PEAK_PER_MINUTE
    peak_to_trough: float = B2W_PEAK_TO_TROUGH
    start_weekday: int = 4  # the paper's 3-day window "happened to fall in July"
    promotion_probability: float = 0.06
    promotion_boost: float = 1.5
    # Short-term noise: persistent (AR-1) multiplicative wander.  The
    # stationary std and mixing rate are calibrated so SPAR's mean
    # relative error lands near the paper's Figure 5b curve (~6% at a
    # 10-minute horizon rising to ~10% at 60 minutes).
    noise_sigma: float = 0.09
    noise_rho: float = 0.97
    day_level_sigma: float = 0.06
    black_friday_day: Optional[int] = None
    black_friday_factor: float = 2.3
    # Sub-slot microbursts: even a perfect slot-granularity predictor
    # misses these instantaneous spikes (Section 8.3's explanation of why
    # the oracle's violation rate is non-zero).
    burst_probability: float = 0.02
    burst_max_factor: float = 1.5
    burst_base_sigma: float = 0.03

    def __post_init__(self) -> None:
        if self.num_days < 1:
            raise ConfigurationError("num_days must be >= 1")
        if self.peak_to_trough <= 1:
            raise ConfigurationError("peak_to_trough must exceed 1")
        if not 0 <= self.start_weekday < 7:
            raise ConfigurationError("start_weekday must be in [0, 7)")


def _daily_shape(hours: np.ndarray) -> np.ndarray:
    """Smooth diurnal profile in [0, 1]: trough ~04:30, afternoon peak and
    a secondary evening shoulder, as in Figure 1."""
    main = np.exp(1.7 * np.cos(2.0 * math.pi * (hours - 15.0) / 24.0))
    evening = 0.55 * np.exp(2.6 * np.cos(2.0 * math.pi * (hours - 21.0) / 24.0))
    shape = main + evening
    shape = shape - shape.min()
    return shape / shape.max()


def generate_b2w_trace(
    num_days: int = 3,
    *,
    slot_seconds: float = 60.0,
    seed: int = 20160701,
    config: Optional[B2WTraceConfig] = None,
    name: str = "b2w",
) -> LoadTrace:
    """Generate a synthetic B2W-like load trace.

    Args:
        num_days: Number of days of load to generate.
        slot_seconds: Slot duration (1 minute by default, like Figure 1).
        seed: RNG seed; identical inputs give identical traces.
        config: Full configuration; overrides the scalar arguments.
        name: Trace label.

    Returns:
        A :class:`LoadTrace` of requests per slot.
    """
    cfg = config or B2WTraceConfig(
        num_days=num_days, slot_seconds=slot_seconds, seed=seed
    )
    rng = np.random.default_rng(cfg.seed)
    slots_per_day = int(round(SECONDS_PER_DAY / cfg.slot_seconds))
    total_slots = cfg.num_days * slots_per_day

    hours = (np.arange(total_slots) % slots_per_day) * (cfg.slot_seconds / 3600.0)
    shape = _daily_shape(hours)

    trough = cfg.peak_per_minute / cfg.peak_to_trough
    base = trough + (cfg.peak_per_minute - trough) * shape

    # Weekly seasonality.
    day_index = np.arange(total_slots) // slots_per_day
    weekday = (day_index + cfg.start_weekday) % 7
    base = base * np.take(np.array(WEEKDAY_FACTORS), weekday)

    # Slowly-varying day level (demand seasonality / campaigns): an AR(1)
    # random walk across days in log space.
    day_levels = np.empty(cfg.num_days)
    level = 0.0
    for day in range(cfg.num_days):
        level = 0.85 * level + rng.normal(0.0, cfg.day_level_sigma)
        day_levels[day] = math.exp(level)
    base = base * day_levels[day_index]

    # Promotion spikes: occasional multi-hour boosts.
    boost = np.ones(total_slots)
    for day in range(cfg.num_days):
        if cfg.black_friday_day is not None and day == cfg.black_friday_day:
            continue
        if rng.random() < cfg.promotion_probability:
            start_hour = rng.uniform(8.0, 20.0)
            duration_hours = rng.uniform(1.0, 3.0)
            factor = rng.uniform(1.2, cfg.promotion_boost)
            _apply_bump(
                boost, day, start_hour, duration_hours, factor, slots_per_day,
                cfg.slot_seconds,
            )

    # Black Friday: a broad surge across the whole day, strongest at peak
    # shopping hours, with elevated neighbours.
    if cfg.black_friday_day is not None:
        bf = cfg.black_friday_day
        if not 0 <= bf < cfg.num_days:
            raise ConfigurationError("black_friday_day outside trace")
        _apply_bump(boost, bf, 0.0, 24.0, 1.5, slots_per_day, cfg.slot_seconds)
        _apply_bump(boost, bf, 9.0, 13.0, cfg.black_friday_factor / 1.5,
                    slots_per_day, cfg.slot_seconds)
        if bf + 1 < cfg.num_days:
            _apply_bump(boost, bf + 1, 0.0, 24.0, 1.25, slots_per_day,
                        cfg.slot_seconds)
        if bf - 1 >= 0:
            _apply_bump(boost, bf - 1, 12.0, 12.0, 1.2, slots_per_day,
                        cfg.slot_seconds)
    base = base * boost

    # Short-term autocorrelated multiplicative noise (AR(1) in log space).
    noise = np.empty(total_slots)
    state = 0.0
    innovations = rng.normal(0.0, cfg.noise_sigma, total_slots)
    scale = math.sqrt(1.0 - cfg.noise_rho**2)
    for i in range(total_slots):
        state = cfg.noise_rho * state + scale * innovations[i]
        noise[i] = state
    values = base * np.exp(noise)

    # Counting noise: the per-slot request count is itself noisy.
    values = values + rng.normal(0.0, np.sqrt(np.maximum(values, 1.0)))
    values = np.maximum(values, 0.0)

    # Sub-slot microbursts: per-slot instantaneous peak factors.
    burst = np.exp(np.abs(rng.normal(0.0, cfg.burst_base_sigma, total_slots)))
    big = rng.random(total_slots) < cfg.burst_probability
    burst[big] *= rng.uniform(1.1, cfg.burst_max_factor, int(big.sum()))
    peaks = values * burst

    # Convert from per-minute to per-slot counts.
    values = values * (cfg.slot_seconds / 60.0)
    peaks = peaks * (cfg.slot_seconds / 60.0)
    return LoadTrace(values, cfg.slot_seconds, name, peak_values=peaks)


def _apply_bump(
    boost: np.ndarray,
    day: int,
    start_hour: float,
    duration_hours: float,
    factor: float,
    slots_per_day: int,
    slot_seconds: float,
) -> None:
    """Multiply ``boost`` by a smooth raised-cosine bump on one day."""
    slots_per_hour = 3600.0 / slot_seconds
    start = int(day * slots_per_day + start_hour * slots_per_hour)
    length = max(1, int(duration_hours * slots_per_hour))
    end = min(start + length, len(boost))
    if start >= len(boost):
        return
    ramp = 0.5 - 0.5 * np.cos(
        2.0 * math.pi * np.arange(end - start) / max(end - start, 1)
    )
    boost[start:end] *= 1.0 + (factor - 1.0) * ramp


def generate_b2w_long_trace(
    num_days: int = 137,
    *,
    slot_seconds: float = 300.0,
    seed: int = 20160801,
    black_friday_day: int = 116,
    name: str = "b2w-aug-dec",
) -> LoadTrace:
    """The 4.5-month trace of Section 8.3 (August to mid-December 2016).

    Includes Black Friday (day ``black_friday_day``, ~Nov 25 when day 0 is
    Aug 1) plus the generator's regular promotion spikes, at the 5-minute
    prediction granularity the simulations use.
    """
    cfg = B2WTraceConfig(
        num_days=num_days,
        slot_seconds=slot_seconds,
        seed=seed,
        start_weekday=0,  # Aug 1 2016 was a Monday
        black_friday_day=black_friday_day,
        promotion_probability=0.05,
    )
    return generate_b2w_trace(config=cfg, name=name)
