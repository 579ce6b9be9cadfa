"""Plain-text visualization helpers.

The reproduction runs in terminal-only environments, so examples and
reports render time series as ASCII: block-character sparklines,
dual-series (load vs capacity) strips and machine-count timelines.  No plotting
dependencies required.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError

#: Eight block characters from low to high.
_BLOCKS = "▁▂▃▄▅▆▇█"


def _as_array(values: Sequence[float]) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ConfigurationError("need a non-empty 1-D series")
    return arr


def _bucketize(values: np.ndarray, width: int) -> np.ndarray:
    """Downsample to ``width`` points by averaging equal chunks."""
    if values.size <= width:
        return values
    edges = np.linspace(0, values.size, width + 1).astype(int)
    return np.array(
        [values[a:b].mean() if b > a else values[a] for a, b in zip(edges, edges[1:])]
    )


def sparkline(
    values: Sequence[float],
    width: int = 72,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> str:
    """One-line block-character sparkline of a series.

    Args:
        values: The series.
        width: Maximum characters (longer series are averaged down).
        lo, hi: Optional fixed scale bounds (default: data min/max).
    """
    arr = _bucketize(_as_array(values), width)
    low = arr.min() if lo is None else lo
    high = arr.max() if hi is None else hi
    if high <= low:
        return _BLOCKS[0] * len(arr)
    scaled = np.clip((arr - low) / (high - low), 0.0, 1.0)
    indices = np.minimum((scaled * len(_BLOCKS)).astype(int), len(_BLOCKS) - 1)
    return "".join(_BLOCKS[i] for i in indices)


def load_vs_capacity_strip(
    load: Sequence[float],
    capacity: Sequence[float],
    width: int = 72,
) -> str:
    """Two aligned sparklines on one scale plus a violation marker row.

    The marker row puts ``!`` wherever the (bucketized) load exceeds the
    capacity — a textual Figure 13.
    """
    load_arr = _as_array(load)
    cap_arr = _as_array(capacity)
    if load_arr.size != cap_arr.size:
        raise ConfigurationError("load and capacity must align")
    lo = 0.0
    hi = float(max(load_arr.max(), cap_arr.max()))
    load_b = _bucketize(load_arr, width)
    cap_b = _bucketize(cap_arr, width)
    markers = "".join(
        "!" if l > c else " " for l, c in zip(load_b, cap_b)
    )
    return (
        f"capacity  {sparkline(cap_b, width, lo, hi)}\n"
        f"load      {sparkline(load_b, width, lo, hi)}\n"
        f"violation {markers}"
    )


def timeline(
    machines: Sequence[float],
    width: int = 72,
    symbol_per: int = 1,
) -> str:
    """Machine-count timeline rendered as digits (10 prints as ``X``)."""
    arr = _bucketize(_as_array(machines), width)
    chars = []
    for value in np.round(arr).astype(int):
        if value >= 10:
            chars.append("X")
        else:
            chars.append(str(max(value, 0)))
    return "".join(chars)
