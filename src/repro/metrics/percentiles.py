"""Empirical percentiles.

The engine's per-step latency records are analytic quantiles; this is
the exact empirical counterpart for measured samples.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


def empirical_percentile(values: Sequence[float], percentile: float) -> float:
    """Exact empirical percentile (linear interpolation)."""
    if not 0 <= percentile <= 100:
        raise ConfigurationError("percentile must be within [0, 100]")
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ConfigurationError("cannot take a percentile of no data")
    return float(np.percentile(arr, percentile))

