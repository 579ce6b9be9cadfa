"""Forecast-accuracy metrics (Section 5 uses mean relative error)."""

from __future__ import annotations

import numpy as np

from repro.errors import PredictionError
from repro.prediction.base import SeriesLike, as_series


def _aligned(actual: SeriesLike, predicted: SeriesLike) -> "tuple[np.ndarray, np.ndarray]":
    a = as_series(actual)
    p = as_series(predicted)
    if len(a) != len(p):
        raise PredictionError(
            f"actual ({len(a)}) and predicted ({len(p)}) lengths differ"
        )
    if len(a) == 0:
        raise PredictionError("cannot score an empty forecast")
    return a, p


def mean_relative_error(actual: SeriesLike, predicted: SeriesLike) -> float:
    """MRE: mean of |prediction - actual| / actual, as a fraction.

    Slots with (near-)zero actual load are excluded rather than allowed to
    blow the metric up.
    """
    a, p = _aligned(actual, predicted)
    mask = a > 1e-9
    if not mask.any():
        raise PredictionError("all actual values are zero; MRE undefined")
    return float(np.mean(np.abs(p[mask] - a[mask]) / a[mask]))


def mean_relative_error_pct(actual: SeriesLike, predicted: SeriesLike) -> float:
    """MRE as a percentage (the unit Figures 5b and 6b report)."""
    return 100.0 * mean_relative_error(actual, predicted)
