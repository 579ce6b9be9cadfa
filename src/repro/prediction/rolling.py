"""Rolling (walk-forward) forecast evaluation.

Reproduces the evaluation protocol of Section 5: train on the first four
weeks, then walk forward through held-out data, at each slot issuing the
forecast that would have been made ``tau`` slots earlier, and score the
predictions against the actuals (Figures 5 and 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import PredictionError
from repro.prediction.base import Predictor, SeriesLike, as_series
from repro.prediction.metrics import mean_relative_error_pct
from repro.prediction.spar import SPARPredictor


@dataclass
class RollingForecast:
    """Walk-forward evaluation result for one model at one horizon."""

    tau: int
    target_indices: np.ndarray
    actual: np.ndarray
    predicted: np.ndarray

    @property
    def mre_pct(self) -> float:
        return mean_relative_error_pct(self.actual, self.predicted)

    def __len__(self) -> int:
        return len(self.actual)


def rolling_forecast(
    predictor: Predictor,
    series: SeriesLike,
    tau: int,
    *,
    eval_start: Optional[int] = None,
    step: int = 1,
) -> RollingForecast:
    """Walk forward through ``series``, forecasting ``tau`` slots ahead.

    Args:
        predictor: A fitted predictor.
        series: The full series (training prefix + held-out suffix); the
            predictor sees only the prefix up to each forecast origin.
        tau: Forecast distance in slots.
        eval_start: First *target* index to evaluate; defaults to the
            earliest slot the predictor can forecast.
        step: Evaluate every ``step``-th slot (for cheap coarse sweeps).

    Returns:
        A :class:`RollingForecast` holding targets, actuals and forecasts.
    """
    arr = as_series(series)
    if tau < 1:
        raise PredictionError("tau must be >= 1")

    # Fast path: SPAR exposes a vectorized rolling forecast.
    if isinstance(predictor, SPARPredictor) and step == 1:
        indices, predictions = predictor.batch_predict(arr, tau)
        if eval_start is not None:
            mask = indices >= eval_start
            indices, predictions = indices[mask], predictions[mask]
        if len(indices) == 0:
            raise PredictionError("no evaluable slots in series")
        return RollingForecast(tau, indices, arr[indices], predictions)

    first_target = max(
        (eval_start if eval_start is not None else 0),
        predictor.min_history + tau - 1,
    )
    targets: List[int] = list(range(first_target, len(arr), step))
    if not targets:
        raise PredictionError("no evaluable slots in series")
    predictions = np.empty(len(targets))
    for i, target in enumerate(targets):
        origin = target - tau
        forecast = predictor.predict(arr[: origin + 1], tau)
        predictions[i] = forecast[tau - 1]
    idx = np.array(targets)
    return RollingForecast(tau, idx, arr[idx], predictions)
