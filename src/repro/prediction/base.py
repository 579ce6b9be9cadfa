"""Predictor interface shared by all load forecasting models.

The contract (Section 5 and 6 of the paper): a predictor is trained
offline on historical load, then queried online with the measured history
so far, returning a time series of predicted load for the next ``horizon``
slots.  The Predictive Controller feeds these predictions to the planner.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence, Union

import numpy as np

from repro.errors import PredictionError
from repro.workloads.trace import LoadTrace

SeriesLike = Union[Sequence[float], np.ndarray, LoadTrace]


def as_series(data: SeriesLike) -> np.ndarray:
    """Normalize LoadTrace / sequence input to a 1-D float array."""
    if isinstance(data, LoadTrace):
        return data.values
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 1:
        raise PredictionError("series must be one-dimensional")
    return arr


class Predictor(ABC):
    """Base class for load predictors.

    Subclasses must implement :meth:`fit` and :meth:`predict`.  ``fit``
    learns model parameters from a training series; ``predict`` takes the
    *observed history* (a series starting at slot 0 and ending "now") and
    returns predicted load for slots ``now+1 .. now+horizon``.
    """

    #: Minimum history length `predict` requires; subclasses override.
    min_history: int = 1
    #: Largest supported forecast horizon (0 = unbounded).
    max_horizon: int = 0

    @property
    def min_training_length(self) -> int:
        """Smallest series :meth:`fit` accepts (defaults to min_history).

        Models that build regression designs (SPAR, AR, ARMA) need more
        than the bare prediction history; they override this so callers
        like :class:`~repro.prediction.online.OnlinePredictor` know when
        enough data has accumulated for a first fit.
        """
        return self.min_history

    def can_forecast(self, history_length: int) -> bool:
        """True when :meth:`predict` can forecast from a history of this
        many slots (models with a fixed lookback: ``min_history``)."""
        return history_length >= self.min_history

    @abstractmethod
    def fit(self, training: SeriesLike) -> "Predictor":
        """Learn model parameters from a training series; returns self."""

    @abstractmethod
    def predict(self, history: SeriesLike, horizon: int) -> np.ndarray:
        """Forecast the next ``horizon`` slots given the observed history."""

    # ------------------------------------------------------------------
    def _check_predict_args(self, history: np.ndarray, horizon: int) -> None:
        if horizon < 1:
            raise PredictionError(f"horizon must be >= 1, got {horizon}")
        if self.max_horizon and horizon > self.max_horizon:
            raise PredictionError(
                f"horizon {horizon} exceeds model maximum {self.max_horizon}"
            )
        if len(history) < self.min_history:
            raise PredictionError(
                f"{type(self).__name__} needs at least {self.min_history} "
                f"history slots, got {len(history)}"
            )
