"""Forecasts issued in advance, answered by lookup.

A capacity simulation knows its whole series up front, so the forecast
SPAR would issue at every origin can be computed in one vectorised
:meth:`~repro.prediction.spar.SPARPredictor.batch_predict` pass per
horizon step instead of one :meth:`predict` call per interval.  Each
design row reads only values at or before its origin, so the table holds
exactly the online forecasts.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PredictionError
from repro.prediction.base import Predictor, SeriesLike, as_series
from repro.prediction.spar import SPARPredictor


class ForecastTable(Predictor):
    """A predictor answering :meth:`predict` from precomputed rows.

    ``rows[i, tau - 1]`` is the forecast of slot ``i + tau`` issued at
    origin ``i``, i.e. from a history of ``i + 1`` slots.  An origin whose
    row has a gap (too close to either end of the series) cannot forecast;
    wrapped in :class:`~repro.prediction.online.OnlinePredictor`, the
    table then reports itself not fitted and the control loop takes its
    reactive path.
    """

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = np.asarray(rows, dtype=np.float64)
        self._complete = ~np.isnan(self.rows).any(axis=1)
        self.max_horizon = self.rows.shape[1]

    @classmethod
    def from_spar(
        cls, model: SPARPredictor, series: SeriesLike, horizon: int
    ) -> "ForecastTable":
        """Every origin's ``horizon``-step forecast of a fitted SPAR model
        over ``series`` (training history followed by the evaluation)."""
        series = as_series(series)
        rows = np.full((len(series), horizon), np.nan)
        for tau in range(1, horizon + 1):
            targets, predictions = model.batch_predict(series, tau)
            rows[targets - tau, tau - 1] = predictions
        return cls(rows)

    def can_forecast(self, history_length: int) -> bool:
        return 0 < history_length <= len(self.rows) and bool(
            self._complete[history_length - 1]
        )

    def fit(self, training: SeriesLike) -> "ForecastTable":
        """No-op: the forecasts were issued in advance."""
        return self

    def predict(self, history: SeriesLike, horizon: int) -> np.ndarray:
        length = len(history)
        self._check_predict_args(history, horizon)
        if not self.can_forecast(length):
            raise PredictionError(f"no forecast issued from a {length}-slot history")
        return self.rows[length - 1, :horizon].copy()
