"""Tests for the walk-forward forecast evaluator."""

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction.naive import SeasonalNaivePredictor
from repro.prediction.rolling import rolling_forecast
from repro.prediction.spar import SPARPredictor


def periodic_series(period: int, days: int) -> np.ndarray:
    profile = 50.0 + 20.0 * np.cos(2 * np.pi * np.arange(period) / period)
    return np.tile(profile, days)


class TestRollingForecast:
    def test_alignment(self):
        period = 24
        series = periodic_series(period, 10)
        model = SeasonalNaivePredictor(period=period)
        result = rolling_forecast(model, series, tau=3, eval_start=5 * period)
        assert result.target_indices[0] == 5 * period
        assert result.target_indices[-1] == len(series) - 1
        assert np.allclose(result.actual, series[result.target_indices])

    def test_seasonal_naive_is_exact_on_periodic_data(self):
        period = 24
        series = periodic_series(period, 10)
        model = SeasonalNaivePredictor(period=period)
        result = rolling_forecast(model, series, tau=2, eval_start=3 * period)
        assert result.mre_pct == pytest.approx(0.0, abs=1e-9)

    def test_step_subsampling(self):
        period = 24
        series = periodic_series(period, 10)
        model = SeasonalNaivePredictor(period=period)
        full = rolling_forecast(model, series, tau=1, eval_start=5 * period)
        strided = rolling_forecast(model, series, tau=1, eval_start=5 * period, step=4)
        assert len(strided) == (len(full) + 3) // 4

    def test_spar_fast_path_matches_slow_path(self):
        period = 48
        series = periodic_series(period, 20)
        rng = np.random.default_rng(0)
        series = series * rng.uniform(0.95, 1.05, len(series))
        model = SPARPredictor(period=period, n_periods=3, n_recent=4, max_horizon=4)
        model.fit(series[: 15 * period])
        fast = rolling_forecast(model, series, tau=2, eval_start=16 * period)
        # Force the generic path by wrapping predict in a shim object.
        class Shim:
            min_history = model.min_history
            max_horizon = model.max_horizon

            def predict(self, history, horizon):
                return model.predict(history, horizon)

        slow = rolling_forecast(Shim(), series, tau=2, eval_start=16 * period)
        assert np.allclose(fast.predicted, slow.predicted, rtol=1e-9)
        assert np.array_equal(fast.target_indices, slow.target_indices)

    def test_rejects_bad_tau(self):
        with pytest.raises(PredictionError):
            rolling_forecast(SeasonalNaivePredictor(24), np.ones(100), tau=0)

    def test_no_evaluable_slots(self):
        model = SeasonalNaivePredictor(period=24)
        with pytest.raises(PredictionError):
            rolling_forecast(model, np.ones(100), tau=1, eval_start=200)
