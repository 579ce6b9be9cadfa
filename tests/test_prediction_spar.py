"""Tests for the SPAR predictor (Equation 8)."""

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction.spar import SPARPredictor
from repro.prediction.table import ForecastTable
from repro.workloads.b2w import generate_b2w_trace


def pure_periodic_series(period: int, days: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    profile = 100.0 + 50.0 * np.sin(2 * np.pi * np.arange(period) / period)
    return np.tile(profile, days)


class TestFit:
    def test_recovers_pure_periodic_signal(self):
        period = 48
        series = pure_periodic_series(period, days=14)
        model = SPARPredictor(period=period, n_periods=3, n_recent=4, max_horizon=8)
        model.fit(series)
        history = series[: 10 * period]
        prediction = model.predict(history, 8)
        truth = series[10 * period : 10 * period + 8]
        assert np.allclose(prediction, truth, rtol=1e-6)

    def test_periodic_coefficients_sum_near_one(self):
        period = 48
        series = pure_periodic_series(period, days=14)
        model = SPARPredictor(period=period, n_periods=3, n_recent=4, max_horizon=4)
        model.fit(series)
        coef = model.coefficients(1)
        assert coef[:3].sum() == pytest.approx(1.0, abs=1e-3)

    def test_tracks_recent_offsets(self):
        # A sustained offset in the recent past should shift predictions.
        period = 48
        series = pure_periodic_series(period, days=14, seed=1)
        model = SPARPredictor(period=period, n_periods=3, n_recent=6, max_horizon=2)
        # Train on data where offsets persist (AR structure).
        rng = np.random.default_rng(2)
        noise = np.cumsum(rng.normal(0, 1.0, len(series)))
        noise -= np.linspace(0, noise[-1], len(noise))
        model.fit(series + 5.0 * np.sin(noise / 20.0))
        history = series[: 10 * period].copy()
        baseline = model.predict(history, 1)[0]
        history_offset = history.copy()
        history_offset[-6:] += 30.0
        shifted = model.predict(history_offset, 1)[0]
        assert shifted > baseline

    def test_rejects_short_training(self):
        model = SPARPredictor(period=48, n_periods=3, n_recent=4, max_horizon=4)
        with pytest.raises(PredictionError):
            model.fit(np.ones(100))

    def test_rejects_bad_construction(self):
        with pytest.raises(PredictionError):
            SPARPredictor(period=1)
        with pytest.raises(PredictionError):
            SPARPredictor(period=48, n_periods=0)
        with pytest.raises(PredictionError):
            SPARPredictor(period=48, max_horizon=0)
        with pytest.raises(PredictionError):
            SPARPredictor(period=48, max_horizon=49)


class TestPredict:
    @pytest.fixture
    def fitted(self):
        trace = generate_b2w_trace(12, seed=77)
        model = SPARPredictor(period=1440, n_periods=3, n_recent=10, max_horizon=30)
        model.fit(trace.values[: 8 * 1440])
        return model, trace

    def test_predict_before_fit_raises(self):
        model = SPARPredictor(period=48, n_periods=2, n_recent=2, max_horizon=4)
        with pytest.raises(PredictionError):
            model.predict(np.ones(2000), 2)

    def test_rejects_horizon_beyond_fit(self, fitted):
        model, trace = fitted
        with pytest.raises(PredictionError):
            model.predict(trace.values[: 9 * 1440], 31)

    def test_rejects_short_history(self, fitted):
        model, _ = fitted
        with pytest.raises(PredictionError):
            model.predict(np.ones(100), 1)

    def test_predictions_non_negative_and_sane(self, fitted):
        model, trace = fitted
        history = trace.values[: 9 * 1440]
        prediction = model.predict(history, 30)
        assert prediction.shape == (30,)
        assert np.all(prediction >= 0)
        actual = trace.values[9 * 1440 : 9 * 1440 + 30]
        assert np.abs(prediction - actual).mean() / actual.mean() < 0.3

    def test_batch_predict_matches_online_predict(self, fitted):
        """batch_predict must equal per-origin predict() exactly."""
        model, trace = fitted
        tau = 15
        targets, batch = model.batch_predict(trace.values, tau)
        for check in (0, len(targets) // 2, len(targets) - 1):
            u = targets[check]
            online = model.predict(trace.values[: u - tau + 1], tau)[tau - 1]
            assert batch[check] == pytest.approx(online, rel=1e-9)

    def test_forecast_table_holds_the_online_forecasts(self, fitted):
        model, trace = fitted
        table = ForecastTable.from_spar(model, trace.values, 4)
        first = model.min_history
        for length in (first, first + 700, len(trace) - 4):
            assert table.can_forecast(length)
            online = model.predict(trace.values[:length], 4)
            assert table.predict(trace.values[:length], 4) == pytest.approx(online, rel=1e-9)
        # Too little history, or origins whose targets lie past the end.
        assert not table.can_forecast(first - 1)
        assert not table.can_forecast(len(trace) - 3)
        with pytest.raises(PredictionError):
            table.predict(trace.values, 4)
        assert table.fit(trace.values) is table  # issued in advance

    def test_batch_predict_requires_fit_horizon(self, fitted):
        model, trace = fitted
        with pytest.raises(PredictionError):
            model.batch_predict(trace.values, 31)

    def test_coefficients_unfitted_horizon_raises(self, fitted):
        model, _ = fitted
        with pytest.raises(PredictionError):
            model.coefficients(31)
