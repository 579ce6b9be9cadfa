"""Tests for AR, ARMA, naive baselines, oracle, inflation and metrics."""

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction.ar import ARPredictor, fit_ar_coefficients
from repro.prediction.arma import ARMAPredictor
from repro.prediction.metrics import mean_relative_error, mean_relative_error_pct
from repro.prediction.naive import PersistencePredictor, SeasonalNaivePredictor
from repro.prediction.oracle import OraclePredictor


def ar2_series(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    series = np.zeros(n)
    for t in range(2, n):
        series[t] = 10.0 + 0.6 * series[t - 1] + 0.3 * series[t - 2] + rng.normal(0, 1)
    return series + 100.0


class TestAR:
    def test_fit_recovers_ar2(self):
        series = ar2_series(5000)
        intercept, phi = fit_ar_coefficients(series, order=2)
        assert phi[0] == pytest.approx(0.6, abs=0.05)
        assert phi[1] == pytest.approx(0.3, abs=0.05)

    def test_one_step_forecast_accurate(self):
        series = ar2_series(3000)
        model = ARPredictor(order=2).fit(series[:2500])
        errors = []
        for t in range(2500, 2990):
            prediction = model.predict(series[:t], 1)[0]
            errors.append(abs(prediction - series[t]))
        assert np.mean(errors) < 1.5  # noise std is 1

    def test_multi_step_shape(self):
        series = ar2_series(1000)
        model = ARPredictor(order=4).fit(series)
        out = model.predict(series, 20)
        assert out.shape == (20,)
        assert np.all(out >= 0)

    def test_rejects_bad_order(self):
        with pytest.raises(PredictionError):
            ARPredictor(order=0)
        with pytest.raises(PredictionError):
            fit_ar_coefficients(np.ones(3), order=5)

    def test_predict_before_fit(self):
        with pytest.raises(PredictionError):
            ARPredictor(order=2).predict(np.ones(100), 1)


class TestARMA:
    def test_fit_and_forecast(self):
        series = ar2_series(4000, seed=3)
        model = ARMAPredictor(ar_order=2, ma_order=2).fit(series[:3500])
        errors = []
        for t in range(3500, 3900, 10):
            prediction = model.predict(series[:t], 1)[0]
            errors.append(abs(prediction - series[t]))
        assert np.mean(errors) < 2.0

    def test_ma_zero_behaves_like_ar(self):
        series = ar2_series(2000, seed=4)
        arma = ARMAPredictor(ar_order=2, ma_order=0).fit(series)
        ar = ARPredictor(order=2).fit(series)
        p1 = arma.predict(series, 5)
        p2 = ar.predict(series, 5)
        assert np.allclose(p1, p2, rtol=0.02)

    def test_rejects_bad_orders(self):
        with pytest.raises(PredictionError):
            ARMAPredictor(ar_order=0)
        with pytest.raises(PredictionError):
            ARMAPredictor(ar_order=2, ma_order=-1)


class TestNaive:
    def test_persistence(self):
        model = PersistencePredictor().fit(np.ones(5))
        out = model.predict(np.array([1.0, 2.0, 7.0]), 3)
        assert list(out) == [7.0, 7.0, 7.0]

    def test_seasonal_naive_exact_on_periodic(self):
        period = 24
        profile = np.arange(period, dtype=float) + 1
        series = np.tile(profile, 5)
        model = SeasonalNaivePredictor(period=period)
        prediction = model.predict(series[: 3 * period], period)
        assert np.allclose(prediction, profile)

    def test_seasonal_naive_needs_history(self):
        model = SeasonalNaivePredictor(period=24)
        with pytest.raises(PredictionError):
            model.predict(np.ones(10), 1)

    def test_seasonal_naive_horizon_cap(self):
        model = SeasonalNaivePredictor(period=24)
        with pytest.raises(PredictionError):
            model.predict(np.ones(100), 25)


class TestOracle:
    def test_returns_truth(self):
        truth = np.arange(100.0)
        oracle = OraclePredictor(truth)
        out = oracle.predict(truth[:10], 5)
        assert list(out) == [10.0, 11.0, 12.0, 13.0, 14.0]

    def test_pads_beyond_end(self):
        truth = np.arange(10.0)
        oracle = OraclePredictor(truth)
        out = oracle.predict(truth[:8], 5)
        assert list(out) == [8.0, 9.0, 9.0, 9.0, 9.0]

    def test_fully_beyond_end(self):
        truth = np.arange(10.0)
        oracle = OraclePredictor(truth)
        out = oracle.predict(truth, 3)
        assert list(out) == [9.0, 9.0, 9.0]


class TestMetrics:
    def test_mre(self):
        actual = np.array([100.0, 200.0])
        predicted = np.array([110.0, 180.0])
        assert mean_relative_error(actual, predicted) == pytest.approx(0.1)
        assert mean_relative_error_pct(actual, predicted) == pytest.approx(10.0)

    def test_mre_skips_zero_actuals(self):
        actual = np.array([0.0, 100.0])
        predicted = np.array([50.0, 110.0])
        assert mean_relative_error(actual, predicted) == pytest.approx(0.1)

    def test_mre_all_zero_raises(self):
        with pytest.raises(PredictionError):
            mean_relative_error(np.zeros(3), np.ones(3))

    def test_length_mismatch(self):
        with pytest.raises(PredictionError):
            mean_relative_error(np.ones(2), np.ones(3))

    def test_empty_raises(self):
        with pytest.raises(PredictionError):
            mean_relative_error(np.ones(0), np.ones(0))
