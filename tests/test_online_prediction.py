"""Tests for the online (active-learning) predictor wrapper."""

import json

import numpy as np
import pytest

from repro.errors import PredictionError
from repro.prediction.base import Predictor
from repro.prediction.online import OnlinePredictor
from repro.prediction.spar import SPARPredictor


def spar(period=48):
    return SPARPredictor(period=period, n_periods=2, n_recent=4, max_horizon=6)


def periodic(period, days, level=100.0):
    profile = level + 40.0 * np.sin(2 * np.pi * np.arange(period) / period)
    return np.tile(profile, days)


class TestColdStart:
    def test_predict_before_enough_data_raises(self):
        online = OnlinePredictor(spar(), refit_every=48)
        online.observe_many(np.ones(10))
        assert not online.is_fitted
        with pytest.raises(PredictionError):
            online.predict_from_observed(2)

    def test_fits_as_soon_as_possible(self):
        model = spar()
        online = OnlinePredictor(model, refit_every=10_000)
        series = periodic(48, 4)
        refits = online.observe_many(series)
        assert refits == 1
        assert online.is_fitted
        # Once fitted, forecasts track the periodic signal.
        prediction = online.predict_from_observed(4)
        truth = periodic(48, 5)[len(series) : len(series) + 4]
        assert np.allclose(prediction, truth, rtol=0.02)


class TestRefitCadence:
    def test_refits_every_period(self):
        online = OnlinePredictor(spar(), refit_every=48)
        observed = 4 * 48
        online.observe_many(periodic(48, 4))
        expected = 1 + (observed - online.min_training) // 48
        assert online.refits == expected
        online.observe_many(periodic(48, 2))  # 2 more days -> 2 more refits
        assert online.refits == expected + 2

    def test_refit_adapts_to_level_shift(self):
        online = OnlinePredictor(spar(), refit_every=48)
        online.observe_many(periodic(48, 4, level=100.0))
        before = online.predict_from_observed(1)[0]
        # The workload doubles; after enough refits the model follows.
        online.observe_many(periodic(48, 6, level=200.0))
        after = online.predict_from_observed(1)[0]
        assert after > before * 1.5

    def test_offline_bootstrap(self):
        online = OnlinePredictor(spar(), refit_every=48)
        online.fit(periodic(48, 4))
        assert online.is_fitted
        assert online.refits == 1
        assert len(online.observed()) == 4 * 48

    def test_arrives_fitted_without_refitting(self):
        series = periodic(48, 4)
        model = spar().fit(series)
        coefficients = model.state_dict()
        online = OnlinePredictor.fitted(model, series)
        assert online.is_fitted and online.refits == 0
        assert online.slots_observed == 4 * 48
        assert model.state_dict() == coefficients
        assert np.array_equal(online.predict_from_observed(3), model.predict(series, 3))
        # Fitted parameters alone are not a forecast: it takes
        # ``min_history`` slots to predict from.
        assert not OnlinePredictor.fitted(model, series[:5]).is_fitted

    def test_rejects_bad_cadence(self):
        with pytest.raises(PredictionError):
            OnlinePredictor(spar(), refit_every=0)

    def test_history_checkpoint_stays_a_list(self):
        series = periodic(48, 5)
        online = OnlinePredictor.fitted(spar().fit(series[: 4 * 48]), series[: 4 * 48])
        online.observe_many(series[4 * 48 :])  # grows the buffer past its seed
        state = json.loads(json.dumps(online.state_dict()))
        assert state["history"] == [float(v) for v in series]
        restored = OnlinePredictor(spar())
        restored.load_state_dict(state)
        assert np.array_equal(restored.observed(), series)
        assert np.array_equal(
            restored.predict_from_observed(3), online.predict_from_observed(3)
        )


class LevelPredictor(Predictor):
    """Minimal inner model: fits on any non-empty history."""

    min_history = 1
    max_horizon = 8
    min_training_length = 1

    def fit(self, training):
        self.level = float(np.mean(training))
        return self

    def predict(self, history, horizon):
        return np.full(horizon, self.level)


class TestExplicitMinTraining:
    def test_zero_is_honoured_not_treated_as_unset(self):
        online = OnlinePredictor(LevelPredictor(), refit_every=100, min_training=0)
        assert online.min_training == 0
        # With an explicit 0 the very first observation triggers the fit;
        # a falsy-check bug would silently substitute the inner default.
        assert online.observe(5.0)
        assert online.is_fitted
        assert np.allclose(online.predict_from_observed(3), 5.0)

    def test_none_falls_back_to_inner_requirement(self):
        model = spar()
        online = OnlinePredictor(model, min_training=None)
        assert online.min_training == model.min_training_length

    def test_negative_rejected(self):
        with pytest.raises(PredictionError):
            OnlinePredictor(LevelPredictor(), min_training=-1)


class TestDelegation:
    def test_min_history_tracks_inner(self):
        model = spar()
        online = OnlinePredictor(model)
        assert online.min_history == model.min_history

    def test_predict_uses_explicit_history(self):
        online = OnlinePredictor(spar(), refit_every=10_000)
        series = periodic(48, 5)
        online.fit(series[: 4 * 48])
        direct = online.predict(series[: 4 * 48 + 10], 3)
        assert direct.shape == (3,)
