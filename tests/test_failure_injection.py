"""Failure-injection tests: the control loop must survive bad inputs.

A production controller cannot crash because the forecasting model
diverged or a measurement went missing; these tests inject broken
predictors and malformed data and assert graceful degradation (roughly
reactive behaviour), never silent nonsense.
"""

import numpy as np
import pytest

from repro.core.params import SystemParameters
from repro.core.policy import PredictivePolicy
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.errors import ConfigurationError
from repro.prediction.base import Predictor
from repro.prediction.online import OnlinePredictor
from repro.serve.control import OnlineControlLoop
from repro.workloads.trace import LoadTrace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)


class BrokenPredictor(Predictor):
    """Returns pathological forecasts on demand."""

    min_history = 1

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def fit(self, training):
        return self

    def predict(self, history, horizon):
        if self.mode == "nan":
            return np.full(horizon, np.nan)
        if self.mode == "negative":
            return np.full(horizon, -500.0)
        if self.mode == "inf":
            return np.full(horizon, np.inf)
        if self.mode == "huge":
            return np.full(horizon, 1e18)
        raise AssertionError(self.mode)


class TestPolicySanitization:
    def test_nan_forecast_degrades_to_hold(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        load = np.full(13, np.nan)
        load[0] = 1.5 * PARAMS.q
        decision = policy.decide(load, 2)
        # NaNs replaced with the measured load -> plateau -> hold.
        assert decision.target is None

    def test_negative_forecast_degrades_to_hold(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        load = np.full(13, -100.0)
        load[0] = 1.5 * PARAMS.q
        assert policy.decide(load, 2).target is None

    def test_partial_nan_keeps_good_entries(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        load = np.full(13, 1.2 * PARAMS.q)
        load[3] = np.nan
        load[8] = 3.5 * PARAMS.q  # a real predicted rise survives
        decision = policy.decide(load, 2)
        assert decision.planned  # the rise still forces planning

    def test_infinite_forecast_caps_at_max_machines(self):
        policy = PredictivePolicy(PARAMS, max_machines=6)
        load = np.full(13, np.inf)
        load[0] = 1.5 * PARAMS.q
        decision = policy.decide(load, 2)
        # inf entries are sanitized to the measured load: hold.
        assert decision.target is None

    def test_huge_but_finite_forecast_falls_back(self):
        policy = PredictivePolicy(PARAMS, max_machines=6)
        load = np.full(13, 1e18)
        load[0] = 1.5 * PARAMS.q
        decision = policy.decide(load, 2)
        assert decision.fallback
        assert decision.target == 6  # clamped to the cluster cap

    def test_bad_measurement_is_an_error(self):
        policy = PredictivePolicy(PARAMS, max_machines=10)
        load = np.full(13, 1.0 * PARAMS.q)
        load[0] = np.nan
        with pytest.raises(ConfigurationError):
            policy.decide(load, 2)


class TestControllerWithBrokenPredictor:
    @pytest.mark.parametrize("mode", ["nan", "negative", "inf", "huge"])
    def test_run_survives(self, mode):
        params = SystemParameters(interval_seconds=60.0, partitions_per_node=6)
        controller = OnlineControlLoop(
            params,
            OnlinePredictor.fitted(BrokenPredictor(mode), [100.0]),
            measurement_slot_seconds=6.0,
            horizon=10,
            max_machines=4,
        )
        sim = EngineSimulator(EngineConfig(max_nodes=4), initial_nodes=2)
        trace = LoadTrace(np.full(50, 300.0 * 6), slot_seconds=6.0)
        result = sim.run(trace, controller=controller)  # must not raise
        assert len(result.time) == 300
        assert sim.machines_allocated >= 1
