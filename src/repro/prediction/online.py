"""Online (active) learning for load predictors (Section 6 of the paper).

"P-Store has an active learning system.  If training data exists,
parameters a_k and b_j can be learned offline.  Otherwise, P-Store
constantly monitors the system over time and can actively learn the
parameter values. ... In our experiments, we found that updating these
parameters once per week is usually sufficient."

:class:`OnlinePredictor` wraps any refittable predictor with exactly that
behaviour: it accumulates the observed history, fits as soon as enough
data exists (cold start), and refits on a fixed cadence (weekly by
default) using everything observed so far.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import PredictionError
from repro.prediction.base import Predictor, SeriesLike, as_series


class OnlinePredictor(Predictor):
    """Wraps a predictor with accumulate-fit-refit lifecycle management.

    Args:
        inner: The underlying model (e.g. a :class:`SPARPredictor`).  It
            is (re)fitted in place.
        refit_every: Refit cadence in slots (paper: one week — 10,080
            one-minute slots).
        min_training: Smallest history that allows the first fit;
            defaults to the inner model's ``min_history``.

    The wrapper is *fallback-aware*: before the first fit succeeds,
    :meth:`predict` raises ``PredictionError`` just like an unfitted
    model, and callers (the controllers already do) degrade to reactive
    behaviour.
    """

    def __init__(
        self,
        inner: Predictor,
        refit_every: int = 10080,
        min_training: Optional[int] = None,
    ) -> None:
        if refit_every < 1:
            raise PredictionError("refit_every must be >= 1")
        self.inner = inner
        self.refit_every = refit_every
        # An explicit min_training of 0 means "attempt the first fit on
        # the very first observation"; only None falls back to the inner
        # model's requirement.
        if min_training is None:
            min_training = inner.min_training_length
        if min_training < 0:
            raise PredictionError("min_training must be >= 0")
        self.min_training = min_training
        # The observed history, in a float64 buffer grown by doubling, so
        # forecasting from it is a view rather than a list conversion.
        self._buffer = np.empty(0)
        self._length = 0
        self._slots_since_fit = 0
        self._fitted = False
        self.refits = 0
        self.max_horizon = inner.max_horizon

    @classmethod
    def fitted(cls, inner: Predictor, history: SeriesLike) -> "OnlinePredictor":
        """Wrap a model whose parameters were learned offline.

        ``history`` is the series ``inner`` was trained on (the warm
        history forecasts continue from).  Nothing is refitted here; the
        refit cadence starts counting from the first observation.
        """
        online = cls(inner)
        online._reset_history(history)
        online._fitted = True
        return online

    def _reset_history(self, history: SeriesLike) -> None:
        self._buffer = np.array(as_series(history), dtype=np.float64)
        self._length = len(self._buffer)

    # ------------------------------------------------------------------
    @property
    def min_history(self) -> int:  # type: ignore[override]
        return self.inner.min_history

    @property
    def is_fitted(self) -> bool:
        """True once forecasts are available: parameters learned and the
        inner model able to forecast from the history observed so far."""
        return self._fitted and self.inner.can_forecast(self._length)

    def observe(self, value: float) -> bool:
        """Record one measured slot; fit/refit when due.

        Returns True when a (re)fit happened on this observation.
        """
        if self._length == len(self._buffer):
            grown = np.empty(max(64, 2 * self._length))
            grown[: self._length] = self._buffer[: self._length]
            self._buffer = grown
        self._buffer[self._length] = value
        self._length += 1
        self._slots_since_fit += 1
        due = (
            not self._fitted and self._length >= self.min_training
        ) or (self._fitted and self._slots_since_fit >= self.refit_every)
        if due:
            self._refit()
            return True
        return False

    def observe_many(self, values: SeriesLike) -> int:
        """Record a batch of slots; returns the number of refits."""
        refits = 0
        for value in as_series(values):
            if self.observe(float(value)):
                refits += 1
        return refits

    def _refit(self) -> None:
        self.inner.fit(self.observed())
        self._fitted = True
        self._slots_since_fit = 0
        self.refits += 1

    # ------------------------------------------------------------------
    def fit(self, training: SeriesLike) -> "OnlinePredictor":
        """Offline bootstrap: seed the history and fit immediately."""
        self._reset_history(training)
        self._refit()
        return self

    def predict(self, history: SeriesLike, horizon: int) -> np.ndarray:
        """Forecast with the most recently fitted parameters.

        ``history`` follows the standard convention (series from slot 0);
        pass :meth:`observed` for the wrapper's own accumulated view.
        """
        if not self._fitted:
            raise PredictionError(
                "OnlinePredictor has not accumulated enough history to fit "
                f"({self._length}/{self.min_training} slots)"
            )
        return self.inner.predict(history, horizon)

    def predict_from_observed(self, horizon: int) -> np.ndarray:
        """Forecast from the wrapper's accumulated history."""
        return self.predict(self._buffer[: self._length], horizon)

    def observed(self) -> np.ndarray:
        return self._buffer[: self._length].copy()

    @property
    def slots_observed(self) -> int:
        """Length of the accumulated history (training seed included)."""
        return self._length

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serializable lifecycle state (for serving checkpoints)."""
        inner_state = None
        if hasattr(self.inner, "state_dict"):
            inner_state = self.inner.state_dict()
        return {
            "refit_every": self.refit_every,
            "min_training": self.min_training,
            "history": self._buffer[: self._length].tolist(),
            "slots_since_fit": self._slots_since_fit,
            "fitted": self._fitted,
            "refits": self.refits,
            "inner": inner_state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore the accumulate/fit/refit cursor and the inner model."""
        if (
            state["refit_every"] != self.refit_every
            or state["min_training"] != self.min_training
        ):
            raise PredictionError(
                "OnlinePredictor checkpoint cadence does not match: "
                f"refit_every {state['refit_every']} vs {self.refit_every}, "
                f"min_training {state['min_training']} vs {self.min_training}"
            )
        self._reset_history(state["history"])
        self._slots_since_fit = int(state["slots_since_fit"])
        self._fitted = bool(state["fitted"])
        self.refits = int(state["refits"])
        if state["inner"] is not None:
            self.inner.load_state_dict(state["inner"])
