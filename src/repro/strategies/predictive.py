"""P-Store's predictive allocation strategy (the paper's contribution).

Each interval with no move in flight, the strategy:

1. obtains load predictions for the next ``horizon`` intervals (SPAR by
   default; the oracle variant reads the true future),
2. inflates them by a safety factor (15% in the paper),
3. runs the dynamic-programming planner (Algorithms 1-3), and
4. executes only the *first* move of the optimal plan if that move must
   start now — receding-horizon control (Section 6).  Later moves are
   re-planned once fresher predictions exist.

Scale-in moves require three consecutive planning cycles to agree
(Section 6's confirmation heuristic) so noise cannot trigger churn.  If
no feasible plan exists (an unpredicted spike), the strategy falls back
to reactive scale-out to the needed size (Section 4.3.1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policy import PredictivePolicy
from repro.prediction.base import Predictor
from repro.prediction.oracle import OraclePredictor
from repro.prediction.spar import SPARPredictor
from repro.strategies.base import AllocationStrategy, SimState
from repro.workloads.trace import LoadTrace


class PStoreStrategy(AllocationStrategy):
    """Predictive provisioning via the DP planner.

    Args:
        predictor: Fitted load predictor (slot units must match the
            simulation trace).  Pass an :class:`OraclePredictor` for the
            "P-Store Oracle" upper bound.
        horizon: Forecast window in intervals (must cover ``2D/P``;
            Section 5's discussion).
        inflation: Prediction inflation factor (paper: 0.15).
        scale_in_confirmations: Consecutive agreeing cycles required
            before a scale-in executes (paper: 3).
    """

    def __init__(
        self,
        predictor: Predictor,
        horizon: int = 12,
        inflation: float = 0.15,
        scale_in_confirmations: int = 3,
        training_prefix: Optional[np.ndarray] = None,
        name: Optional[str] = None,
    ) -> None:
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if inflation < 0:
            raise ValueError("inflation must be >= 0")
        self.predictor = predictor
        self.horizon = horizon
        self.inflation = inflation
        self.scale_in_confirmations = scale_in_confirmations
        self.training_prefix = (
            np.asarray(training_prefix, dtype=np.float64)
            if training_prefix is not None
            else None
        )
        self.name = name or (
            "pstore-oracle" if isinstance(predictor, OraclePredictor) else "pstore-spar"
        )
        self._policy: Optional[PredictivePolicy] = None
        self._prediction_matrix: Optional[np.ndarray] = None

    @property
    def plans_computed(self) -> int:
        return self._policy.plans_computed if self._policy else 0

    @property
    def fallback_scale_outs(self) -> int:
        return self._policy.fallback_scale_outs if self._policy else 0

    # ------------------------------------------------------------------
    def reset(self, params, max_machines, trace: Optional[LoadTrace] = None) -> None:
        super().reset(params, max_machines, trace)
        self._policy = PredictivePolicy(
            params, max_machines, self.scale_in_confirmations
        )
        self._prediction_matrix = None
        if trace is not None:
            self._precompute(trace)

    def _precompute(self, trace: LoadTrace) -> None:
        """Precompute the prediction matrix for a known evaluation trace.

        ``matrix[t, h-1]`` is the forecast of slot ``t + h`` issued at
        slot ``t``.  For SPAR this is exactly the online forecast (each
        design row only uses values at or before its origin), just
        computed in one vectorized pass; for the oracle it is the truth.
        """
        n = len(trace)
        matrix = np.full((n, self.horizon), np.nan)
        if isinstance(self.predictor, OraclePredictor):
            values = trace.values
            for h in range(1, self.horizon + 1):
                matrix[: n - h, h - 1] = values[h:]
                matrix[n - h :, h - 1] = values[-1]
        elif isinstance(self.predictor, SPARPredictor):
            prefix_len = 0
            series = trace.values
            if self.training_prefix is not None:
                prefix_len = len(self.training_prefix)
                series = np.concatenate([self.training_prefix, trace.values])
            for h in range(1, self.horizon + 1):
                targets, preds = self.predictor.batch_predict(series, h)
                origins = targets - h - prefix_len
                mask = (origins >= 0) & (origins < n)
                matrix[origins[mask], h - 1] = preds[mask]
        else:
            return  # fall back to per-interval predict() calls
        self._prediction_matrix = matrix

    # ------------------------------------------------------------------
    def _forecast(self, state: SimState) -> Optional[np.ndarray]:
        """Predicted load (per-slot counts) for the next horizon slots."""
        if self._prediction_matrix is not None:
            row = self._prediction_matrix[state.interval]
            if np.any(np.isnan(row)):
                return None
            return row
        history_counts = state.history_rates[: state.interval + 1] * state.slot_seconds
        if self.training_prefix is not None:
            history_counts = np.concatenate([self.training_prefix, history_counts])
        if len(history_counts) < self.predictor.min_history:
            return None
        return self.predictor.predict(history_counts, self.horizon)

    def decide(self, state: SimState) -> Optional[int]:
        assert self._policy is not None, "reset() must run before decide()"
        forecast_counts = self._forecast(state)
        if forecast_counts is None:
            # No usable prediction yet (model warm-up): degrade to the
            # reactive control law so the cluster is never left stranded.
            needed = self.params.machines_for_load(
                state.load_rate * (1.0 + self.inflation)
            )
            if needed > state.machines:
                target = self.clamp(needed)
                self.note_decision(state, target, "warmup-reactive")
                return target
            return None
        forecast_rates = forecast_counts / state.slot_seconds
        load = np.empty(self.horizon + 1)
        load[0] = state.load_rate
        load[1:] = forecast_rates * (1.0 + self.inflation)
        decision = self._policy.decide(load, state.machines)
        if decision.target is not None and decision.target != state.machines:
            self.note_decision(
                state,
                decision.target,
                "fallback" if decision.fallback else "planned",
            )
        return decision.target
