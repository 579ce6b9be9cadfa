"""Load time-series prediction (Section 5 of the paper).

SPAR is P-Store's default model; AR and ARMA are the paper's comparators;
persistence and seasonal-naive are standard baselines; the oracle feeds
the planner perfect predictions (the Figure 12 upper bound).
"""

from repro.prediction.ar import ARPredictor, fit_ar_coefficients
from repro.prediction.arma import ARMAPredictor
from repro.prediction.base import Predictor, as_series
from repro.prediction.metrics import mean_relative_error, mean_relative_error_pct
from repro.prediction.naive import PersistencePredictor, SeasonalNaivePredictor
from repro.prediction.online import OnlinePredictor
from repro.prediction.oracle import OraclePredictor
from repro.prediction.rolling import RollingForecast, rolling_forecast
from repro.prediction.spar import SPARPredictor
from repro.prediction.table import ForecastTable

__all__ = [
    "ARMAPredictor",
    "ARPredictor",
    "ForecastTable",
    "OnlinePredictor",
    "OraclePredictor",
    "PersistencePredictor",
    "Predictor",
    "RollingForecast",
    "SPARPredictor",
    "SeasonalNaivePredictor",
    "as_series",
    "fit_ar_coefficients",
    "mean_relative_error",
    "mean_relative_error_pct",
    "rolling_forecast",
]
