"""Extension: predictive provisioning on Wikipedia-like workloads.

The paper validates SPAR on Wikipedia page views (Figure 6) to show the
predictive machinery generalizes beyond retail, but only evaluates the
*full system* on B2W.  This extension closes that loop: it runs the
whole P-Store pipeline — SPAR, planner, capacity simulation — on the
hourly Wikipedia-like traces for both language editions, against the
reactive and static baselines.

Expected shape (following the paper's reasoning): P-Store works on both
editions; because the German trace is less predictable (Figure 6b), its
SPAR-driven violations are higher than English's, yet still far below
the reactive baseline at comparable cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.controller import ReactiveController
from repro.core.params import PAPER_SATURATION_RATE, SystemParameters
from repro.experiments.common import PaperComparison, comparison_table, format_table
from repro.prediction import ForecastTable, OnlinePredictor, SPARPredictor
from repro.serve.control import OnlineControlLoop
from repro.simulation.capacity_sim import CapacitySimResult, CapacitySimulator
from repro.workloads.wikipedia import generate_wikipedia_trace

HOURS_PER_DAY = 24
SLOT_SECONDS = 3600.0
#: Planner horizon in hours; comfortably covers 2D/P (~26 minutes).
HORIZON_HOURS = 6


@dataclass
class ExtWikiResult:
    #: results[language][strategy] -> CapacitySimResult
    results: Dict[str, Dict[str, CapacitySimResult]]

    def format_report(self) -> str:
        en = self.results["en"]
        de = self.results["de"]
        comparisons = [
            PaperComparison(
                "P-Store works beyond retail", "expected (Sec. 5)",
                f"en {en['pstore-spar'].pct_time_insufficient:.2f}% / "
                f"de {de['pstore-spar'].pct_time_insufficient:.2f}% insufficient",
            ),
            PaperComparison(
                "less predictable de -> more violations than en", "expected",
                str(
                    de["pstore-spar"].pct_time_insufficient
                    >= en["pstore-spar"].pct_time_insufficient
                ),
            ),
            PaperComparison(
                "P-Store cheaper than static peak provisioning", "yes",
                f"en {en['pstore-spar'].cost / en['static-10'].cost:.2f}x / "
                f"de {de['pstore-spar'].cost / de['static-10'].cost:.2f}x",
            ),
        ]
        rows = []
        for language, by_strategy in self.results.items():
            for name, result in by_strategy.items():
                rows.append(
                    (
                        language,
                        name,
                        f"{result.cost:.0f}",
                        f"{result.average_machines():.2f}",
                        f"{result.pct_time_insufficient:.3f}",
                        result.moves,
                    )
                )
        table = format_table(
            ("edition", "strategy", "cost", "avg mach", "% insufficient", "moves"),
            rows,
        )
        return (
            comparison_table(
                comparisons, "Extension — P-Store on Wikipedia-like workloads"
            )
            + "\n\n"
            + table
        )


def run(fast: bool = False, seed: int = 20160701) -> ExtWikiResult:
    """Run the full pipeline per language edition."""
    train_days = 14 if fast else 28
    eval_days = 14 if fast else 28
    params = SystemParameters(
        q=PAPER_SATURATION_RATE * 0.65,
        q_max=PAPER_SATURATION_RATE * 0.80,
        interval_seconds=SLOT_SECONDS,
        partitions_per_node=6,
    )
    results: Dict[str, Dict[str, CapacitySimResult]] = {}
    for language in ("en", "de"):
        trace = generate_wikipedia_trace(language, train_days + eval_days, seed=seed)
        # Calibrate so the daily peak needs ~8 machines at Q.
        peak_rate = trace.per_second().max()
        trace = trace.scaled(8.0 * params.q / peak_rate)
        train = trace.values[: train_days * HOURS_PER_DAY]
        eval_trace = trace[train_days * HOURS_PER_DAY :]

        spar = SPARPredictor(
            period=HOURS_PER_DAY,
            n_periods=7,
            n_recent=6,
            max_horizon=HORIZON_HOURS,
        ).fit(train)
        table = ForecastTable.from_spar(
            spar, np.concatenate([train, eval_trace.values]), HORIZON_HOURS
        )
        pstore = OnlineControlLoop(
            params, OnlinePredictor.fitted(table, train),
            horizon=HORIZON_HOURS, max_machines=16,
        )
        reactive = ReactiveController(
            params, max_machines=16, detect_slots=1, scale_in_slots=12
        )
        simulator = CapacitySimulator(params, max_machines=16)
        results[language] = {
            "pstore-spar": simulator.run(eval_trace, pstore),
            "reactive": simulator.run(eval_trace, reactive),
            "static-10": simulator.run(eval_trace, initial_machines=10),
        }
    return ExtWikiResult(results=results)
