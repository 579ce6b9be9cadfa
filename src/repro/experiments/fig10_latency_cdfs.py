"""Figure 10: CDFs of the top 1% of per-second percentile latencies.

For each elasticity approach of Figure 9, the paper plots the CDF of the
worst 1% of the per-second 50th/95th/99th-percentile latencies.  Curves
higher and further left are better.  The orderings the paper reads off:

* reactive is clearly worst in all three plots (it reconfigures at peak
  capacity);
* static-4 beats P-Store at the median latency but is much worse at the
  tails;
* static-10 is best everywhere (and pays for it with 2x the machines).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.experiments.common import PaperComparison, comparison_table, format_table
from repro.experiments.fig9_elasticity import Fig9Result
from repro.experiments import fig9_elasticity

SERIES = ("p50", "p95", "p99")


@dataclass(frozen=True)
class EmpiricalCDF:
    """An empirical cumulative distribution.

    ``xs`` is sorted; ``probs[i]`` is the cumulative probability at
    ``xs[i]``.
    """

    xs: np.ndarray
    probs: np.ndarray

    def at(self, threshold: float) -> float:
        """P(X <= threshold)."""
        return float(np.searchsorted(self.xs, threshold, side="right") / len(self.xs))

    def quantile(self, q: float) -> float:
        """Smallest x with CDF(x) >= q."""
        if not 0 < q <= 1:
            raise ConfigurationError("q must be in (0, 1]")
        index = int(np.ceil(q * len(self.xs))) - 1
        return float(self.xs[max(index, 0)])


def empirical_cdf(values: Sequence[float]) -> EmpiricalCDF:
    """Build the empirical CDF of a sample."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ConfigurationError("cannot build a CDF from no data")
    probs = np.arange(1, arr.size + 1) / arr.size
    return EmpiricalCDF(arr, probs)


def top_percent_cdf(values: Sequence[float], percent: float = 1.0) -> EmpiricalCDF:
    """CDF of the worst ``percent``% of a sample (Figure 10's view)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        raise ConfigurationError("cannot build a CDF from no data")
    count = max(1, int(arr.size * percent / 100.0))
    return empirical_cdf(arr[-count:])


@dataclass
class Fig10Result:
    #: cdfs[approach][series] -> EmpiricalCDF of the top-1% latencies.
    cdfs: Dict[str, Dict[str, EmpiricalCDF]]

    def median_of_top1(self, approach: str, series: str) -> float:
        return self.cdfs[approach][series].quantile(0.5)

    def format_report(self) -> str:
        def med(name: str, series: str) -> float:
            return self.median_of_top1(name, series)

        comparisons = [
            PaperComparison(
                "reactive worst at the p99 tail", "yes",
                str(
                    med("reactive", "p99")
                    >= max(med(n, "p99") for n in self.cdfs if n != "reactive")
                ),
            ),
            PaperComparison(
                "static-10 best at the p99 tail", "yes",
                str(
                    med("static-10", "p99")
                    <= min(med(n, "p99") for n in self.cdfs)
                ),
            ),
        ]
        rows = []
        for name, by_series in self.cdfs.items():
            rows.append(
                (name,)
                + tuple(f"{by_series[s].quantile(0.5):.0f}" for s in SERIES)
                + tuple(f"{by_series[s].quantile(0.99):.0f}" for s in SERIES)
            )
        table = format_table(
            ("approach", "med p50", "med p95", "med p99",
             "worst p50", "worst p95", "worst p99"),
            rows,
            title="Top-1% latency distribution (ms)",
        )
        return (
            comparison_table(comparisons, "Figure 10 — top-1% latency CDFs")
            + "\n\n"
            + table
        )


def from_fig9(result: Fig9Result) -> Fig10Result:
    """Build the Figure 10 CDFs from an existing Figure 9 run."""
    cdfs: Dict[str, Dict[str, EmpiricalCDF]] = {}
    for name, run in result.runs.items():
        series_map = {
            "p50": run.result.p50_ms,
            "p95": run.result.p95_ms,
            "p99": run.result.p99_ms,
        }
        cdfs[name] = {
            series: top_percent_cdf(values, percent=1.0)
            for series, values in series_map.items()
        }
    return Fig10Result(cdfs=cdfs)


def run(fast: bool = False, fig9: Optional[Fig9Result] = None) -> Fig10Result:
    """Run (or reuse) Figure 9 and derive the latency CDFs."""
    fig9 = fig9 or fig9_elasticity.run(fast=fast)
    return from_fig9(fig9)
