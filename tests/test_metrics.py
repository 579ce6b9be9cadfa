"""Tests for Figure 10's latency CDFs and Table 2's SLA accounting."""

import numpy as np
import pytest

from repro.engine.simulator import RunResult
from repro.errors import ConfigurationError
from repro.experiments.fig10_latency_cdfs import empirical_cdf, top_percent_cdf
from repro.telemetry.slo import sla_report, violation_seconds


class TestCDF:
    def test_empirical_cdf(self):
        cdf = empirical_cdf([3.0, 1.0, 2.0])
        assert list(cdf.xs) == [1.0, 2.0, 3.0]
        assert cdf.at(2.0) == pytest.approx(2 / 3)
        assert cdf.at(0.5) == 0.0
        assert cdf.quantile(1.0) == 3.0
        assert cdf.quantile(0.34) == 2.0

    def test_top_percent(self):
        values = list(range(1, 201))
        top = top_percent_cdf(values, percent=1.0)
        assert len(top.xs) == 2
        assert list(top.xs) == [199.0, 200.0]

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            empirical_cdf([])
        cdf = empirical_cdf([1.0])
        with pytest.raises(ConfigurationError):
            cdf.quantile(0.0)


class TestSLA:
    def test_violation_seconds(self):
        series = [100, 600, 700, 100, 501]
        assert violation_seconds(series) == 3
        assert violation_seconds(series, threshold_ms=650) == 1
        assert violation_seconds(series, dt_seconds=2.0) == 6

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            violation_seconds([1.0], dt_seconds=0)

    def test_report_row(self):
        zeros = np.zeros(2)
        result = RunResult(
            dt_seconds=1.0, sla_ms=500.0, time=zeros, offered=zeros, served=zeros,
            p50_ms=np.array([100.0, 600.0]), p95_ms=np.array([600.0, 600.0]),
            p99_ms=np.array([700.0, 700.0]), mean_ms=zeros,
            machines=np.array([4.0, 4.0]), reconfiguring=np.zeros(2, dtype=bool),
        )
        report = sla_report("test", result)
        assert report.violations_p50 == 1
        assert report.violations_p95 == 2
        assert report.violations_p99 == 2
        assert report.average_machines == 4.0
        assert "test" in report.as_row()
