"""Latency CDFs and SLA accounting."""

from repro.metrics.cdf import EmpiricalCDF, empirical_cdf, top_percent_cdf
from repro.metrics.sla import (
    DEFAULT_SLA_MS,
    SLAReport,
    sla_report,
    violation_seconds,
)

__all__ = [
    "DEFAULT_SLA_MS",
    "EmpiricalCDF",
    "SLAReport",
    "empirical_cdf",
    "sla_report",
    "top_percent_cdf",
    "violation_seconds",
]
