"""Workload traces and synthetic generators.

Substitutes for the paper's proprietary B2W logs and the Wikipedia
page-view dumps; see DESIGN.md for the substitution rationale.
"""

from repro.workloads.b2w import (
    B2W_PEAK_PER_MINUTE,
    B2W_PEAK_TO_TROUGH,
    B2WTraceConfig,
    generate_b2w_long_trace,
    generate_b2w_trace,
)
from repro.workloads.spikes import FlashCrowd, inject_flash_crowd
from repro.workloads.trace import LoadTrace
from repro.workloads.wikipedia import generate_wikipedia_pair, generate_wikipedia_trace

__all__ = [
    "B2W_PEAK_PER_MINUTE",
    "B2W_PEAK_TO_TROUGH",
    "B2WTraceConfig",
    "FlashCrowd",
    "LoadTrace",
    "generate_b2w_long_trace",
    "generate_b2w_trace",
    "generate_wikipedia_pair",
    "generate_wikipedia_trace",
    "inject_flash_crowd",
]
