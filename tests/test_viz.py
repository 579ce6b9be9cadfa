"""Tests for the plain-text visualization helpers."""

import numpy as np
import pytest

from repro import viz
from repro.errors import ConfigurationError


class TestSparkline:
    def test_monotone_series(self):
        line = viz.sparkline([0, 1, 2, 3, 4, 5, 6, 7])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 8

    def test_flat_series(self):
        assert viz.sparkline([5, 5, 5]) == "▁▁▁"

    def test_downsamples_to_width(self):
        line = viz.sparkline(np.arange(1000.0), width=50)
        assert len(line) == 50

    def test_fixed_scale(self):
        half = viz.sparkline([50.0], lo=0.0, hi=100.0)
        assert half in "▄▅"

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            viz.sparkline([])


class TestLoadVsCapacity:
    def test_violation_markers(self):
        load = [1.0, 5.0, 1.0]
        capacity = [2.0, 2.0, 2.0]
        strip = viz.load_vs_capacity_strip(load, capacity, width=3)
        marker_row = strip.splitlines()[-1]
        assert marker_row.endswith("! ")

    def test_no_violations(self):
        strip = viz.load_vs_capacity_strip([1, 1], [2, 2], width=2)
        assert "!" not in strip

    def test_mismatched(self):
        with pytest.raises(ConfigurationError):
            viz.load_vs_capacity_strip([1.0], [1.0, 2.0])


class TestTimeline:
    def test_digits_and_overflow(self):
        line = viz.timeline([1, 2, 9, 10, 14], width=5)
        assert line == "129XX"
