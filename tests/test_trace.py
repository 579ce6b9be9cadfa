"""Tests for LoadTrace containers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.trace import LoadTrace


@pytest.fixture
def trace() -> LoadTrace:
    return LoadTrace(np.arange(10.0) + 1.0, slot_seconds=60.0, name="t")


class TestValidation:
    def test_rejects_2d(self):
        with pytest.raises(ConfigurationError):
            LoadTrace(np.zeros((2, 2)))

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            LoadTrace(np.array([1.0, -1.0]))

    def test_rejects_bad_slot(self):
        with pytest.raises(ConfigurationError):
            LoadTrace(np.array([1.0]), slot_seconds=0)

    def test_rejects_mismatched_peaks(self):
        with pytest.raises(ConfigurationError):
            LoadTrace(np.array([1.0, 2.0]), peak_values=np.array([1.0]))

    def test_rejects_peaks_below_values(self):
        with pytest.raises(ConfigurationError):
            LoadTrace(np.array([2.0, 2.0]), peak_values=np.array([1.0, 3.0]))


class TestContainer:
    def test_len_and_iter(self, trace):
        assert len(trace) == 10
        assert list(trace)[:3] == [1.0, 2.0, 3.0]

    def test_index(self, trace):
        assert trace[0] == 1.0
        assert trace[-1] == 10.0

    def test_slice_keeps_offset(self, trace):
        part = trace[3:7]
        assert isinstance(part, LoadTrace)
        assert len(part) == 4
        assert part.start_slot == 3
        assert part[0] == 4.0

    def test_slice_carries_peaks(self):
        trace = LoadTrace(np.ones(6), peak_values=np.full(6, 2.0))
        part = trace[2:4]
        assert part.peak_values is not None
        assert list(part.peak_values) == [2.0, 2.0]

    def test_slice_with_step_rejected(self, trace):
        with pytest.raises(ConfigurationError):
            trace[::2]


class TestTimeMath:
    def test_duration(self, trace):
        assert trace.duration_seconds == 600.0
        assert trace.duration_days == pytest.approx(600.0 / 86400.0)

    def test_slots_per_day(self):
        assert LoadTrace(np.zeros(1), slot_seconds=60.0).slots_per_day == 1440
        with pytest.raises(ConfigurationError):
            LoadTrace(np.zeros(1), slot_seconds=7.0).slots_per_day


class TestRates:
    def test_per_second(self, trace):
        assert trace.per_second()[0] == pytest.approx(1.0 / 60.0)

    def test_peak_per_second_fallback(self, trace):
        assert np.allclose(trace.peak_per_second(), trace.per_second())

    def test_scaled(self, trace):
        doubled = trace.scaled(2.0)
        assert doubled[0] == 2.0
        assert doubled.slot_seconds == trace.slot_seconds

    def test_time_compressed_multiplies_rate(self, trace):
        fast = trace.time_compressed(10)
        assert fast.slot_seconds == pytest.approx(6.0)
        assert fast[0] == trace[0]  # same counts per slot
        assert fast.per_second()[0] == pytest.approx(trace.per_second()[0] * 10)

    def test_time_compressed_rejects_bad_speedup(self, trace):
        with pytest.raises(ConfigurationError):
            trace.time_compressed(0)


class TestResample:
    def test_coarsen_sums(self):
        trace = LoadTrace(np.arange(6.0), slot_seconds=60.0)
        coarse = trace.resample(120.0)
        assert list(coarse.values) == [1.0, 5.0, 9.0]
        assert coarse.slot_seconds == 120.0

    def test_coarsen_drops_tail(self):
        trace = LoadTrace(np.arange(7.0), slot_seconds=60.0)
        coarse = trace.resample(120.0)
        assert len(coarse) == 3

    def test_coarsen_peaks_use_max_rate(self):
        trace = LoadTrace(
            np.array([10.0, 10.0]),
            slot_seconds=60.0,
            peak_values=np.array([30.0, 10.0]),
        )
        coarse = trace.resample(120.0)
        # Peak rate of the group = max member peak rate (30/60 per s),
        # expressed over the 120 s slot -> 60.
        assert coarse.peak_values[0] == pytest.approx(60.0)

    def test_refine_splits(self):
        trace = LoadTrace(np.array([60.0]), slot_seconds=60.0)
        fine = trace.resample(30.0)
        assert list(fine.values) == [30.0, 30.0]

    def test_rejects_incompatible(self):
        trace = LoadTrace(np.arange(4.0), slot_seconds=60.0)
        with pytest.raises(ConfigurationError):
            trace.resample(90.0)


class TestStats:
    def test_peak_trough_mean(self, trace):
        assert trace.peak() == 10.0
        assert trace.trough() == 1.0
        assert trace.mean() == pytest.approx(5.5)
        assert trace.peak_to_trough() == pytest.approx(10.0)

    def test_peak_to_trough_with_zero(self):
        trace = LoadTrace(np.array([0.0, 5.0]))
        assert trace.peak_to_trough() == float("inf")
