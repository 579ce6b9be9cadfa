"""Tests for the synthetic workload generators."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.workloads.b2w import (
    B2WTraceConfig,
    generate_b2w_long_trace,
    generate_b2w_trace,
)
from repro.workloads.spikes import FlashCrowd, inject_flash_crowd
from repro.workloads.wikipedia import generate_wikipedia_pair, generate_wikipedia_trace


class TestB2WTrace:
    def test_deterministic(self):
        a = generate_b2w_trace(2, seed=5)
        b = generate_b2w_trace(2, seed=5)
        assert np.allclose(a.values, b.values)

    def test_different_seeds_differ(self):
        a = generate_b2w_trace(1, seed=1)
        b = generate_b2w_trace(1, seed=2)
        assert not np.allclose(a.values, b.values)

    def test_length_and_slots(self):
        trace = generate_b2w_trace(3)
        assert len(trace) == 3 * 1440
        assert trace.slot_seconds == 60.0

    def test_peak_magnitude_matches_paper(self):
        trace = generate_b2w_trace(3)
        assert 1.5e4 < trace.peak() < 4.0e4  # paper: ~2.3e4 req/min

    def test_peak_to_trough_near_ten(self):
        trace = generate_b2w_trace(5)
        assert 6.0 < trace.daily_peak_to_trough() < 18.0

    def test_diurnal_trough_at_night(self):
        trace = generate_b2w_trace(1, seed=3)
        hour_means = trace.values.reshape(24, 60).mean(axis=1)
        assert np.argmin(hour_means) in range(2, 8)  # trough in the small hours
        assert np.argmax(hour_means) in range(12, 23)

    def test_has_peaks_metadata(self):
        trace = generate_b2w_trace(1)
        assert trace.peak_values is not None
        assert np.all(trace.peak_values + 1e-9 >= trace.values)

    def test_custom_slot_seconds(self):
        trace = generate_b2w_trace(1, slot_seconds=300.0)
        assert len(trace) == 288
        # Counts scale with the slot length.
        assert trace.mean() == pytest.approx(
            generate_b2w_trace(1).mean() * 5, rel=0.15
        )

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            B2WTraceConfig(num_days=0)
        with pytest.raises(ConfigurationError):
            B2WTraceConfig(peak_to_trough=0.5)
        with pytest.raises(ConfigurationError):
            B2WTraceConfig(start_weekday=9)

    def test_black_friday_outside_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_b2w_trace(
                2, config=B2WTraceConfig(num_days=2, black_friday_day=5)
            )


class TestBlackFriday:
    def test_black_friday_elevates_day(self):
        config = B2WTraceConfig(num_days=21, black_friday_day=14, seed=8)
        trace = generate_b2w_trace(config=config)
        per_day = trace.values.reshape(21, 1440).sum(axis=1)
        regular = np.median(per_day[:13])
        assert per_day[14] > 1.6 * regular

    def test_long_trace_includes_black_friday(self):
        trace = generate_b2w_long_trace(num_days=130, black_friday_day=116)
        per_day = trace.values.reshape(130, 288).sum(axis=1)
        assert np.argmax(per_day) in (115, 116, 117)


class TestWikipedia:
    def test_magnitudes(self):
        english = generate_wikipedia_trace("en", 7)
        german = generate_wikipedia_trace("de", 7)
        assert 5e6 < english.peak() < 2e7  # paper: 2-10 M/hour
        assert 1e6 < german.peak() < 5e6
        assert english.mean() > german.mean()

    def test_hourly_slots(self):
        trace = generate_wikipedia_trace("en", 3)
        assert trace.slot_seconds == 3600.0
        assert len(trace) == 72

    def test_german_noisier(self):
        english, german = generate_wikipedia_pair(28)

        def residual_cv(trace):
            days = trace.values.reshape(-1, 24)
            profile = days.mean(axis=0)
            residual = days / profile
            return residual.std()

        assert residual_cv(german) > residual_cv(english)

    def test_rejects_unknown_language(self):
        with pytest.raises(ConfigurationError):
            generate_wikipedia_trace("fr")


class TestFlashCrowd:
    def test_spike_shape(self):
        base = generate_b2w_trace(1, seed=4)
        spike = FlashCrowd(
            start_seconds=12 * 3600, ramp_seconds=600, plateau_seconds=1200,
            decay_seconds=1800, magnitude=3.0,
        )
        spiked = inject_flash_crowd(base, spike)
        start = int(12 * 60)
        plateau = start + 10 + 5
        assert spiked.values[plateau] == pytest.approx(base.values[plateau] * 3.0)
        # Before the spike nothing changes.
        assert np.allclose(spiked.values[: start - 1], base.values[: start - 1])
        # Well after the decay nothing changes.
        end = start + 10 + 20 + 30 + 5
        assert np.allclose(spiked.values[end + 5 :], base.values[end + 5 :])

    def test_peaks_scaled_too(self):
        base = generate_b2w_trace(1, seed=4)
        spike = FlashCrowd(start_seconds=3600, magnitude=2.0)
        spiked = inject_flash_crowd(base, spike)
        assert np.all(spiked.peak_values + 1e-9 >= spiked.values)

    def test_rejects_bad_spike(self):
        base = generate_b2w_trace(1)
        with pytest.raises(ConfigurationError):
            FlashCrowd(start_seconds=0, magnitude=0.5)
        with pytest.raises(ConfigurationError):
            inject_flash_crowd(base, FlashCrowd(start_seconds=1e9))
