"""Tests for repro.core.params (Section 4.1 model parameters)."""

import pytest

from repro.core.params import (
    PAPER_DB_SIZE_KB,
    PAPER_PARAMETERS,
    SystemParameters,
)
from repro.engine.migration import MigrationConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_match_paper(self):
        assert PAPER_PARAMETERS.q == pytest.approx(284.7)
        assert PAPER_PARAMETERS.q_max == pytest.approx(350.4)
        assert PAPER_PARAMETERS.d_seconds == 4646.0
        assert PAPER_PARAMETERS.partitions_per_node == 6

    def test_rejects_non_positive_q(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(q=0.0)

    def test_rejects_q_max_below_q(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(q=300.0, q_max=200.0)

    def test_rejects_bad_d(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(d_seconds=-1.0)

    def test_rejects_bad_partitions(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(partitions_per_node=0)

    def test_rejects_bad_interval(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(interval_seconds=0.0)

    def test_rejects_negative_max_machines(self):
        with pytest.raises(ConfigurationError):
            SystemParameters(max_machines=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            PAPER_PARAMETERS.q = 1.0  # type: ignore[misc]


class TestFromSaturation:
    def test_paper_fractions(self):
        params = SystemParameters.from_saturation(438.0)
        assert params.q == pytest.approx(438.0 * 0.65)
        assert params.q_max == pytest.approx(438.0 * 0.80)

    def test_custom_fractions(self):
        params = SystemParameters.from_saturation(400.0, q_fraction=0.5, q_max_fraction=0.9)
        assert params.q == pytest.approx(200.0)
        assert params.q_max == pytest.approx(360.0)

    def test_rejects_bad_saturation(self):
        with pytest.raises(ConfigurationError):
            SystemParameters.from_saturation(0.0)

    def test_rejects_inverted_fractions(self):
        with pytest.raises(ConfigurationError):
            SystemParameters.from_saturation(438.0, q_fraction=0.9, q_max_fraction=0.5)

    def test_forwards_kwargs(self):
        params = SystemParameters.from_saturation(438.0, interval_seconds=60.0)
        assert params.interval_seconds == 60.0


class TestDerived:

    def test_migration_rate_matches_paper(self):
        # 1106 MB in 4646 s is the paper's R = 244 kB/s, the rate the
        # engine's migrations pace at.
        rate = PAPER_DB_SIZE_KB / PAPER_PARAMETERS.d_seconds
        assert rate == pytest.approx(243.8, abs=0.5)
        assert rate == pytest.approx(MigrationConfig().rate_kbps, abs=0.5)

    def test_machines_for_load(self, params):
        assert params.machines_for_load(0.0) == 1
        assert params.machines_for_load(params.q) == 1
        assert params.machines_for_load(params.q + 0.001) == 2
        assert params.machines_for_load(10 * params.q) == 10

    def test_intervals_rounds_up(self, params):
        assert params.intervals(1.0) == 1
        assert params.intervals(300.0) == 1
        assert params.intervals(300.1) == 2
        assert params.intervals(900.0) == 3
