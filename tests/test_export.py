"""Tests for CSV export of simulation results."""

import csv

import numpy as np
import pytest

from repro.core.params import SystemParameters
from repro.engine.simulator import EngineConfig, EngineSimulator
from repro.simulation import (
    CapacitySimulator,
    export_capacity_result,
    export_run_result,
)
from repro.workloads.trace import LoadTrace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)


class TestRunResultExport:
    def test_round_trip(self, tmp_path):
        sim = EngineSimulator(EngineConfig(max_nodes=2), initial_nodes=1)
        trace = LoadTrace(np.full(5, 100.0 * 6), slot_seconds=6.0)
        result = sim.run(trace)
        path = export_run_result(result, tmp_path / "run.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(result.time)
        assert float(rows[0]["offered_txn_s"]) == pytest.approx(100.0)
        assert set(rows[0]) >= {
            "time_s", "served_txn_s", "p99_ms", "machines", "reconfiguring"
        }

    def test_reconfiguring_flag_exported(self, tmp_path):
        sim = EngineSimulator(EngineConfig(max_nodes=4), initial_nodes=2)
        sim.start_move(4)
        trace = LoadTrace(np.full(10, 100.0 * 6), slot_seconds=6.0)
        result = sim.run(trace)
        path = export_run_result(result, tmp_path / "run.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows[0]["reconfiguring"] == "1"


class TestCapacityResultExport:
    def test_round_trip(self, tmp_path):
        trace = LoadTrace(
            np.full(10, 1.5 * PARAMS.q * 300.0), slot_seconds=300.0
        )
        result = CapacitySimulator(PARAMS, max_machines=8).run(trace, initial_machines=2)
        path = export_capacity_result(result, tmp_path / "cap.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10
        assert int(rows[0]["target_machines"]) == 2
        assert float(rows[0]["load_txn_s"]) == pytest.approx(1.5 * PARAMS.q)
        assert rows[0]["insufficient"] == "0"
