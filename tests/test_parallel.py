"""Tests for repro.parallel: deterministic process-sharded grids."""

from __future__ import annotations

import multiprocessing
import os

import numpy as np
import pytest

from repro.errors import ParallelExecutionError
from repro.parallel import parallel_map

# Worker functions must be module-level (picklable).


def _square(x: int) -> int:
    return x * x


def _die_in_worker(x: int) -> int:
    """Kill the interpreter when running in a pool worker; fine in the
    parent — simulates an environmental worker death (OOM kill)."""
    if x == 2 and multiprocessing.parent_process() is not None:
        os._exit(1)
    return x * x


def _die_in_worker_bad_cell(x: int) -> int:
    """Dies in the worker AND fails deterministically in the parent —
    the in-process retry must name this cell."""
    if x == 2:
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        raise ValueError("cell is genuinely broken")
    return x * x


def _fail_on_three(x: int) -> int:
    if x == 3:
        raise ValueError("boom at 3")
    return x


def _seeded_draw(seed: int) -> float:
    return float(np.random.default_rng(seed).uniform())


class TestParallelMap:
    def test_serial_matches_list_comprehension(self):
        items = list(range(10))
        assert parallel_map(_square, items) == [x * x for x in items]
        assert parallel_map(_square, items, max_workers=1) == [x * x for x in items]

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_results_identical_across_worker_counts(self, workers):
        """The acceptance contract: same values, same order, for every
        worker count — including more workers than items."""
        items = list(range(7))
        expected = [x * x for x in items]
        assert parallel_map(_square, items, max_workers=workers) == expected

    def test_seeded_work_is_order_stable(self):
        seeds = [1234 + 7919 * i for i in range(6)]
        serial = parallel_map(_seeded_draw, seeds, max_workers=1)
        sharded = parallel_map(_seeded_draw, seeds, max_workers=3)
        assert serial == sharded

    def test_empty_and_single_item(self):
        assert parallel_map(_square, [], max_workers=4) == []
        assert parallel_map(_square, [5], max_workers=4) == [25]

    def test_exception_propagates_serial(self):
        with pytest.raises(ValueError, match="boom at 3"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], max_workers=1)

    def test_exception_propagates_parallel(self):
        with pytest.raises(ValueError, match="boom at 3"):
            parallel_map(_fail_on_three, [1, 2, 3, 4], max_workers=2)

    def test_worker_death_recovers_in_process(self):
        # The pool dies mid-grid; the serial retry succeeds (the death
        # was environmental) and still returns the full ordered result.
        items = list(range(5))
        assert parallel_map(_die_in_worker, items, max_workers=2) == [
            x * x for x in items
        ]

    def test_worker_death_names_the_failing_cell(self):
        with pytest.raises(ParallelExecutionError) as excinfo:
            parallel_map(_die_in_worker_bad_cell, list(range(5)), max_workers=2)
        message = str(excinfo.value)
        assert "cell 2" in message and "(2)" in message
        assert "genuinely broken" in message
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_consumes_any_iterable(self):
        assert parallel_map(_square, (x for x in range(4)), max_workers=2) == [
            0,
            1,
            4,
            9,
        ]


class TestExperimentSharding:
    """The ablation grids must be worker-count invariant end to end."""

    def test_horizon_ablation_parallel_identical(self):
        from repro.experiments.ablations import run_horizon_ablation

        serial = run_horizon_ablation(fast=True)
        sharded = run_horizon_ablation(fast=True, workers=2)
        assert serial == sharded
