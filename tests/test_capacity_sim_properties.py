"""Property-based tests for the capacity simulator.

Whatever moves a (possibly erratic) controller requests, the simulator's
accounting invariants must hold: allocation bounded, effective capacity
bounded by the move endpoints, cost equal to the allocation integral,
and the reconfiguration flag consistent with the moves executed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import SystemParameters
from repro.errors import MigrationError
from repro.simulation.capacity_sim import CapacitySimulator
from repro.workloads.trace import LoadTrace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)
MAX_MACHINES = 12


class Scripted:
    """Replays an arbitrary list of (interval, target) requests, in flight
    or not; the simulator refuses what the engine would."""

    def __init__(self, script):
        self.script = dict(script)

    def on_slot(self, sim, slot_index, measured_count):
        if slot_index in self.script:
            try:
                sim.start_move(self.script[slot_index])
            except MigrationError:
                pass


@st.composite
def scripted_runs(draw):
    intervals = draw(st.integers(10, 60))
    initial = draw(st.integers(1, MAX_MACHINES))
    n_requests = draw(st.integers(0, 8))
    script = {
        draw(st.integers(0, intervals - 1)): draw(st.integers(1, MAX_MACHINES))
        for _ in range(n_requests)
    }
    load_machines = draw(
        st.lists(st.floats(0.1, 10.0), min_size=intervals, max_size=intervals)
    )
    return intervals, initial, script, np.array(load_machines)


@given(scripted_runs())
@settings(max_examples=100, deadline=None)
def test_accounting_invariants(run_spec):
    intervals, initial, script, load_machines = run_spec
    trace = LoadTrace(
        load_machines * PARAMS.q * PARAMS.interval_seconds,
        slot_seconds=PARAMS.interval_seconds,
    )
    simulator = CapacitySimulator(PARAMS, max_machines=MAX_MACHINES)
    result = simulator.run(trace, Scripted(script), initial_machines=initial)

    # Allocation bounded by [1, max_machines].
    assert np.all(result.allocated >= 1.0 - 1e-9)
    assert np.all(result.allocated <= MAX_MACHINES + 1e-9)
    # Effective machine-equivalents bounded the same way.
    assert np.all(result.effective_machines >= 1.0 - 1e-9)
    assert np.all(result.effective_machines <= MAX_MACHINES + 1e-9)
    # Cost is exactly the allocation integral.
    assert result.cost == pytest.approx(float(result.allocated.sum()))
    # Target machines change only across reconfigurations.
    changes = np.flatnonzero(np.diff(result.target_machines))
    for idx in changes:
        assert result.reconfiguring[idx] or result.reconfiguring[idx + 1]
    # Outside reconfigurations, effective == allocated == target.
    steady = ~result.reconfiguring
    assert np.allclose(
        result.effective_machines[steady], result.allocated[steady]
    )
    assert np.allclose(result.allocated[steady], result.target_machines[steady])


@given(scripted_runs())
@settings(max_examples=50, deadline=None)
def test_violation_counting_consistent(run_spec):
    intervals, initial, script, load_machines = run_spec
    trace = LoadTrace(
        load_machines * PARAMS.q * PARAMS.interval_seconds,
        slot_seconds=PARAMS.interval_seconds,
    )
    simulator = CapacitySimulator(PARAMS, max_machines=MAX_MACHINES)
    result = simulator.run(trace, Scripted(script), initial_machines=initial)
    mask = result.insufficient_mask()
    assert result.pct_time_insufficient == pytest.approx(100.0 * mask.mean())
    # A violation requires peak load above the Q_hat capacity.
    over = result.peak_load_rate > result.effective_machines * PARAMS.q_max
    assert np.array_equal(mask, over | mask)  # mask subset of 'over' + tol
