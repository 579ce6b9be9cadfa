"""Tests for the dynamic-programming planner (Algorithms 1-3)."""

import math

import numpy as np
import pytest

import repro.core.capacity as cap
from repro.core.planner import Move, MovePlan, Planner, plan_cost_lower_bound
from repro.errors import ConfigurationError, InfeasiblePlanError


def reference_cost(load, initial, planner):
    """Slow reference: the paper's Algorithms 2/3 as literal recursion.

    Independent implementation (top-down, dict memo) used to verify the
    production bottom-up solver.
    """
    params = planner.params
    q = params.q
    horizon = len(load) - 1
    z = max(initial, max(1, math.ceil(max(load) / q)))
    memo = {}

    def cost(t, after):
        if t < 0 or (t == 0 and after != initial):
            return math.inf
        if load[t] > q * after + 1e-9:
            return math.inf
        if (t, after) in memo:
            return memo[(t, after)]
        if t == 0:
            memo[(t, after)] = float(after)
            return float(after)
        best = math.inf
        for before in range(1, z + 1):
            duration = max(1, cap.move_time_intervals(before, after, params))
            start = t - duration
            if start < 0:
                continue
            feasible = True
            for i in range(1, duration + 1):
                eff = cap.effective_capacity(before, after, i / duration, params)
                if load[start + i] > eff + 1e-9:
                    feasible = False
                    break
            if not feasible:
                continue
            value = cost(start, before) + planner.move_cost(before, after)
            best = min(best, value)
        memo[(t, after)] = best
        return best

    finite = [
        (cost(horizon, final), final) for final in range(1, z + 1)
    ]
    finite = [(c, f) for c, f in finite if math.isfinite(c)]
    if not finite:
        return None
    # Algorithm 1 picks the FEWEST feasible final machines, not min cost.
    return min(finite, key=lambda cf: cf[1])


def check_plan_feasible(plan: MovePlan, load, params):
    """Every interval of every move satisfies the effective-capacity check."""
    assert plan.moves, "plan must tile the horizon"
    assert plan.moves[0].start == 0 or plan.moves[0].start >= 0
    t_cursor = 0
    for move in plan.moves:
        assert move.start == t_cursor
        assert move.end > move.start
        duration = move.end - move.start
        for i in range(1, duration + 1):
            eff = cap.effective_capacity(move.before, move.after, i / duration, params)
            assert load[move.start + i] <= eff + 1e-6
        t_cursor = move.end
    assert t_cursor == plan.horizon


class TestBasicPlans:
    def test_flat_load_holds(self, params):
        planner = Planner(params, max_machines=8)
        load = np.full(7, 1.5 * params.q)
        plan = planner.best_moves(load, initial_machines=2)
        assert plan.final_machines == 2
        assert plan.first_real_move() is None
        assert plan.cost == pytest.approx(2.0 * 7)

    def test_ramp_scales_out(self, params):
        planner = Planner(params, max_machines=16)
        load = np.linspace(200, 2500, 13)
        plan = planner.best_moves(load, initial_machines=1)
        assert plan.final_machines == params.machines_for_load(2500.0)
        check_plan_feasible(plan, load, params)

    def test_declining_load_scales_in(self, params):
        planner = Planner(params, max_machines=16)
        load = np.linspace(2500, 200, 13)
        plan = planner.best_moves(load, initial_machines=9)
        assert plan.final_machines == 1
        check_plan_feasible(plan, load, params)

    def test_scale_out_delayed_as_late_as_possible(self, params):
        planner = Planner(params, max_machines=8)
        q = params.q
        # Load needs 2 machines only at the final interval.
        load = np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.5]) * q
        plan = planner.best_moves(load, initial_machines=1)
        first = plan.first_real_move()
        assert first is not None
        # The move ends exactly when the load arrives, no earlier.
        assert first.end == 6

    def test_final_machines_is_fewest_feasible(self, params):
        planner = Planner(params, max_machines=8)
        q = params.q
        # Peak mid-horizon, low at the end: planner must scale back in.
        load = np.array([1.5, 2.5, 3.5, 3.5, 2.0, 0.9, 0.5]) * q
        plan = planner.best_moves(load, initial_machines=2)
        assert plan.final_machines == 1

    def test_required_final_machines(self, params):
        planner = Planner(params, max_machines=8)
        load = np.full(9, 0.5 * params.q)
        plan = planner.best_moves(load, 2, required_final_machines=4)
        assert plan.final_machines == 4

    def test_required_final_machines_infeasible(self, params):
        planner = Planner(params, max_machines=8)
        load = np.full(9, 0.5 * params.q)
        with pytest.raises(InfeasiblePlanError):
            planner.best_moves(load, 2, required_final_machines=0)


class TestInfeasibility:
    def test_immediate_overload_is_infeasible(self, params):
        planner = Planner(params, max_machines=8)
        load = np.full(5, 5.0 * params.q)
        with pytest.raises(InfeasiblePlanError):
            planner.best_moves(load, initial_machines=1)

    def test_plan_returns_none_when_infeasible(self, params):
        planner = Planner(params, max_machines=8)
        load = np.full(5, 5.0 * params.q)
        assert planner.plan(load, 1) is None

    def test_flash_crowd_too_fast_to_scale(self, params):
        planner = Planner(params, max_machines=16)
        q = params.q
        # Jump from 1 to 10 machines' worth in one interval: no feasible
        # migration can add that much effective capacity in time.
        load = np.array([0.9, 9.5, 9.5, 9.5]) * q
        with pytest.raises(InfeasiblePlanError):
            planner.best_moves(load, initial_machines=1)

    def test_load_beyond_max_machines_is_infeasible(self, params):
        planner = Planner(params, max_machines=4)
        load = np.full(6, 6.0 * params.q)
        with pytest.raises(InfeasiblePlanError):
            planner.best_moves(load, initial_machines=4)


class TestValidation:
    def test_rejects_short_load(self, params):
        planner = Planner(params)
        with pytest.raises(ConfigurationError):
            planner.best_moves(np.array([1.0]), 1)

    def test_rejects_negative_load(self, params):
        planner = Planner(params)
        with pytest.raises(ConfigurationError):
            planner.best_moves(np.array([1.0, -2.0, 1.0]), 1)

    def test_rejects_bad_initial(self, params):
        planner = Planner(params)
        with pytest.raises(ConfigurationError):
            planner.best_moves(np.array([1.0, 1.0]), 0)

    def test_rejects_initial_above_max(self, params):
        planner = Planner(params, max_machines=4)
        with pytest.raises(ConfigurationError):
            planner.best_moves(np.array([1.0, 1.0]), 5)

    def test_rejects_bad_max_machines(self, params):
        with pytest.raises(ConfigurationError):
            Planner(params, max_machines=0)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_recursion(self, params, seed):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(4, 9))
        load = rng.uniform(0.2, 4.0, horizon + 1) * params.q
        initial = int(rng.integers(1, 5))
        load[0] = min(load[0], initial * params.q * 0.95)
        planner = Planner(params, max_machines=10)
        expected = reference_cost(load, initial, planner)
        if expected is None:
            with pytest.raises(InfeasiblePlanError):
                planner.best_moves(load, initial)
            return
        plan = planner.best_moves(load, initial)
        ref_cost, ref_final = expected
        assert plan.final_machines == ref_final
        assert plan.cost == pytest.approx(ref_cost)
        check_plan_feasible(plan, load, params)


class TestPlanStructure:
    def test_moves_tile_horizon(self, params):
        planner = Planner(params, max_machines=8)
        load = np.linspace(0.5, 3.5, 10) * params.q
        plan = planner.best_moves(load, 1)
        check_plan_feasible(plan, load, params)

    def test_coalesced_merges_noops(self, params):
        planner = Planner(params, max_machines=8)
        load = np.full(9, 1.2 * params.q)
        plan = planner.best_moves(load, 2)
        coalesced = plan.coalesced()
        assert len(coalesced) == 1
        assert coalesced[0].start == 0 and coalesced[0].end == 8

    def test_machines_at(self, params):
        planner = Planner(params, max_machines=8)
        q = params.q
        load = np.array([0.5, 0.5, 0.5, 1.5, 1.5, 1.5]) * q
        plan = planner.best_moves(load, 1)
        assert plan.machines_at(0) == 1
        assert plan.machines_at(plan.horizon) == 2

    def test_cost_at_least_lower_bound(self, params):
        planner = Planner(params, max_machines=10)
        rng = np.random.default_rng(7)
        load = (np.linspace(0.3, 2.8, 10) + rng.uniform(-0.05, 0.05, 10)) * params.q
        plan = planner.best_moves(load, 1)
        move_slack = sum(
            abs(m.after - m.before) / 2 for m in plan.moves if not m.is_noop
        )
        assert plan.cost >= plan_cost_lower_bound(load, params) - move_slack - 1e-9

    def test_move_str_and_properties(self):
        move = Move(start=2, end=4, before=3, after=5)
        assert not move.is_noop
        assert move.duration == 2
        assert "scale-out" in str(move)
        hold = Move(start=0, end=1, before=3, after=3)
        assert hold.is_noop
        assert "hold" in str(hold)
