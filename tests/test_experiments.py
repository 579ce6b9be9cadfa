"""Smoke + shape tests for the experiment harness (fast variants).

Each experiment must run end to end and reproduce the paper's
*qualitative* claims; absolute numbers live in EXPERIMENTS.md.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments import (
    ablations,
    fig1_load_trace,
    fig2_ideal_capacity,
    fig3_planner_goal,
    fig4_effective_capacity,
    fig5_spar_b2w,
    fig6_spar_wikipedia,
    fig7_saturation,
    fig8_chunk_size,
    registry,
    sec81_uniformity,
    table1_schedule,
)


class TestFig1:
    def test_trace_shape(self):
        result = fig1_load_trace.run()
        assert 1.5e4 < result.peak_per_minute < 4e4
        assert 6 < result.peak_to_trough < 18
        assert result.day_shape_correlation > 0.8
        assert "Figure 1" in result.format_report()


class TestFig2:
    def test_step_function_covers_demand(self):
        result = fig2_ideal_capacity.run(fast=True)
        assert np.all(result.stepped_servers * result.q >= result.demand)
        assert result.avg_stepped_servers >= result.avg_ideal_servers
        # Integrality costs little (the paper's point: the step function
        # approximates the ideal curve well).
        assert result.avg_stepped_servers < 1.25 * result.avg_ideal_servers


class TestFig3:
    def test_planner_goal(self):
        result = fig3_planner_goal.run()
        assert result.plan.moves[0].before == 2
        assert result.final_machines == 4
        assert result.capacity_always_exceeds_demand()


class TestFig4:
    def test_three_cases(self):
        result = fig4_effective_capacity.run()
        small = result.profiles[(3, 5)]
        large = result.profiles[(3, 14)]
        assert small.schedule.num_rounds == 3
        assert large.schedule.num_rounds == 11
        # Effective capacity lags allocation much more for the big move.
        gap_small = max(small.machines_allocated) - max(small.effective_machines)
        lag_large = max(
            a - e for a, e in zip(large.machines_allocated, large.effective_machines)
        )
        assert lag_large > gap_small
        # Time in units of D matches Figure 4's x-axis scale (~0.2-0.27 D).
        assert 0.15 < small.duration_in_d < 0.30
        assert 0.15 < large.duration_in_d < 0.30


class TestTable1:
    def test_schedule(self):
        result = table1_schedule.run()
        assert result.schedule.num_rounds == 11
        assert result.naive_rounds == 12
        assert result.rounds_by_phase == {1: 6, 2: 2, 3: 3}


class TestFig5:
    def test_spar_accuracy_band(self):
        result = fig5_spar_b2w.run(fast=True)
        taus = sorted(result.mre_pct)
        # Error grows with horizon and stays in the paper's band.
        assert result.mre_pct[taus[0]] <= result.mre_pct[taus[-1]]
        assert 2.0 < result.mre_pct[taus[-1]] < 20.0
        assert len(result.day_forecast) > 0


class TestFig6:
    def test_english_more_predictable(self):
        result = fig6_spar_wikipedia.run(fast=True)
        for tau in result.taus:
            assert result.mre_pct["en"][tau] < result.mre_pct["de"][tau]


class TestFig7:
    def test_saturation_procedure(self):
        result = fig7_saturation.run(fast=True)
        assert 350 < result.saturation_rate < 500  # paper: 438
        assert result.derived.q_max == pytest.approx(0.8 * result.saturation_rate)
        assert result.derived.q == pytest.approx(0.65 * result.saturation_rate)
        # Latency explodes past saturation.
        last = result.levels[-1]
        assert last.p99_ms > 1000
        assert last.served < last.offered


class TestFig8:
    def test_chunk_size_tradeoff(self):
        result = fig8_chunk_size.run(fast=True)
        by = result.by_chunk()
        static = by[None]
        small = by[1000.0]
        large = by[8000.0]
        # 1000 kB chunks stay close to static and within the SLA.
        assert small.p99_ms_max < 500.0
        assert small.p99_ms_max < 2.0 * static.p99_ms_max
        # Large chunks spike badly.
        assert large.p99_ms_max > 2.0 * small.p99_ms_max


class TestSec81:
    def test_uniformity(self):
        result = sec81_uniformity.run(fast=True)
        # Access skew is modest (the fast variant uses 10x fewer keys so
        # the sampling noise is ~3x the full run's); data skew is smaller.
        assert result.access_report["max_over_mean_pct"] < 35.0
        assert (
            result.data_report["max_over_mean_pct"]
            < result.access_report["max_over_mean_pct"]
        )


#: sha256 of ``repr`` of each ablation's cells (floats repr exactly, so
#: equal digests mean equal results).  A refactor of the policies must
#: leave them unchanged; a deliberate change re-pins here.
ABLATION_PINS = {
    "effcap": "a6930c554b2e11ebd752868f73ca47481fe44b4022f0709c828d715f3b430c5b",
    "schedule": "fa50d208984c9882cb7793177e26caa4a220defb71adad191a0a72b03277e5f5",
    "horizon": "1ff453d893901b5b614b08ecba08bf2c47fe72b1e35d1071f06d4fcac57572d7",
    "greedy": "755f82e56358d58ec0035fbddd845d4e0dc89adc14dfeb9b0026952ee335506b",
    "policy": "b36276a18c38508b6e3d444ed0ad60367b9a69feef2a0c6e5552a3dc5bc2f9ca",
}


def pin_of(cells) -> str:
    return hashlib.sha256(repr(cells).encode()).hexdigest()


class TestAblations:
    def test_effcap_ablation(self):
        result = ablations.run_effcap_ablation()
        assert result.naive_true_violations > 0
        assert result.aware_true_violations == 0
        assert pin_of(result) == ABLATION_PINS["effcap"]

    def test_schedule_ablation(self):
        result = ablations.run_schedule_ablation(max_nodes=12)
        assert result.cases
        assert result.total_saved_rounds > 0
        for _, _, optimal, naive in result.cases:
            assert optimal < naive
        assert pin_of(result.cases) == ABLATION_PINS["schedule"]

    def test_horizon_ablation(self):
        result = ablations.run_horizon_ablation(fast=True)
        by_h = {int(p.label): p for p in result.points}
        shortest, adequate = min(by_h), max(by_h)
        # A window shorter than a move's duration blocks scale-ins, so
        # the cluster stays over-provisioned: short windows cost money.
        assert by_h[shortest].cost > 1.02 * by_h[adequate].cost
        assert (
            by_h[shortest].pct_time_insufficient
            >= by_h[adequate].pct_time_insufficient
        )
        assert pin_of(result.points) == ABLATION_PINS["horizon"]

    def test_greedy_ablation(self):
        result = ablations.run_greedy_ablation(fast=True)
        # The DP dominates the greedy peak rule: cheaper, no worse on
        # violations, and fewer reconfigurations.
        assert result.dp_point.cost < result.greedy_point.cost
        assert (
            result.dp_point.pct_time_insufficient
            <= result.greedy_point.pct_time_insufficient + 1e-9
        )
        assert result.cost_savings_pct > 0
        assert pin_of([result.dp_point, result.greedy_point]) == ABLATION_PINS["greedy"]

    def test_policy_ablation(self):
        result = ablations.run_policy_ablation(fast=True)
        by_conf = {p.label: p for p in result.confirmation}
        # Confirmation reduces reconfiguration churn.
        assert by_conf["3"].moves < by_conf["1"].moves
        by_infl = {p.label: p for p in result.inflation}
        # More inflation costs more but violates less (or equal).
        assert by_infl["30%"].cost > by_infl["0%"].cost
        assert (
            by_infl["30%"].pct_time_insufficient
            <= by_infl["0%"].pct_time_insufficient
        )
        cells = result.confirmation + result.inflation
        assert pin_of(cells) == ABLATION_PINS["policy"]


class TestRegistry:
    def test_all_experiments_registered(self):
        ids = {spec.experiment_id for spec in registry.list_experiments()}
        assert {
            "fig1", "fig2", "fig3", "fig4", "table1", "fig5", "fig6", "sec5",
            "fig7", "fig8", "sec81", "fig9", "fig10", "fig11", "fig12",
            "fig13", "ablations",
        } <= ids

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            registry.get("fig99")
