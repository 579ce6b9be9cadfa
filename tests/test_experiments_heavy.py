"""Shape tests for the heavy evaluation experiments (fast variants).

These run the Figure 9-13 pipelines at reduced scale and assert the
paper's headline orderings.  They are the slowest tests in the suite
(tens of seconds each); the benchmarks run the full-scale versions.
"""

import dataclasses
import hashlib

import pytest

from repro.experiments import (
    fig9_elasticity,
    fig10_latency_cdfs,
    fig11_spike_reaction,
    fig12_cost_capacity,
    fig13_black_friday,
    sec5_model_comparison,
)


#: sha256 of the capacity-simulation results below.  The policies are
#: deterministic, so a refactor of the simulator or of a controller must
#: leave every digest unchanged; a deliberate change re-pins here.
CAPACITY_PINS = {
    "fig12": "88ceb3f814f46ee87385f925587c2a043f46515c448983755f6dfd79db9a4675",
    "fig13": "09c4b4d2b70c6f570ec9281c8bf73eaf67bd5519f68395dca523e037a703fa5a",
    "ext_wiki": "0187e3f7451f11fbecd563f78800ab60d0ac063b6af297bd8e890ab08ab93bf0",
}


def capacity_digest(runs) -> str:
    """Digest of ``(name, CapacitySimResult)`` pairs: the allocation and
    effective-capacity series, bit for bit, and the move count."""
    digest = hashlib.sha256()
    for name, result in runs:
        digest.update(name.encode())
        digest.update(result.allocated.tobytes())
        digest.update(result.effective_machines.tobytes())
        digest.update(str(result.moves).encode())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def fig9_result():
    return fig9_elasticity.run(fast=True)


class TestFig9Table2:
    def test_reactive_worst_elastic_approach(self, fig9_result):
        runs = fig9_result.runs
        assert (
            runs["reactive"].report.violations_p99
            > runs["pstore"].report.violations_p99
        )

    def test_pstore_halves_machines(self, fig9_result):
        runs = fig9_result.runs
        ratio = (
            runs["pstore"].report.average_machines
            / runs["static-10"].report.average_machines
        )
        assert 0.35 < ratio < 0.70  # paper: ~50%

    def test_static4_violates_heavily(self, fig9_result):
        runs = fig9_result.runs
        assert (
            runs["static-4"].report.violations_p99
            > 10 * runs["static-10"].report.violations_p99
        )

    def test_elastic_approaches_actually_move(self, fig9_result):
        assert fig9_result.runs["reactive"].moves > 0
        assert fig9_result.runs["pstore"].moves > 0

    def test_report_renders(self, fig9_result):
        text = fig9_result.format_report()
        assert "Table 2" in text and "pstore" in text


class TestFig10:
    def test_cdf_orderings(self, fig9_result):
        result = fig10_latency_cdfs.run(fig9=fig9_result)
        # Static-10 is the best at the tail; reactive worse than P-Store.
        assert result.median_of_top1("static-10", "p99") <= result.median_of_top1(
            "pstore", "p99"
        )
        assert result.median_of_top1("reactive", "p99") >= result.median_of_top1(
            "pstore", "p99"
        )
        assert "Figure 10" in result.format_report()


class TestFig11:
    def test_boost_reduces_tail_violations(self):
        result = fig11_spike_reaction.run(fast=True)
        normal = result.runs["rate-R"].report
        boosted = result.runs["rate-Rx8"].report
        assert boosted.violations_p99 < normal.violations_p99
        total_normal = (
            normal.violations_p50 + normal.violations_p95 + normal.violations_p99
        )
        total_boosted = (
            boosted.violations_p50 + boosted.violations_p95 + boosted.violations_p99
        )
        assert total_boosted < total_normal


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_cost_capacity.run(fast=True)

    def test_oracle_bounds_spar(self, result):
        for q in (0.65,):
            spar = next(
                p for p in result.points
                if p.strategy == "pstore-spar" and p.parameter == q
            )
            oracle = next(
                p for p in result.points
                if p.strategy == "pstore-oracle" and p.parameter == q
            )
            assert oracle.pct_time_insufficient <= spar.pct_time_insufficient + 0.05

    def test_q_sweep_trades_cost_for_capacity(self, result):
        spar_points = sorted(
            (p for p in result.points if p.strategy == "pstore-spar"),
            key=lambda p: p.parameter,
        )
        costs = [p.cost for p in spar_points]
        assert costs == sorted(costs, reverse=True)  # higher Q -> cheaper

    def test_reactive_dominated_by_pstore(self, result):
        spar = result.default_point("pstore-spar")
        reactive = result.default_point("reactive")
        # At comparable cost, reactive violates more.
        assert reactive.pct_time_insufficient > spar.pct_time_insufficient
        assert reactive.cost < 1.2 * spar.cost

    def test_static_extremes(self, result):
        statics = {p.parameter: p for p in result.points if p.strategy == "static"}
        assert statics[4].pct_time_insufficient > 10.0
        assert statics[12].pct_time_insufficient < 1.0
        assert statics[12].cost > 2.0 * statics[4].cost

    def test_every_point_matches_pin(self, result):
        rows = repr([dataclasses.astuple(p) for p in result.points])
        assert hashlib.sha256(rows.encode()).hexdigest() == CAPACITY_PINS["fig12"]


class TestFig13:
    def test_black_friday_story(self):
        result = fig13_black_friday.run(fast=True)
        regular = {
            n: result.window_stats(n, result.regular_window) for n in result.results
        }
        friday = {
            n: result.window_stats(n, result.black_friday_window)
            for n in result.results
        }
        # Simple looks fine on a regular window but breaks on the surge.
        assert regular["simple"].pct_time_insufficient < 3.0
        assert (
            friday["simple"].pct_time_insufficient
            > regular["simple"].pct_time_insufficient
        )
        # P-Store (predictive + reactive fallback) handles Black Friday.
        assert friday["pstore-spar"].pct_time_insufficient <= 0.5
        # Static cannot absorb the surge.
        assert friday["static"].pct_time_insufficient > 0.5
        assert capacity_digest(result.results.items()) == CAPACITY_PINS["fig13"]


class TestSec5:
    def test_spar_wins(self):
        result = sec5_model_comparison.run(fast=True)
        assert result.mre_pct["spar"] < result.mre_pct["arma"]
        assert result.mre_pct["spar"] < result.mre_pct["ar"]
        assert result.mre_pct["spar"] < result.mre_pct["persistence"]


class TestExtWikipedia:
    def test_pipeline_generalizes(self):
        from repro.experiments import ext_wikipedia_provisioning

        result = ext_wikipedia_provisioning.run(fast=True)
        for language in ("en", "de"):
            by = result.results[language]
            assert by["pstore-spar"].cost < 0.75 * by["static-10"].cost
            assert by["pstore-spar"].pct_time_insufficient < 2.0
        assert (
            result.results["de"]["pstore-spar"].pct_time_insufficient
            >= result.results["en"]["pstore-spar"].pct_time_insufficient
        )
        runs = [
            (f"{language}/{name}", run)
            for language, by in result.results.items()
            for name, run in by.items()
        ]
        assert capacity_digest(runs) == CAPACITY_PINS["ext_wiki"]
