"""Tests for the fluid-queue latency model."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import queueing
from repro.engine.queueing import (
    _BISECT_ITERS,
    _SCALAR_BISECTION_THRESHOLD,
    LatencyComponents,
    _bisect_many,
    _scalar_bisect,
    _upper_bracket,
    fluid_queue_batch,
    fluid_queue_step,
    latency_components,
    latency_components_steps,
    merge_components,
    mixture_mean,
    mixture_quantiles,
    mixture_quantiles_steps,
    sample_latencies,
)
from repro.errors import ConfigurationError


class TestFluidQueue:
    def test_underload_serves_everything(self):
        backlog = np.array([0.0])
        new_backlog, served = fluid_queue_step(
            backlog, np.array([50.0]), np.array([100.0]), dt=1.0
        )
        assert served[0] == pytest.approx(50.0)
        assert new_backlog[0] == pytest.approx(0.0)

    def test_overload_accumulates(self):
        backlog = np.array([0.0])
        new_backlog, served = fluid_queue_step(
            backlog, np.array([150.0]), np.array([100.0]), dt=1.0
        )
        assert served[0] == pytest.approx(100.0)
        assert new_backlog[0] == pytest.approx(50.0)

    def test_backlog_drains(self):
        backlog = np.array([30.0])
        new_backlog, served = fluid_queue_step(
            backlog, np.array([50.0]), np.array([100.0]), dt=1.0
        )
        assert served[0] == pytest.approx(80.0)
        assert new_backlog[0] == pytest.approx(0.0)

    @given(
        st.floats(0, 1000), st.floats(0, 500), st.floats(1, 500),
        st.floats(0.1, 10),
    )
    @settings(max_examples=100, deadline=None)
    def test_work_conservation(self, backlog, offered, mu, dt):
        new_backlog, served = fluid_queue_step(
            np.array([backlog]), np.array([offered]), np.array([mu]), dt
        )
        # Work in == work out + work queued.
        assert backlog + offered * dt == pytest.approx(served[0] + new_backlog[0])
        assert new_backlog[0] >= -1e-9
        assert served[0] <= mu * dt + 1e-9


class TestLatencyComponents:
    def test_m_m_1_quantiles(self):
        # Single partition, no backlog: latency = base + Exp(mu - lambda).
        components = latency_components(
            np.array([0.0]), np.array([50.0]), np.array([100.0]),
            base_service_s=0.01,
        )
        p50, p99 = mixture_quantiles(components, (0.5, 0.99))
        assert p50 == pytest.approx(0.01 + np.log(2) / 50.0, rel=1e-6)
        assert p99 == pytest.approx(0.01 + np.log(100) / 50.0, rel=1e-6)

    def test_backlog_adds_deterministic_delay(self):
        no_queue = latency_components(
            np.array([0.0]), np.array([50.0]), np.array([100.0]), base_service_s=0.0
        )
        queued = latency_components(
            np.array([200.0]), np.array([50.0]), np.array([100.0]), base_service_s=0.0
        )
        p50_a = mixture_quantiles(no_queue, (0.5,))[0]
        p50_b = mixture_quantiles(queued, (0.5,))[0]
        assert p50_b == pytest.approx(p50_a + 2.0, rel=1e-6)

    def test_latency_monotone_in_load(self):
        previous = 0.0
        for offered in (10.0, 50.0, 80.0, 95.0):
            components = latency_components(
                np.array([0.0]), np.array([offered]), np.array([100.0]),
                base_service_s=0.0,
            )
            p99 = mixture_quantiles(components, (0.99,))[0]
            assert p99 > previous
            previous = p99

    def test_block_widens_tail(self):
        base = latency_components(
            np.array([0.0]), np.array([50.0]), np.array([100.0]),
            base_service_s=0.0,
        )
        blocked = latency_components(
            np.array([0.0]), np.array([50.0]), np.array([100.0]),
            base_service_s=0.0,
            block_seconds=np.array([0.4]),
            block_weight=np.array([0.4]),
        )
        p99_base = mixture_quantiles(base, (0.99,))[0]
        p99_blocked = mixture_quantiles(blocked, (0.99,))[0]
        assert p99_blocked > p99_base + 0.3  # reflects the 0.4 s pause

    def test_block_requires_weight(self):
        with pytest.raises(ConfigurationError):
            latency_components(
                np.array([0.0]), np.array([1.0]), np.array([10.0]),
                base_service_s=0.0, block_seconds=np.array([0.1]),
            )

    def test_weights_normalized(self):
        components = latency_components(
            np.zeros(4), np.array([10.0, 20.0, 30.0, 40.0]), np.full(4, 100.0),
            base_service_s=0.0,
        )
        assert components.weights.sum() == pytest.approx(1.0)

    def test_no_arrivals_degenerates(self):
        components = latency_components(
            np.zeros(2), np.zeros(2), np.full(2, 100.0), base_service_s=0.005
        )
        p50 = mixture_quantiles(components, (0.5,))[0]
        assert p50 >= 0.005


class TestMixtureQuantiles:
    def test_against_monte_carlo(self, rng):
        weights = np.array([0.6, 0.4])
        delays = np.array([0.05, 0.30])
        rates = np.array([40.0, 5.0])
        components = LatencyComponents(weights, delays, rates)
        analytic = mixture_quantiles(components, (0.5, 0.95, 0.99))
        choices = rng.choice(2, size=400_000, p=weights)
        samples = delays[choices] + rng.exponential(1.0 / rates[choices])
        empirical = np.percentile(samples, [50, 95, 99])
        assert np.allclose(analytic, empirical, rtol=0.02)

    def test_mixture_mean(self):
        components = LatencyComponents(
            np.array([0.5, 0.5]), np.array([0.1, 0.2]), np.array([10.0, 20.0])
        )
        expected = 0.5 * (0.1 + 0.1) + 0.5 * (0.2 + 0.05)
        assert mixture_mean(components) == pytest.approx(expected)

    def test_rejects_bad_quantile(self):
        components = LatencyComponents(
            np.array([1.0]), np.array([0.0]), np.array([1.0])
        )
        with pytest.raises(ConfigurationError):
            mixture_quantiles(components, (1.5,))

    def test_quantiles_monotone(self):
        components = LatencyComponents(
            np.array([0.3, 0.7]), np.array([0.0, 0.5]), np.array([3.0, 30.0])
        )
        q = mixture_quantiles(components, (0.1, 0.5, 0.9, 0.99))
        assert list(q) == sorted(q)

    @pytest.mark.parametrize("bad", [0.0, 1.0, float("nan")])
    def test_rejects_quantiles_outside_the_open_unit_interval(self, bad):
        components = LatencyComponents(
            np.array([0.3, 0.7]), np.array([0.0, 0.5]), np.array([3.0, 30.0])
        )
        with pytest.raises(ConfigurationError, match="quantile must be in"):
            mixture_quantiles(components, (0.5, bad))
        with pytest.raises(ConfigurationError, match="quantile must be in"):
            mixture_quantiles_steps(
                components.weights, components.delays[None, :], components.tail_rates, (bad, 0.5)
            )
        # Past a short tuple the check is one vectorised test.
        with pytest.raises(ConfigurationError, match="quantile must be in"):
            mixture_quantiles(components, np.append(np.full(40, 0.5), bad))

    @pytest.mark.parametrize("parts", [2, 9, 40])
    def test_samples_after_a_solve_reuse_its_merge(self, parts, monkeypatch):
        """A tick solves the step's p50/p95/p99, then samples latencies
        from the same mixture: the second call reuses the first's merge
        and returns exactly what a fresh mixture would."""
        rng = np.random.default_rng(parts)
        classes = rng.integers(0, 3, parts)
        weights = rng.dirichlet(np.ones(parts))
        delays = np.array([0.01, 0.02, 0.5])[classes]
        rates = np.array([40.0, 25.0, 9.0])[classes]
        uniforms = rng.random(240)
        fresh = sample_latencies(LatencyComponents(weights, delays, rates), uniforms)

        calls = []
        merge = queueing.merge_components
        monkeypatch.setattr(queueing, "merge_components", lambda *a: calls.append(1) or merge(*a))
        components = LatencyComponents(weights.copy(), delays.copy(), rates.copy())
        mixture_quantiles(components, (0.50, 0.95, 0.99))
        reused = sample_latencies(components, uniforms)
        assert reused.tobytes() == fresh.tobytes()
        assert len(calls) == 1


def one_partition_step(backlog, offered, service_rate, base_service_s=0.005):
    """One step of one partition: ``(backlog, served, [p50, p95, p99])``."""
    mu = np.array([service_rate])
    offered_arr = np.array([offered])
    components = latency_components(
        backlog, offered_arr, mu, base_service_s=base_service_s
    )
    percentiles = mixture_quantiles(components, (0.50, 0.95, 0.99))
    backlog, served = fluid_queue_step(backlog, offered_arr, mu, 1.0)
    return backlog, float(served[0]), percentiles


class TestPartitionQueue:
    def test_steady_state(self):
        backlog = np.zeros(1)
        for _ in range(10):
            backlog, served, percentiles = one_partition_step(
                backlog, 50.0, 100.0, base_service_s=0.01
            )
        assert served == pytest.approx(50.0)
        assert backlog[0] == pytest.approx(0.0)
        assert percentiles[2] > percentiles[0] > 0.01

    def test_overload_latency_grows(self):
        backlog = np.zeros(1)
        previous = 0.0
        for _ in range(5):
            backlog, _, percentiles = one_partition_step(backlog, 150.0, 100.0)
            assert percentiles[0] >= previous
            previous = percentiles[0]
        assert backlog[0] > 0


def _scalar_bisect_reference(wl, dl, rl, quantiles, hi):
    """The indexed loop the zipped ``_scalar_bisect`` replaced, verbatim."""
    m = len(wl)
    out = np.empty(len(quantiles))
    exp = math.exp
    for qi, q in enumerate(quantiles):
        lo, hi_b = 0.0, hi
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi_b)
            cdf = 0.0
            for j in range(m):
                gap = mid - dl[j]
                if gap > 0.0:
                    cdf += wl[j] * (1.0 - exp(-rl[j] * gap))
            if cdf < q:
                lo = mid
            else:
                hi_b = mid
        out[qi] = 0.5 * (lo + hi_b)
    return out


@given(
    n=st.integers(min_value=1, max_value=10),
    n_q=st.integers(min_value=0, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dead=st.integers(min_value=0, max_value=2**10 - 1),
)
@settings(max_examples=80, deadline=None)
def test_scalar_bisect_is_bit_identical_to_the_indexed_loop(n, n_q, seed, dead):
    """``n_q == 0`` solves the step's p50/p95/p99; otherwise ``n_q``
    random quantiles.  Half the delays are zero and the rest up to 2 s,
    so the ``gap > 0`` test goes both ways.  Bit ``j`` of ``dead`` zeroes
    class ``j``'s weight (a partition on an unallocated node), which the
    zipped loop leaves out and the indexed one adds as ``+0.0``."""
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(n))
    w[[bool(dead >> j & 1) for j in range(n)]] = 0.0
    d = rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.5)
    r = rng.uniform(0.05, 300.0, n)
    qs = (0.50, 0.95, 0.99) if n_q == 0 else tuple(rng.uniform(1e-9, 1 - 1e-9, n_q))
    hi = float(_upper_bracket(d, r, max(qs)))
    args = (w.tolist(), d.tolist(), r.tolist(), qs, hi)
    assert _scalar_bisect(*args).tobytes() == _scalar_bisect_reference(*args).tobytes()


class TestBisectionCrossover:
    """The quantile solver picks plain-Python bisection for tiny merged
    mixtures and the vectorized kernel above ``_SCALAR_BISECTION_THRESHOLD``
    units of work.  The two branches evaluate ``exp`` differently
    (``math.exp`` vs ``np.exp``), so they are not bit-equal — but both
    bracket the same root of the same CDF to bisection tolerance, and
    mixtures straddling the crossover must not jump."""

    @staticmethod
    def _random_mixture(rng, n):
        w = rng.dirichlet(np.ones(n))
        d = rng.uniform(0.0, 2.0, n)
        r = rng.uniform(0.05, 50.0, n)
        return w, d, r

    @given(
        n=st.integers(min_value=1, max_value=24),
        n_q=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_scalar_and_vectorized_branches_agree(self, n, n_q, seed):
        rng = np.random.default_rng(seed)
        w, d, r = self._random_mixture(rng, n)
        qs = np.sort(rng.uniform(0.05, 0.995, n_q))
        hi = _upper_bracket(d, r, float(qs.max()))
        scalar = _scalar_bisect(w.tolist(), d.tolist(), r.tolist(), qs, hi)
        vector = _bisect_many(
            w[None, :], d[None, :], r[None, :], qs, np.full(1, hi)
        )[0]
        # After 40 halvings of the same bracket both land within ~hi/2^39
        # of the true quantile; 1e-9 relative to the bracket is generous.
        np.testing.assert_allclose(scalar, vector, rtol=0.0, atol=1e-9 * max(hi, 1.0))

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_no_jump_across_crossover(self, seed):
        """Growing a mixture by one component across the work threshold
        must move the quantiles continuously (the branch switch is an
        implementation detail, not a model change)."""
        rng = np.random.default_rng(seed)
        quantiles = (0.50, 0.95, 0.99)
        # len(w) * len(quantiles) crosses the threshold at n = 11 for 3
        # quantiles; sweep a window around it with distinct (d, r) pairs
        # so merging never collapses components.
        lo_n = _SCALAR_BISECTION_THRESHOLD // len(quantiles) - 2
        results = []
        for n in range(lo_n, lo_n + 5):
            w = np.full(n, 1.0 / n)
            d = np.linspace(0.01, 0.5, n)
            r = np.linspace(5.0, 40.0, n) + rng.uniform(0, 0.1)
            comps = LatencyComponents(w, d, r)
            results.append(mixture_quantiles(comps, quantiles))
        results = np.array(results)
        # Adjacent mixtures differ by one light component; quantiles
        # drift smoothly, never by orders of magnitude.
        steps = np.abs(np.diff(results, axis=0))
        assert float(steps.max()) < 0.5

    @given(
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_mixture_quantiles_matches_cdf(self, n, seed):
        """Whichever branch runs, the returned quantile inverts the
        mixture CDF: F(x_q) ~= q."""
        rng = np.random.default_rng(seed)
        w, d, r = self._random_mixture(rng, n)
        comps = LatencyComponents(w, d, r)
        mw, md, mr = merge_components(w, d, r)
        for q, x in zip((0.5, 0.95, 0.99), mixture_quantiles(comps, (0.5, 0.95, 0.99))):
            gap = x - md
            cdf = float(
                np.sum(mw * np.where(gap > 0, 1.0 - np.exp(-mr * np.maximum(gap, 0.0)), 0.0))
            )
            assert abs(cdf - q) < 1e-6


class TestBatchedKernels:
    """The (S x P) batched slot kernel must equal step-by-step evaluation
    bit for bit (the engine's exact-stepping contract)."""

    @given(
        steps=st.integers(min_value=1, max_value=20),
        parts=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        clamp=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fluid_queue_batch_matches_sequential(self, steps, parts, seed, clamp):
        rng = np.random.default_rng(seed)
        backlog0 = rng.uniform(0.0, 50.0, parts)
        offered = rng.uniform(0.0, 120.0, parts)
        mu = rng.uniform(1.0, 100.0, parts)
        dt = 1.0
        max_backlog = mu * rng.uniform(0.5, 3.0) if clamp else None

        pre, served, final = fluid_queue_batch(
            backlog0, offered, mu, dt, steps, max_backlog=max_backlog
        )

        b = backlog0.copy()
        for s in range(steps):
            np.testing.assert_array_equal(pre[s], b, err_msg=f"pre row {s}")
            b, served_s = fluid_queue_step(b, offered, mu, dt)
            if max_backlog is not None:
                np.minimum(b, max_backlog, out=b)
            np.testing.assert_array_equal(served[s], served_s, err_msg=f"served row {s}")
        np.testing.assert_array_equal(final, b)
        # The input backlog must not have been mutated.
        np.testing.assert_array_equal(backlog0, pre[0])

    @given(
        steps=st.integers(min_value=1, max_value=12),
        parts=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_latency_and_quantile_steps_match_per_step(self, steps, parts, seed):
        rng = np.random.default_rng(seed)
        backlogs = rng.uniform(0.0, 30.0, (steps, parts))
        offered = rng.uniform(0.0, 80.0, parts)
        mu = rng.uniform(1.0, 90.0, parts)
        base = 0.025
        quantiles = (0.50, 0.95, 0.99)

        w, delays, tails = latency_components_steps(
            backlogs, offered, mu, base_service_s=base
        )
        batched = mixture_quantiles_steps(w, delays, tails, quantiles)

        for s in range(steps):
            comps = latency_components(
                backlogs[s], offered, mu, base_service_s=base
            )
            np.testing.assert_array_equal(w, comps.weights)
            np.testing.assert_array_equal(delays[s], comps.delays)
            np.testing.assert_array_equal(tails, comps.tail_rates)
            np.testing.assert_array_equal(
                batched[s],
                mixture_quantiles(comps, quantiles),
                err_msg=f"quantiles row {s} not bit-identical",
            )
