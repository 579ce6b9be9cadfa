"""Queueing-theoretic latency model for the simulated engine.

Each partition is a single-server queue: transactions arrive at the
partition's routed share of the offered load and are served at the
partition's service rate, reduced by whatever fraction of the step the
partition spent doing migration work.  Two pieces:

* a *fluid* backlog update — deterministic conservation of work, which
  produces the throughput collapse and latency climb under overload that
  Figures 7 and 9 show; and
* a latency *distribution* per step — a shifted exponential whose shift
  is the deterministic queueing delay (backlog drain + base service time
  + migration blocking) and whose tail is the M/M/1 sojourn rate
  ``mu - lambda``, from which the simulator extracts p50/p95/p99 of the
  cluster-wide mixture.

Everything is vectorized over partitions; the mixture quantile uses a
bisection on the closed-form CDF, so the simulator is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Floor on the exponential tail rate, as a fraction of the service rate.
#: Under overload the sojourn distribution is dominated by the
#: deterministic backlog delay; the residual tail stays finite.
MIN_TAIL_FRACTION = 0.05


def fluid_queue_step(
    backlog: np.ndarray,
    offered: np.ndarray,
    service_rate: np.ndarray,
    dt: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Advance the fluid queues by one step.

    Args:
        backlog: Outstanding work (transactions) per partition.
        offered: Arrival rate per partition, txn/s.
        service_rate: Effective service rate per partition, txn/s
            (already discounted for migration blocking).
        dt: Step length, seconds.

    Returns:
        ``(new_backlog, served)`` — served is in transactions (not a rate).
    """
    arrivals = offered * dt
    service_capacity = service_rate * dt
    served = np.minimum(backlog + arrivals, service_capacity)
    new_backlog = backlog + arrivals - served
    return new_backlog, served


def fluid_queue_batch(
    backlog: np.ndarray,
    offered: np.ndarray,
    service_rate: np.ndarray,
    dt: float,
    steps: int,
    max_backlog: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Advance the fluid queues ``steps`` times under constant rates.

    The recurrence is inherently sequential in time, so this runs the
    same per-step ufunc expressions as :func:`fluid_queue_step` (plus the
    simulator's backlog clamp) over an ``(S, P)`` record — every row is
    bit-identical to what ``steps`` individual calls would produce, which
    is what lets the engine's batched slot kernel honour the exact-
    stepping contract (tests/test_fast_path.py).

    Args:
        backlog: Backlog per partition at the start of the batch.
        offered: Arrival rate per partition, txn/s (constant over batch).
        service_rate: Effective service rate per partition, txn/s.
        dt: Step length, seconds.
        steps: Number of steps to advance (``S``).
        max_backlog: Optional per-partition backlog clamp applied after
            every step (the simulator's closed-loop queue bound).

    Returns:
        ``(pre, served, final)`` — ``pre[s]`` is the backlog *before*
        step ``s`` (shape ``(S, P)``), ``served[s]`` the transactions
        served in step ``s``, and ``final`` the backlog after the last
        step.
    """
    num = len(backlog)
    pre = np.empty((steps, num))
    served = np.empty((steps, num))
    b = backlog
    for s in range(steps):
        pre[s] = b
        b, sv = fluid_queue_step(b, offered, service_rate, dt)
        if max_backlog is not None:
            np.minimum(b, max_backlog, out=b)
        served[s] = sv
    return pre, served, b


@dataclass
class LatencyComponents:
    """Per-partition shifted-exponential latency parameters for one step.

    ``delay`` (seconds) is the deterministic part; ``tail_rate`` (1/s) the
    exponential part; ``weight`` the partition's share of arrivals.
    Partitions experiencing a migration chunk block contribute a second
    component shifted by the block length (transactions arriving during
    the block wait it out).
    """

    weights: np.ndarray
    delays: np.ndarray
    tail_rates: np.ndarray


def latency_components(
    backlog: np.ndarray,
    offered: np.ndarray,
    service_rate: np.ndarray,
    *,
    base_service_s: float,
    block_seconds: Optional[np.ndarray] = None,
    block_weight: Optional[np.ndarray] = None,
) -> LatencyComponents:
    """Build the latency mixture for one step.

    Args:
        backlog: Backlog *before* this step's arrivals.
        offered: Arrival rate per partition, txn/s.
        service_rate: Effective service rate per partition, txn/s.
        base_service_s: Minimum service latency (the paper adds an
            artificial per-transaction delay; Section 7).
        block_seconds: Length of the largest migration block affecting
            each partition this step (0 where none).
        block_weight: Fraction of the step each partition spent blocked.

    Returns:
        Mixture components with weights summing to 1 (over partitions
        with any arrivals).
    """
    mu = np.maximum(service_rate, 1e-9)
    queue_delay = backlog / mu
    delays = base_service_s + queue_delay
    slack = mu - offered
    tail_rates = np.maximum(slack, MIN_TAIL_FRACTION * mu)

    total = float(offered.sum())
    if total <= 0:
        # No arrivals anywhere: degenerate mixture at the base service time.
        weights = np.full(len(offered), 1.0 / max(len(offered), 1))
    else:
        weights = offered / total

    if block_seconds is None or not np.any(block_seconds > 0):
        return LatencyComponents(weights, delays, tail_rates)

    if block_weight is None:
        raise ConfigurationError("block_weight required when block_seconds given")
    blocked = block_seconds > 0
    frac = np.clip(block_weight[blocked], 0.0, 1.0)
    reduced = weights.copy()
    reduced[blocked] = reduced[blocked] * (1.0 - frac)
    extra_weights = weights[blocked] * frac
    all_weights = np.concatenate([reduced, extra_weights])
    all_delays = np.concatenate([delays, delays[blocked] + block_seconds[blocked]])
    all_rates = np.concatenate([tail_rates, tail_rates[blocked]])
    return LatencyComponents(all_weights, all_delays, all_rates)


def latency_components_steps(
    backlogs: np.ndarray,
    offered: np.ndarray,
    service_rate: np.ndarray,
    *,
    base_service_s: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latency mixtures for many steps sharing arrival and service rates.

    The batched slot kernel evaluates a whole migration-free slot at
    once: rates are constant, only the backlog varies per step.  Returns
    ``(weights, delays, tail_rates)`` where ``weights`` and
    ``tail_rates`` have shape ``(P,)`` and ``delays`` has shape
    ``(S, P)`` — row ``s`` holds exactly the values
    :func:`latency_components` would produce for ``backlogs[s]``
    (elementwise ufuncs are shape-independent, so the broadcast is
    bit-identical to per-step evaluation).  Blocking is not supported:
    blocked steps must go through the exact path.
    """
    mu = np.maximum(service_rate, 1e-9)
    queue_delay = backlogs / mu
    delays = base_service_s + queue_delay
    slack = mu - offered
    tail_rates = np.maximum(slack, MIN_TAIL_FRACTION * mu)
    total = float(offered.sum())
    if total <= 0:
        weights = np.full(len(offered), 1.0 / max(len(offered), 1))
    else:
        weights = offered / total
    return weights, delays, tail_rates


#: Bisection iterations; the bracket shrinks by 2^-40, ~1e-11 absolute on
#: second-scale latencies.
_BISECT_ITERS = 40
#: Below this many (component, quantile) pairs a scalar bisection beats
#: the vectorized one (numpy call overhead dominates tiny arrays).
_SCALAR_BISECTION_THRESHOLD = 32


def merge_components(
    weights: np.ndarray, delays: np.ndarray, tail_rates: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse identical ``(delay, rate)`` components into classes.

    Partitions almost always fall into a handful of classes (uniform,
    migration sender, migration receiver), so the quantile search only
    ever sees a tiny mixture.  Keys are rounded to 9 decimals; when no
    two components collide the originals are returned untouched.

    Vectorized: the rounded ``(delay, rate)`` pairs are packed into one
    complex key so a single ``np.unique`` does the group-and-sort (the
    lexicographic complex sort matches sorting the key tuples), and
    ``np.bincount`` sums each class's weights in ascending index order.
    A fleet-uniform cluster (every partition in one class) short-circuits
    before the sort.
    """
    n = len(weights)
    if n <= 1:
        return weights, delays, tail_rates
    dk = np.round(delays, 9)
    rk = np.round(tail_rates, 9)
    if dk[0] == dk[-1] and rk[0] == rk[-1]:
        # Cheap uniform-cluster fast path: one class covers everything.
        if (dk == dk[0]).all() and (rk == rk[0]).all():
            merged_w = np.bincount(np.zeros(n, dtype=np.intp), weights=weights)
            return merged_w, dk[:1], rk[:1]
    key = dk + 1j * rk
    classes, inverse = np.unique(key, return_inverse=True)
    m = len(classes)
    if m == n:
        return weights, delays, tail_rates
    merged_w = np.bincount(inverse, weights=weights, minlength=m)
    return merged_w, np.ascontiguousarray(classes.real), np.ascontiguousarray(classes.imag)


def _scalar_bisect(
    wl: list, dl: list, rl: list, quantiles: Sequence[float], hi: float
) -> np.ndarray:
    """Plain-Python bisection — fastest for the tiny merged mixtures."""
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


def _upper_bracket(d: np.ndarray, r: np.ndarray, q_max: float) -> float:
    """Bisection upper bound: every component's own ``q_max``-quantile is
    a bound when all mass were in it; take the max over components."""
    return float(np.max(d - np.log(max(1.0 - q_max, 1e-12)) / r)) + 1e-9


def _bisect_many(
    w2: np.ndarray,
    d2: np.ndarray,
    r2: np.ndarray,
    qs: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Vectorized bisection over ``K`` mixtures with a common class count.

    ``w2``/``d2``/``r2`` have shape ``(K, C)``, ``hi`` shape ``(K,)``;
    returns ``(K, Q)``.  Every operation is an elementwise ufunc or a
    last-axis reduction, so a ``K == 1`` call and a batched call produce
    bit-identical rows — the batched slot kernel relies on this.
    """
    lo_b = np.zeros((len(hi), len(qs)))
    hi_b = np.broadcast_to(hi[:, None], lo_b.shape).copy()
    mid = np.empty_like(lo_b)
    cdf = np.empty_like(lo_b)
    below = np.empty(lo_b.shape, dtype=bool)
    above = np.empty(lo_b.shape, dtype=bool)
    mass = np.empty(lo_b.shape + (d2.shape[-1],))
    delays = d2[:, None, :]
    neg_rates = -r2[:, None, :]
    weights = w2[:, None, :]
    for _ in range(_BISECT_ITERS):
        np.add(lo_b, hi_b, out=mid)
        np.multiply(mid, 0.5, out=mid)
        # mass = 1 - exp(-r * max(mid - d, 0)): a component that starts
        # after ``mid`` gets exp(0) = 1, i.e. exactly zero mass.
        np.subtract(mid[:, :, None], delays, out=mass)
        np.maximum(mass, 0.0, out=mass)
        np.multiply(mass, neg_rates, out=mass)
        np.exp(mass, out=mass)
        np.subtract(1.0, mass, out=mass)
        np.multiply(mass, weights, out=mass)
        np.add.reduce(mass, axis=-1, out=cdf)
        np.less(cdf, qs, out=below)
        np.logical_not(below, out=above)
        np.copyto(lo_b, mid, where=below)
        np.copyto(hi_b, mid, where=above)
    return 0.5 * (lo_b + hi_b)


def mixture_quantiles(
    components: LatencyComponents, quantiles: Sequence[float]
) -> np.ndarray:
    """Quantiles of a mixture of shifted exponentials, via bisection.

    The CDF is ``F(x) = sum_i w_i * (1 - exp(-r_i * (x - d_i)))`` for
    ``x > d_i``.  Monotone, so bisection converges deterministically.
    """
    w = components.weights
    d = components.delays
    r = components.tail_rates
    if len(w) == 0:
        return np.zeros(len(quantiles))
    for q in quantiles:
        if not 0 < q < 1:
            raise ConfigurationError(f"quantile must be in (0, 1), got {q}")

    w, d, r = merge_components(w, d, r)

    if len(w) == 1:
        # Single shifted exponential: closed-form quantile.
        return np.array([d[0] - math.log(1.0 - q) / r[0] for q in quantiles])

    hi = _upper_bracket(d, r, max(quantiles))

    if len(w) * len(quantiles) <= _SCALAR_BISECTION_THRESHOLD:
        return _scalar_bisect(w.tolist(), d.tolist(), r.tolist(), quantiles, hi)

    qs = np.asarray(quantiles, dtype=np.float64)
    return _bisect_many(w[None, :], d[None, :], r[None, :], qs, np.full(1, hi))[0]


def mixture_quantiles_steps(
    weights: np.ndarray,
    delays: np.ndarray,
    tail_rates: np.ndarray,
    quantiles: Sequence[float],
) -> np.ndarray:
    """Quantiles for ``S`` per-step mixtures sharing weights and rates.

    ``delays`` has shape ``(S, P)`` (one row per step of a batched slot,
    from :func:`latency_components_steps`); the result has shape
    ``(S, Q)`` where row ``s`` is bit-identical to
    ``mixture_quantiles(LatencyComponents(weights, delays[s],
    tail_rates), quantiles)``:

    * each row is merged by the same :func:`merge_components`;
    * rows under ``_SCALAR_BISECTION_THRESHOLD`` use the same scalar
      bisection the exact path would pick;
    * the remaining rows are grouped by merged class count and solved in
      one :func:`_bisect_many` call per group — the cross-step
      vectorization that makes wide mixtures cheap.
    """
    qs = tuple(quantiles)
    for q in qs:
        if not 0 < q < 1:
            raise ConfigurationError(f"quantile must be in (0, 1), got {q}")
    steps = len(delays)
    out = np.empty((steps, len(qs)))
    q_max = max(qs)
    qs_arr = np.asarray(qs, dtype=np.float64)
    by_count: dict = {}
    for s in range(steps):
        w, d, r = merge_components(weights, delays[s], tail_rates)
        m = len(w)
        if m == 0:
            out[s] = 0.0
        elif m == 1:
            out[s] = [d[0] - math.log(1.0 - q) / r[0] for q in qs]
        elif m * len(qs) <= _SCALAR_BISECTION_THRESHOLD:
            hi = _upper_bracket(d, r, q_max)
            out[s] = _scalar_bisect(w.tolist(), d.tolist(), r.tolist(), qs, hi)
        else:
            by_count.setdefault(m, []).append((s, w, d, r))
    for rows in by_count.values():
        w2 = np.stack([w for _, w, _, _ in rows])
        d2 = np.stack([d for _, _, d, _ in rows])
        r2 = np.stack([r for _, _, _, r in rows])
        hi = (d2 - np.log(max(1.0 - q_max, 1e-12)) / r2).max(-1) + 1e-9
        solved = _bisect_many(w2, d2, r2, qs_arr, hi)
        for i, (s, _, _, _) in enumerate(rows):
            out[s] = solved[i]
    return out


def sample_latencies(
    components: LatencyComponents, uniforms: np.ndarray
) -> np.ndarray:
    """Inverse-CDF sampling: latency (seconds) for each uniform draw.

    The serving layer assigns every admitted request a latency sample by
    drawing ``u ~ U(0, 1)`` from a seeded generator and inverting the
    step's mixture CDF — deterministic given the seed, and distributed
    exactly as the step's latency model.  Uniforms are clipped away from
    the endpoints so the bisection bracket stays finite.
    """
    u = np.clip(np.asarray(uniforms, dtype=np.float64), 1e-9, 1.0 - 1e-9)
    if u.size == 0:
        return np.empty(0)
    return mixture_quantiles(components, u)


def mixture_mean(components: LatencyComponents) -> float:
    """Mean of the latency mixture: ``sum_i w_i * (d_i + 1/r_i)``."""
    w, d, r = components.weights, components.delays, components.tail_rates
    if len(w) == 0:
        return 0.0
    return float(w @ (d + 1.0 / r))
