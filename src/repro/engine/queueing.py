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
from functools import cached_property
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

    @cached_property
    def merged(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The mixture's classes (:func:`merge_components`), computed once:
        a step's p50/p95/p99 solve, the tick's latency samples and every
        memo hit that reuses this object share one merge."""
        return merge_components(self.weights, self.delays, self.tail_rates)


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


def _checked_quantiles(quantiles: Sequence[float]) -> np.ndarray:
    """``quantiles`` as a float array; each must lie in ``(0, 1)``."""
    qs = np.asarray(quantiles, dtype=np.float64)
    inside = (qs > 0.0) & (qs < 1.0)  # NaN fails both comparisons
    if not inside.all():
        raise ConfigurationError(f"quantile must be in (0, 1), got {qs[~inside][0]}")
    return qs


def _scalar_bisect(
    wl: list, dl: list, rl: list, quantiles: Sequence[float], hi: float
) -> np.ndarray:
    """Plain-Python bisection — fastest for the tiny merged mixtures.

    The classes are zipped once with their rates negated, so the inner
    loop does no indexing; ``exp((-r) * gap)`` is the product Python
    always evaluated for ``exp(-r * gap)``."""
    terms = tuple(zip(wl, dl, [-r for r in rl]))
    exp = math.exp
    out = []
    for q in quantiles:
        lo, hi_b = 0.0, hi
        for _ in range(_BISECT_ITERS):
            mid = 0.5 * (lo + hi_b)
            cdf = 0.0
            for w, d, neg_r in terms:
                gap = mid - d
                if gap > 0.0:
                    cdf += w * (1.0 - exp(neg_r * gap))
            if cdf < q:
                lo = mid
            else:
                hi_b = mid
        out.append(0.5 * (lo + hi_b))
    return np.array(out, dtype=np.float64)


def _upper_bracket(d: np.ndarray, r: np.ndarray, q_max: float) -> np.ndarray:
    """Bisection upper bound: every component's own ``q_max``-quantile is
    a bound when all mass were in it; take the max over the last (class)
    axis, so a ``(K, C)`` batch gets one bound per row."""
    return (d - np.log(max(1.0 - q_max, 1e-12)) / r).max(-1) + 1e-9


def _class_sum(mass: np.ndarray, slabs: Sequence[np.ndarray], out: np.ndarray) -> None:
    """``out = sum over classes`` of the ``(K, C, Q)`` masses, adding the
    ``C`` terms of each ``(k, q)`` in exactly the order numpy's last-axis
    ``add.reduce`` adds a contiguous class-minor row.

    Below 8 terms numpy's ``pairwise_sum`` adds a row left to right (from
    ``-0.0``, which changes no sum), so the ``C`` class slabs (``slabs``,
    the ``(K, Q)`` views ``mass[:, j]``) are added left to right: ``C - 1``
    ufunc calls over rows of ``Q``.  From 8 terms up numpy switches to
    eight strided accumulators and, above 128, recursive halves; there the
    masses are copied class-minor and reduced by that same call, which is
    two calls whatever ``C`` is.  tests/test_batch_path.py pins both
    branches byte for byte against a class-minor ``sum``.
    """
    if len(slabs) == 1:
        np.copyto(out, slabs[0])
    elif len(slabs) < 8:
        np.add(slabs[0], slabs[1], out)
        for slab in slabs[2:]:
            np.add(out, slab, out)
    else:
        np.add.reduce(np.ascontiguousarray(mass.transpose(0, 2, 1)), axis=-1, out=out)


def _bisect_many(
    w2: np.ndarray,
    d2: np.ndarray,
    r2: np.ndarray,
    qs: np.ndarray,
    hi: np.ndarray,
) -> np.ndarray:
    """Vectorized bisection over ``K`` mixtures with a common class count.

    ``w2``/``d2``/``r2`` have shape ``(K, C)``, ``hi`` shape ``(K,)``;
    returns ``(K, Q)``.  The component masses are laid out
    class-major, ``(K, C, Q)``, so every ufunc runs over rows of ``Q``
    quantiles and the class sum follows numpy's own last-axis order
    (:func:`_class_sum`).  Every operation is elementwise per ``(k, q)``,
    so a ``K == 1`` call and a batched call produce bit-identical rows —
    the batched slot kernel relies on this.

    Nothing in the loop changes a bit of the class-minor formulation; it
    only cuts per-call overhead: the constant operands are materialised
    at the full ``(K, C, Q)`` / ``(K, Q)`` shape (a broadcast operand
    costs a slower loop, a Python float a conversion per call), every
    output is written in place, and ``lo`` / ``hi`` are one ``(2, K, Q)``
    array that a single ``putmask`` updates (``mid`` repeats over its
    leading axis).
    """
    k, classes = w2.shape
    shape = (k, classes, len(qs))
    bounds = np.zeros((2, k, len(qs)))
    bounds[1] = hi[:, None]
    lo_b, hi_b = bounds
    masks = np.empty(bounds.shape, dtype=bool)
    below, above = masks
    mid = np.empty((k, len(qs)))
    cdf = np.empty_like(mid)
    targets = np.broadcast_to(qs, mid.shape).copy()
    mass = np.empty(shape)
    slabs = [mass[:, j] for j in range(classes)]
    mid_classes = mid[:, None, :]
    delays = np.broadcast_to(d2[:, :, None], shape).copy()
    neg_rates = np.broadcast_to(-r2[:, :, None], shape).copy()
    weights = np.broadcast_to(w2[:, :, None], shape).copy()
    half, zero, one = np.array(0.5), np.array(0.0), np.array(1.0)
    for _ in range(_BISECT_ITERS):
        np.add(lo_b, hi_b, mid)
        np.multiply(mid, half, mid)
        # mass = 1 - exp(-r * max(mid - d, 0)): a component that starts
        # after ``mid`` gets exp(0) = 1, i.e. exactly zero mass.
        np.subtract(mid_classes, delays, mass)
        np.maximum(mass, zero, out=mass)
        np.multiply(mass, neg_rates, mass)
        np.exp(mass, mass)
        np.subtract(one, mass, mass)
        np.multiply(mass, weights, mass)
        _class_sum(mass, slabs, cdf)
        np.less(cdf, targets, below)
        np.logical_not(below, above)
        np.putmask(bounds, masks, mid)
    np.add(lo_b, hi_b, mid)
    return np.multiply(mid, half, mid)


def mixture_quantiles(
    components: LatencyComponents, quantiles: Sequence[float]
) -> np.ndarray:
    """Quantiles of a mixture of shifted exponentials, via bisection.

    The CDF is ``F(x) = sum_i w_i * (1 - exp(-r_i * (x - d_i)))`` for
    ``x > d_i``.  Monotone, so bisection converges deterministically.
    """
    if len(components.weights) == 0:
        return np.zeros(len(quantiles))
    qs = _checked_quantiles(quantiles)
    w, d, r = components.merged

    if len(w) == 1:
        # Single shifted exponential: closed-form quantile.
        return np.array([d[0] - math.log(1.0 - q) / r[0] for q in qs.tolist()])

    hi = _upper_bracket(d, r, float(qs.max()))

    if len(w) * len(qs) <= _SCALAR_BISECTION_THRESHOLD:
        return _scalar_bisect(w.tolist(), d.tolist(), r.tolist(), qs.tolist(), float(hi))

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
    qs_arr = _checked_quantiles(quantiles)
    qs = qs_arr.tolist()
    steps = len(delays)
    out = np.empty((steps, len(qs)))
    q_max = float(qs_arr.max())
    by_count: dict = {}
    for s in range(steps):
        w, d, r = merge_components(weights, delays[s], tail_rates)
        m = len(w)
        if m == 0:
            out[s] = 0.0
        elif m == 1:
            out[s] = [d[0] - math.log(1.0 - q) / r[0] for q in qs]
        elif m * len(qs) <= _SCALAR_BISECTION_THRESHOLD:
            hi = float(_upper_bracket(d, r, q_max))
            out[s] = _scalar_bisect(w.tolist(), d.tolist(), r.tolist(), qs, hi)
        else:
            by_count.setdefault(m, []).append((s, w, d, r))
    for rows in by_count.values():
        w2 = np.stack([w for _, w, _, _ in rows])
        d2 = np.stack([d for _, _, d, _ in rows])
        r2 = np.stack([r for _, _, _, r in rows])
        solved = _bisect_many(w2, d2, r2, qs_arr, _upper_bracket(d2, r2, q_max))
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
