"""Metric primitives: counters, gauges and fixed-bucket histograms.

These are deliberately minimal — a name, a float, a dict — because the
engine's hot loop touches them up to once per simulated second.  All
mutation is O(1) (histogram observation is a bisect over a fixed bucket
list) and nothing allocates after the first touch of a metric name.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Default latency-style buckets (milliseconds): sub-SLA decades up to
#: the paper's 500 ms threshold, then the overload tail.
DEFAULT_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
)


def labeled(name: str, **labels: object) -> str:
    """Canonical labelled-metric name: ``name{key="value",...}``.

    The registry stores one metric per *full* name, so a labelled family
    (``serve.admit.shed{node="2"}``) is just a naming convention — but a
    canonical one: keys are sorted and values stringified, so the same
    labels always produce the same registry key, and
    :func:`repro.telemetry.export.render_prometheus` re-emits them as
    real Prometheus labels instead of mangled flat names.
    """
    if not labels:
        return name
    if "{" in name:
        raise ConfigurationError(f"metric {name!r} already carries labels")
    inner = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return f"{name}{{{inner}}}"


def running_sum(total: float, values: np.ndarray) -> float:
    """``total + values[0] + values[1] + ...`` added strictly left to
    right — bit-identical to a Python loop of ``total += v``.

    ``np.sum`` adds pairwise and the builtin ``sum`` is compensated from
    Python 3.12, so neither reproduces a running float total; a cumulative
    sum has to produce every partial result and therefore cannot reorder.
    """
    if len(values) == 0:
        return total
    seeded = np.empty(len(values) + 1)
    seeded[0] = total
    seeded[1:] = values
    return float(np.add.accumulate(seeded)[-1])


def index_counts(indices: np.ndarray) -> List[Tuple[int, int]]:
    """``(value, occurrences)`` for each value present in an array of
    small non-negative ints, ascending — what a per-request loop bumping
    one labelled counter per value adds up to."""
    counts = np.bincount(indices)
    present = np.flatnonzero(counts)
    return list(zip(present.tolist(), counts[present].tolist()))


def split_labels(name: str) -> Tuple[str, Tuple[Tuple[str, str], ...]]:
    """Inverse of :func:`labeled`: ``(base_name, ((key, value), ...))``."""
    base, brace, rest = name.partition("{")
    if not brace:
        return name, ()
    if not rest.endswith("}"):
        raise ConfigurationError(f"malformed labelled metric name {name!r}")
    pairs = []
    for token in rest[:-1].split(","):
        key, eq, value = token.partition("=")
        if not eq or not value.startswith('"') or not value.endswith('"'):
            raise ConfigurationError(f"malformed label {token!r} in {name!r}")
        pairs.append((key, value[1:-1]))
    return base, tuple(pairs)


def tenant_rows(counters: Mapping[str, float]) -> Dict[str, Dict[str, int]]:
    """``{tenant: {what: count}}`` from the ``serve.tenant.<what>{tenant=...}``
    counters in a ``name -> value`` mapping.  Unlabelled ones (the HTTP
    front end's ``serve.tenant.rejected``) name no tenant and are skipped."""
    rows: Dict[str, Dict[str, int]] = {}
    for name, value in sorted(counters.items()):
        base, labels = split_labels(name)
        tenant = dict(labels).get("tenant")
        if tenant is not None and base.startswith("serve.tenant."):
            rows.setdefault(tenant, {})[base[len("serve.tenant."):]] = int(value)
    return rows


@dataclass
class Counter:
    """A monotone event count."""

    name: str
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(f"counter {self.name}: negative increment")
        self.value += amount

    def as_record(self) -> Dict[str, object]:
        return {"kind": "counter", "name": self.name, "value": self.value}


@dataclass
class Gauge:
    """A last-write-wins instantaneous value."""

    name: str
    value: float = 0.0
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def as_record(self) -> Dict[str, object]:
        return {
            "kind": "gauge",
            "name": self.name,
            "value": self.value,
            "updates": self.updates,
        }


@dataclass
class Histogram:
    """Fixed-bucket histogram (cumulative-style export, Prometheus idiom).

    ``buckets`` are upper bounds of the finite buckets; observations above
    the last bound land in the implicit +Inf bucket.  Bucket counts here
    are *per-bucket* (non-cumulative); the exporter keeps them that way so
    round-trips are exact.
    """

    name: str
    buckets: Tuple[float, ...] = DEFAULT_BUCKETS_MS
    counts: List[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        bounds = tuple(float(b) for b in self.buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {self.name}: buckets must be strictly increasing"
            )
        self.buckets = bounds
        if not self.counts:
            self.counts = [0] * (len(bounds) + 1)  # +Inf bucket at the end
        elif len(self.counts) != len(bounds) + 1:
            raise ConfigurationError(
                f"histogram {self.name}: counts/buckets length mismatch"
            )

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """Observe every value in order; same state as a loop of
        :meth:`observe` (``total`` is summed left to right)."""
        for bucket, count in index_counts(
            np.searchsorted(self.buckets, values, side="left")
        ):
            self.counts[bucket] += count
        self.total = running_sum(self.total, values)
        self.count += len(values)

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding it
        (the +Inf bucket reports the last finite bound)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]

    def as_record(self) -> Dict[str, object]:
        return {
            "kind": "histogram",
            "name": self.name,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "total": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """Create-on-first-use store of named metrics.

    One registry per :class:`~repro.telemetry.Telemetry`; names are
    namespaced by convention (``engine.steps``, ``migration.retries``).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, tuple(buckets) if buckets is not None else DEFAULT_BUCKETS_MS
            )
        return metric

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def records(self) -> List[Dict[str, object]]:
        """All metrics as export records, sorted by (kind, name)."""
        out: List[Dict[str, object]] = []
        for store in (self._counters, self._gauges, self._histograms):
            for name in sorted(store):
                out.append(store[name].as_record())
        return out
