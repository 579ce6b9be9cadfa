"""Wall-clock perf spans, strictly separate from sim-time telemetry.

The tracer in :mod:`repro.telemetry.tracer` is *sim-time*: it never
reads a wall clock, so traced runs are bit-identical and debug bundles
are reproducible.  That invariant makes it useless for the question
every perf PR asks — "where do the real milliseconds go?".  This module
answers that without breaking the invariant:

* :class:`PerfRecorder` measures ``time.perf_counter_ns`` around named
  stages (``edge.dispatch``, ``worker.step``, ``transport.send``,
  ``planner.dp``, ``spar.fit``) into fixed-bucket wall histograms.
* Perf data lives **only** here — it is never written into a
  :class:`~repro.telemetry.Telemetry` registry, never appears in
  ``telemetry.records()`` and therefore never reaches a debug bundle's
  digested files.  Runs with perf spans on are bit-identical to runs
  without (the engine results and telemetry byte streams cannot see the
  clock).
* The recorder measures *itself*: every ``record()`` also times its own
  bookkeeping, accumulated into an overhead gauge, so "how much does
  watching cost" is a first-class reading rather than folklore.

Resolution mirrors :mod:`repro.telemetry.runtime`: :func:`perf_session`
installs a scoped process default, and instrumentation sites deep in the
planner or transport use ``with maybe_span("stage")`` (or the
:func:`timed` decorator) and pay one ``None`` check when perf is off.
"""

from __future__ import annotations

import functools
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError

#: Wall-time buckets (milliseconds): microsecond-scale kernel stages up
#: through second-scale batch work.
PERF_BUCKETS_MS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)


class PerfStage:
    """Wall-clock histogram for one named stage (per-bucket counts)."""

    __slots__ = ("name", "counts", "total_ns", "count", "min_ns", "max_ns")

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts = [0] * (len(PERF_BUCKETS_MS) + 1)  # +Inf at the end
        self.total_ns = 0
        self.count = 0
        self.min_ns = 0
        self.max_ns = 0

    def record(self, elapsed_ns: int) -> None:
        ms = elapsed_ns / 1e6
        self.counts[bisect_left(PERF_BUCKETS_MS, ms)] += 1
        self.total_ns += elapsed_ns
        if self.count == 0 or elapsed_ns < self.min_ns:
            self.min_ns = elapsed_ns
        if elapsed_ns > self.max_ns:
            self.max_ns = elapsed_ns
        self.count += 1

    def mean_ms(self) -> float:
        return self.total_ns / self.count / 1e6 if self.count else 0.0

    def quantile_ms(self, q: float) -> float:
        """Approximate quantile: upper bound of the holding bucket."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return PERF_BUCKETS_MS[min(i, len(PERF_BUCKETS_MS) - 1)]
        return PERF_BUCKETS_MS[-1]

    def as_record(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "count": self.count,
            "total_ms": self.total_ns / 1e6,
            "mean_ms": self.mean_ms(),
            "min_ms": self.min_ns / 1e6,
            "max_ms": self.max_ns / 1e6,
            "p50_ms": self.quantile_ms(0.5),
            "p99_ms": self.quantile_ms(0.99),
        }


class PerfRecorder:
    """Collects wall-clock stage timings (see module doc)."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self._stages: Dict[str, PerfStage] = {}
        #: Wall nanoseconds spent inside the recorder itself (clock reads
        #: plus histogram bookkeeping) — the self-measurement gauge.
        self.overhead_ns = 0

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            end = self._clock()
            self.record(name, end - start)
            self.overhead_ns += self._clock() - end

    def record(self, name: str, elapsed_ns: int) -> None:
        stage = self._stages.get(name)
        if stage is None:
            stage = self._stages[name] = PerfStage(name)
        stage.record(int(elapsed_ns))

    # ------------------------------------------------------------------
    def stages(self) -> Dict[str, PerfStage]:
        return dict(self._stages)

    def stage(self, name: str) -> Optional[PerfStage]:
        return self._stages.get(name)

    def records(self) -> List[Dict[str, object]]:
        out = [self._stages[name].as_record() for name in sorted(self._stages)]
        return out

    def overhead_ms(self) -> float:
        return self.overhead_ns / 1e6

    def report_lines(self) -> List[str]:
        lines = ["wall-clock stages (ms):"]
        for record in self.records():
            lines.append(
                "  {name:<20} n={count:<7d} p50={p50_ms:>8.3f} "
                "p99={p99_ms:>8.3f} mean={mean_ms:>8.3f} max={max_ms:>9.3f}".format(
                    **record  # type: ignore[arg-type]
                )
            )
        lines.append(f"  measurement overhead: {self.overhead_ms():.3f} ms")
        return lines


def render_prometheus_perf(perf: PerfRecorder) -> str:
    """Perf stages in Prometheus exposition format (``repro_perf_*``).

    Emitted by the live ``/metrics`` endpoint only; the debug-bundle
    exporter deliberately does not call this, keeping wall-clock data
    out of digested artifacts.
    """
    lines: List[str] = []
    for name in sorted(perf.stages()):
        stage = perf.stages()[name]
        family = "repro_perf_" + name.replace(".", "_").replace("-", "_")
        lines.append(f"# TYPE {family}_ms histogram")
        cumulative = 0
        for bound, count in zip(PERF_BUCKETS_MS, stage.counts):
            cumulative += count
            lines.append(f'{family}_ms_bucket{{le="{bound}"}} {cumulative}')
        cumulative += stage.counts[-1]
        lines.append(f'{family}_ms_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{family}_ms_sum {stage.total_ns / 1e6}")
        lines.append(f"{family}_ms_count {stage.count}")
    lines.append("# TYPE repro_perf_overhead_ms gauge")
    lines.append(f"repro_perf_overhead_ms {perf.overhead_ms()}")
    return "\n".join(lines) + "\n"


# Process-wide default (mirrors repro.telemetry.runtime) ---------------
_default: Optional[PerfRecorder] = None


@contextmanager
def perf_session(perf: Optional[PerfRecorder]) -> Iterator[Optional[PerfRecorder]]:
    """Scoped default install; the previous default is restored on exit."""
    global _default
    previous = _default
    _default = perf
    try:
        yield perf
    finally:
        _default = previous


@contextmanager
def maybe_span(name: str, perf: Optional[PerfRecorder] = None) -> Iterator[None]:
    """``perf.span(name)`` against the explicit or active recorder, or a
    no-op when perf is off — the one-liner instrumentation sites use."""
    recorder = perf if perf is not None else _default
    if recorder is None:
        yield
    else:
        with recorder.span(name):
            yield


def timed(name: str):
    """Decorator form of :func:`maybe_span` for whole-function stages
    (``planner.dp``); one ``None`` check per call when perf is off."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            recorder = _default
            if recorder is None:
                return fn(*args, **kwargs)
            with recorder.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
