"""Open-loop load generation: Poisson, trace replay and spike profiles.

An arrival *schedule* is just a sorted array of timestamps (seconds).
Open-loop means arrivals never wait for completions — precisely the
regime where admission control matters, because a saturated server keeps
receiving work.  All schedules are seeded and deterministic:

* :func:`poisson_arrivals` — homogeneous Poisson process at a fixed
  rate (exponential inter-arrival gaps);
* :func:`trace_arrivals` — inhomogeneous replay of any
  :class:`~repro.workloads.trace.LoadTrace`: per-slot Poisson counts
  placed uniformly inside their slot (thinning-free and exact);
* :func:`spike_arrivals` — a flat base rate with a
  :class:`~repro.workloads.spikes.FlashCrowd` multiplied in, the
  unpredicted-surge shape of Figure 11.

:func:`parse_profile` turns the CLI's compact ``kind:key=value,...``
spec into a schedule; :class:`LoadGenerator` fires a schedule at a
:class:`~repro.serve.engine.ServerEngine` over a virtual clock and
collects a :class:`LoadgenReport`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.fields import FieldTable, int_number, parse_fields
from repro.serve.admission import BROWNOUT, REASONS
from repro.serve.clock import VirtualClock
from repro.serve.engine import OutcomeBatch, ServerEngine, TxnOutcome
from repro.serve.resilience import ResilientClient, RetryConfig
from repro.telemetry.metrics import index_counts
from repro.workloads.spikes import FlashCrowd, inject_flash_crowd
from repro.workloads.trace import LoadTrace


# ----------------------------------------------------------------------
# Arrival schedules
# ----------------------------------------------------------------------
def poisson_arrivals(
    rate_per_s: float, duration_s: float, seed: int = 0, start_s: float = 0.0
) -> np.ndarray:
    """Homogeneous Poisson arrival timestamps over ``[start, start+duration)``."""
    if rate_per_s < 0 or duration_s < 0:
        raise ConfigurationError("rate and duration must be non-negative")
    if rate_per_s == 0 or duration_s == 0:
        return np.empty(0)
    rng = np.random.default_rng(seed)
    # Draw ~expected + 6 sigma gaps, extend in the unlikely shortfall.
    expected = rate_per_s * duration_s
    n = int(expected + 6.0 * np.sqrt(expected) + 16)
    gaps = rng.exponential(1.0 / rate_per_s, n)
    times = start_s + np.cumsum(gaps)
    while times[-1] < start_s + duration_s:
        more = rng.exponential(1.0 / rate_per_s, n)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < start_s + duration_s]


def trace_arrivals(
    trace: LoadTrace, seed: int = 0, scale: float = 1.0, start_s: float = 0.0
) -> np.ndarray:
    """Inhomogeneous replay: per-slot Poisson counts, uniform placement."""
    if scale < 0:
        raise ConfigurationError("scale must be non-negative")
    rng = np.random.default_rng(seed)
    slot = trace.slot_seconds
    out: List[np.ndarray] = []
    for index, count in enumerate(trace.values * scale):
        n = int(rng.poisson(count))
        if n == 0:
            continue
        offsets = np.sort(rng.random(n)) * slot
        out.append(start_s + index * slot + offsets)
    if not out:
        return np.empty(0)
    return np.concatenate(out)


def spike_arrivals(
    base_rate_per_s: float,
    duration_s: float,
    spike: FlashCrowd,
    seed: int = 0,
    slot_seconds: float = 10.0,
) -> np.ndarray:
    """Flat base load with a flash crowd multiplied in (Figure 11 shape)."""
    if duration_s <= 0:
        raise ConfigurationError("duration must be positive")
    slots = max(1, int(round(duration_s / slot_seconds)))
    flat = LoadTrace(
        np.full(slots, base_rate_per_s * slot_seconds),
        slot_seconds=slot_seconds,
        name="flat",
    )
    return trace_arrivals(inject_flash_crowd(flat, spike), seed=seed)


#: ``kind:key=value,...`` options per profile kind, as
#: :func:`repro.fields.parse_fields` tables.
_PROFILE_FIELDS: Dict[str, FieldTable] = {
    "poisson": {"rate": ("rate", float)},
    "spike": {
        "rate": ("rate", float),
        "at": ("start_seconds", float),
        "ramp": ("ramp_seconds", float),
        "plateau": ("plateau_seconds", float),
        "decay": ("decay_seconds", float),
        "magnitude": ("magnitude", float),
    },
    "trace": {
        "kind": ("kind", str),
        "days": ("days", int_number),
        "slot": ("slot", float),
        "lang": ("lang", str),
        "rate": ("rate", float),
        "scale": ("scale", float),
    },
}


def parse_profile(
    spec: str, duration_s: float, seed: int = 0
) -> np.ndarray:
    """Build an arrival schedule from a compact CLI spec.

    Formats (all keys optional unless noted)::

        poisson:rate=200
        spike:rate=150,at=1800,magnitude=3,ramp=120,plateau=600,decay=600
        trace:kind=b2w,days=1,scale=1.0,slot=60
        trace:kind=wikipedia,lang=en,days=7,rate=50

    ``trace`` replays a synthetic B2W-shaped day or a Wikipedia-shaped
    week (the repo's seeded generators), rescaled so its *mean* rate
    equals ``rate`` when given.
    """
    kind, _, rest = spec.partition(":")
    if kind not in _PROFILE_FIELDS:
        raise ConfigurationError(
            f"unknown load profile {kind!r}; use {', '.join(_PROFILE_FIELDS)}"
        )
    options = parse_fields(f"--profile {kind}", rest, _PROFILE_FIELDS[kind])
    if kind == "poisson":
        return poisson_arrivals(options.get("rate", 100.0), duration_s, seed=seed)
    if kind == "spike":
        rate = options.pop("rate", 100.0)
        defaults = {
            "start_seconds": duration_s / 3.0, "ramp_seconds": 120.0,
            "plateau_seconds": 600.0, "decay_seconds": 600.0, "magnitude": 3.0,
        }
        spike = FlashCrowd(**{**defaults, **options})
        return spike_arrivals(rate, duration_s, spike, seed=seed)
    trace_kind = options.pop("kind", "b2w")
    rate = options.pop("rate", None)
    scale = options.pop("scale", 1.0)
    if trace_kind == "b2w":
        from repro.workloads.b2w import generate_b2w_trace

        trace = generate_b2w_trace(
            max(1, options.pop("days", 1)), slot_seconds=options.pop("slot", 60.0), seed=seed
        )
    elif trace_kind == "wikipedia":
        from repro.workloads.wikipedia import generate_wikipedia_trace

        trace = generate_wikipedia_trace(
            language=options.pop("lang", "en"), num_days=max(1, options.pop("days", 7)), seed=seed
        )
    else:
        raise ConfigurationError(f"unknown trace kind {trace_kind!r}; use b2w, wikipedia")
    if options:  # ``lang`` means nothing to a B2W day, ``slot`` nothing to Wikipedia's hours
        raise ConfigurationError(
            f"--profile trace:kind={trace_kind} takes no {', '.join(sorted(options))}"
        )
    if rate is not None:
        mean_rate = trace.mean() / trace.slot_seconds
        scale *= rate / max(mean_rate, 1e-9)
    times = trace_arrivals(trace, seed=seed, scale=scale)
    return times[times < duration_s]


def validate_schedule(
    arrivals: np.ndarray,
    tenant_indices: Optional[np.ndarray],
    tenant_names: Optional[List[str]],
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[List[str]]]:
    """Check a schedule and its tenant columns; returns them normalised
    (float64 times, int64 indices, a list of names).

    Times must be sorted; the two tenant arguments go together, the
    indices parallel the times and every one of them names a tenant
    (``-1`` would otherwise bill the last one).
    """
    times = np.asarray(arrivals, dtype=np.float64)
    if len(times) > 1 and np.any(np.diff(times) < 0):
        raise ConfigurationError("arrival times must be sorted")
    if (tenant_indices is None) != (tenant_names is None):
        raise ConfigurationError("tenant_indices and tenant_names go together")
    if tenant_indices is None or tenant_names is None:
        return times, None, None
    indices = np.asarray(tenant_indices, dtype=np.int64)
    names = list(tenant_names)
    if len(indices) != len(times):
        raise ConfigurationError("tenant_indices must parallel the arrival schedule")
    if len(indices):
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= len(names):
            raise ConfigurationError(
                f"tenant_indices must lie in [0, {len(names)}); "
                f"got {low if low < 0 else high}"
            )
    return times, indices, names


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class LoadgenReport:
    """Aggregated outcome of one load-generation run.

    ``offered`` counts *logical* requests; retries and hedges are extra
    attempts on behalf of an already-offered request, tracked in their
    own counters.  Request conservation therefore reads::

        offered == accepted + rejected + errored + in_flight

    and holds exactly at every instant — the chaos smoke and the e2e
    tests assert it with ``in_flight == 0`` after a drained run.

    With tenancy enabled each outcome carries a tenant name and the
    report additionally buckets offered/accepted/rejected/errored per
    tenant, so the same identity holds *per tenant* and the per-tenant
    buckets sum to the fleet counters — the property test pins both.
    """

    duration_s: float = 0.0
    offered: int = 0
    accepted: int = 0
    rejected: int = 0
    #: Terminal 500s — requests that died against a not-yet-detected
    #: dead node and ran out of retries (or had none configured).
    errored: int = 0
    latencies_ms: List[float] = field(default_factory=list)
    retry_after_s: List[float] = field(default_factory=list)
    #: Extra attempts: retries spent, how many eventually succeeded,
    #: and logical requests that exhausted their retries unserved.
    retries: int = 0
    retry_successes: int = 0
    retries_exhausted: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    #: Low-priority requests shed while brownout was engaged.
    brownout_shed: int = 0
    #: Per-tenant offered/accepted/rejected/errored buckets; empty when
    #: tenancy is off (outcomes then carry an empty tenant name).
    tenants: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def _bucket(self, tenant: str) -> Dict[str, int]:
        bucket = self.tenants.get(tenant)
        if bucket is None:
            bucket = {"offered": 0, "accepted": 0, "rejected": 0, "errored": 0}
            self.tenants[tenant] = bucket
        return bucket

    def offer(self, tenant: str = "") -> None:
        """Count one logical request as offered (tenant-bucketed)."""
        self.offered += 1
        if tenant:
            self._bucket(tenant)["offered"] += 1

    def finish(self, outcome: TxnOutcome) -> None:
        """Record the *terminal* outcome of an already-offered request."""
        bucket = self._bucket(outcome.tenant) if outcome.tenant else None
        if outcome.accepted:
            self.accepted += 1
            self.latencies_ms.append(outcome.latency_ms)
            if bucket is not None:
                bucket["accepted"] += 1
        elif outcome.status == 500:
            self.errored += 1
            if bucket is not None:
                bucket["errored"] += 1
        else:
            self.rejected += 1
            self.retry_after_s.append(outcome.retry_after_s)
            if outcome.reason == REASONS[BROWNOUT]:
                self.brownout_shed += 1
            if bucket is not None:
                bucket["rejected"] += 1

    def record(self, outcome: TxnOutcome) -> None:
        """Offer + finish in one step (the no-retry path)."""
        self.offer(outcome.tenant)
        self.finish(outcome)

    def fold(self, batch: OutcomeBatch) -> None:
        """:meth:`record` every row of a columnar batch, in row order."""
        served = batch.status == 200
        errored = batch.status == 500
        shed = ~(served | errored)
        self.offered += len(batch)
        self.accepted += int(np.count_nonzero(served))
        self.errored += int(np.count_nonzero(errored))
        self.rejected += int(np.count_nonzero(shed))
        self.latencies_ms.extend(batch.latency_ms[served].tolist())
        self.retry_after_s.extend(batch.retry_after_s[shed].tolist())
        self.brownout_shed += int(np.count_nonzero(batch.reason[shed] == BROWNOUT))
        if batch.tenant is None:
            return
        for key, rows in (
            ("offered", slice(None)), ("accepted", served),
            ("errored", errored), ("rejected", shed),
        ):
            for index, count in index_counts(batch.tenant[rows]):
                if batch.tenant_names[index]:  # untagged rows are not bucketed
                    self._bucket(batch.tenant_names[index])[key] += count

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Logical requests offered but not yet terminal."""
        return self.offered - self.accepted - self.rejected - self.errored

    @property
    def conserved(self) -> bool:
        """Exact request conservation (trivially true once drained)."""
        return self.in_flight == 0

    @property
    def reject_rate(self) -> float:
        return self.rejected / self.offered if self.offered else 0.0

    @property
    def throughput_per_s(self) -> float:
        return self.accepted / self.duration_s if self.duration_s > 0 else 0.0

    def latency_percentile(self, q: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def summary(self) -> Dict[str, float]:
        out = {
            "offered": float(self.offered),
            "accepted": float(self.accepted),
            "rejected": float(self.rejected),
            "reject_rate": round(self.reject_rate, 4),
            "throughput_per_s": round(self.throughput_per_s, 2),
            "p50_ms": round(self.latency_percentile(50.0), 2),
            "p95_ms": round(self.latency_percentile(95.0), 2),
            "p99_ms": round(self.latency_percentile(99.0), 2),
            "max_retry_after_s": max(self.retry_after_s, default=0.0),
        }
        if self.errored or self.retries or self.hedges or self.brownout_shed:
            out.update(
                {
                    "errored": float(self.errored),
                    "retries": float(self.retries),
                    "retry_successes": float(self.retry_successes),
                    "retries_exhausted": float(self.retries_exhausted),
                    "hedges": float(self.hedges),
                    "hedge_wins": float(self.hedge_wins),
                    "brownout_shed": float(self.brownout_shed),
                    "in_flight": float(self.in_flight),
                }
            )
        return out

    def conservation_line(self) -> str:
        """Human-readable conservation identity (the chaos smoke greps it)."""
        verdict = "exact" if self.conserved else "MISMATCH"
        return (
            f"conservation: offered {self.offered} = served {self.accepted} "
            f"+ shed {self.rejected} + errored {self.errored} "
            f"+ in-flight {self.in_flight} ({verdict})"
        )

    # ------------------------------------------------------------------
    # Per-tenant identities
    # ------------------------------------------------------------------
    def tenant_in_flight(self, tenant: str) -> int:
        b = self.tenants[tenant]
        return b["offered"] - b["accepted"] - b["rejected"] - b["errored"]

    def tenants_consistent(self) -> bool:
        """The per-tenant buckets must sum exactly to the fleet counters
        (vacuously true without tenancy)."""
        if not self.tenants:
            return True
        return (
            sum(b["offered"] for b in self.tenants.values()) == self.offered
            and sum(b["accepted"] for b in self.tenants.values()) == self.accepted
            and sum(b["rejected"] for b in self.tenants.values()) == self.rejected
            and sum(b["errored"] for b in self.tenants.values()) == self.errored
        )

    def tenant_conservation_lines(self) -> List[str]:
        """One greppable conservation identity per tenant (the tenant
        smoke greps these the way the chaos smoke greps the fleet line)."""
        lines = []
        for tenant in sorted(self.tenants):
            b = self.tenants[tenant]
            in_flight = self.tenant_in_flight(tenant)
            verdict = "exact" if in_flight == 0 else "MISMATCH"
            lines.append(
                f'conservation{{tenant="{tenant}"}}: offered {b["offered"]} '
                f'= served {b["accepted"]} + shed {b["rejected"]} '
                f'+ errored {b["errored"]} + in-flight {in_flight} ({verdict})'
            )
        return lines

    def format_report(self) -> str:
        s = self.summary()
        lines = [
            f"offered {self.offered} | accepted {self.accepted} | "
            f"rejected {self.rejected} ({100.0 * self.reject_rate:.1f}%)",
            f"throughput {s['throughput_per_s']:.1f} txn/s over {self.duration_s:.0f}s",
            f"latency p50/p95/p99: {s['p50_ms']:.1f} / {s['p95_ms']:.1f} / "
            f"{s['p99_ms']:.1f} ms",
        ]
        if self.rejected:
            lines.append(f"max retry-after hint: {s['max_retry_after_s']:.1f}s")
        if self.errored or self.retries or self.hedges or self.brownout_shed:
            lines.append(
                f"errors {self.errored} | retries {self.retries} "
                f"(ok {self.retry_successes}, exhausted {self.retries_exhausted}) "
                f"| hedges {self.hedges} (won {self.hedge_wins}) "
                f"| brownout shed {self.brownout_shed}"
            )
            lines.append(self.conservation_line())
        if self.tenants:
            for tenant in sorted(self.tenants):
                b = self.tenants[tenant]
                shed_rate = (
                    b["rejected"] / b["offered"] if b["offered"] else 0.0
                )
                lines.append(
                    f'tenant {tenant}: offered {b["offered"]} | '
                    f'served {b["accepted"]} | shed {b["rejected"]} '
                    f"({100.0 * shed_rate:.1f}%) | errored {b['errored']}"
                )
            lines.extend(self.tenant_conservation_lines())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
class LoadGenerator:
    """Fires an arrival schedule at a :class:`ServerEngine` open-loop.

    One clock event stands for the whole chain of arrivals (constant
    heap pressure regardless of schedule length): when it fires at an
    arrival, every later arrival that would have fired before anything
    else on the clock (:meth:`VirtualClock.quiet_until`) is submitted
    with it as one :meth:`ServerEngine.submit_batch`, and the event is
    re-armed at the next.  With a retry client attached the bursts are
    of one, because a shed may schedule its retry inside the stretch.
    Outcomes accumulate into :attr:`report`.
    """

    def __init__(
        self,
        engine: ServerEngine,
        arrivals: np.ndarray,
        clock: VirtualClock,
        *,
        retry: Optional[RetryConfig] = None,
        retry_seed: int = 0,
        tenant_indices: Optional[np.ndarray] = None,
        tenant_names: Optional[List[str]] = None,
    ) -> None:
        self.engine = engine
        self.arrivals, self.tenant_indices, self.tenant_names = validate_schedule(
            arrivals, tenant_indices, tenant_names
        )
        self.clock = clock
        self.report = LoadgenReport()
        self.client: Optional[ResilientClient] = (
            ResilientClient(
                engine, self.report, retry, clock.call_at, seed=retry_seed
            )
            if retry is not None
            else None
        )
        self._next = 0
        self._armed = False

    def start(self) -> None:
        """Arm the arrival chain (idempotent across session runs)."""
        if not self._armed:
            self._schedule_next()

    def _schedule_next(self) -> None:
        if self._next >= len(self.arrivals):
            self._armed = False
            return
        self.clock.call_at(float(self.arrivals[self._next]), self._fire)
        self._armed = True

    def _fire(self) -> None:
        start = self._next
        if self.client is not None:
            self._next = start + 1
            tenant = ""
            if self.tenant_indices is not None and self.tenant_names is not None:
                tenant = self.tenant_names[int(self.tenant_indices[start])]
            self.client.submit(self.clock.now, tenant=tenant)
        else:
            stop = max(
                start + 1,
                int(np.searchsorted(self.arrivals, self.clock.quiet_until(), side="left")),
            )
            self._next = stop
            # Each arrival is submitted at the clock time its own event
            # would have read, and the clock ends where the last one
            # would have left it.
            times = np.maximum(self.arrivals[start:stop], self.clock.now)
            self.clock.advance(float(times[-1]))
            tracer = self.engine.request_tracer
            self.engine.submit_batch(
                times,
                self.tenant_indices[start:stop] if self.tenant_indices is not None else None,
                None,
                self.report.fold,
                tenant_names=self.tenant_names or (),
                traces=[tracer.mint("loadgen") for _ in range(stop - start)]
                if tracer is not None
                else None,
            )
        self._schedule_next()
