"""Weighted-fair per-tenant admission: token-bucket quotas + brownout order.

Quota enforcement is a classic token bucket per tenant, run on the
engine's virtual clock: the bucket refills at the tenant's effective
quota (``TenantRegistry.quota_for``) up to its burst capacity, and a
request is admitted when a whole token is available.  A quota shed
returns the exact time until the next token — the client's
``Retry-After`` — so backoff is deterministic rather than guessed.

Brownout composes with quotas rather than replacing them: when the
engine is browning out (queue pressure), tenants whose weight is below
the registry's maximum are shed *first*, before the generic low-priority
request shedding.  The highest-weight tenant(s) keep their whole quota
until the very end — lowest weight sheds first, WiSeDB's per-class SLA
priorities expressed as an ordering.

Everything here is RNG-free and float-deterministic, so enabling
tenancy adds **zero** draws to the engine's seeded RNG stream — that is
what makes the single-default-tenant configuration bit-identical to the
untenanted path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry import Telemetry
from repro.telemetry.slo import SLOConfig, SLOMonitor
from repro.tenancy.spec import TenantRegistry


class TokenBucket:
    """Deterministic token bucket on the virtual clock.

    Args:
        rate: Refill rate, tokens (requests) per second.  Rate 0 means
            the bucket never refills — everything is shed.
        burst: Capacity; the bucket starts full.
    """

    def __init__(self, rate: float, burst: float) -> None:
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_t = 0.0

    def _refill(self, now: float) -> None:
        if now > self.last_t:
            self.tokens = min(self.burst, self.tokens + (now - self.last_t) * self.rate)
        self.last_t = max(self.last_t, now)

    def admit(self, now: float) -> Optional[float]:
        """Try to take one token at virtual time ``now``.

        Returns ``None`` on admit; on shed, the seconds until a full
        token will be available (the Retry-After hint), or ``inf`` for
        a zero-rate bucket.
        """
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return None
        if self.rate <= 0.0:
            return float("inf")
        return (1.0 - self.tokens) / self.rate

    def state_dict(self) -> Dict[str, float]:
        return {"tokens": self.tokens, "last_t": self.last_t}

    def load_state_dict(self, state: Dict[str, float]) -> None:
        self.tokens = float(state["tokens"])
        self.last_t = float(state["last_t"])


class TenantAdmission:
    """Per-tenant quota buckets and brownout shedding order.

    The tenant stages of the admission policy chain
    (:meth:`repro.serve.admission.AdmissionController.admit_batch`)
    read and charge this.  Counters here are bookkeeping for reports
    and checkpoints; the engine owns the labelled telemetry.
    """

    def __init__(self, registry: TenantRegistry) -> None:
        self.registry = registry
        self._buckets: Dict[str, TokenBucket] = {}
        for tenant in registry:
            rate = registry.quota_for(tenant.name)
            if rate is not None:
                burst = tenant.effective_burst
                if burst is None:
                    burst = max(1.0, 2.0 * rate)
                self._buckets[tenant.name] = TokenBucket(rate, burst)
        #: Registry names in spec order — the vocabulary tenant columns
        #: are normalised to — and which of them brownout may shed.
        self.names: Tuple[str, ...] = tuple(registry.names())
        self.sheddable = np.array([t.weight < registry.max_weight for t in registry])
        self._index = {name: index for index, name in enumerate(self.names)}
        self._index[""] = 0  # untagged: the first tenant
        empty = {name: 0 for name in registry.names()}
        self.offered: Dict[str, int] = dict(empty)
        self.quota_shed: Dict[str, int] = dict(empty)
        self.brownout_shed: Dict[str, int] = dict(empty)

    # ------------------------------------------------------------------
    def quota_admit(self, name: str, now: float) -> Optional[float]:
        """Charge one request against ``name``'s quota at time ``now``.

        Returns ``None`` when admitted, else the Retry-After seconds.
        Unknown tenants raise KeyError loudly — a tagging bug upstream
        must not silently bypass quotas.
        """
        waits = self.quota_admit_many(name, (now,))
        return None if waits is None else waits[0]

    def quota_admit_many(
        self, name: str, times: Sequence[float]
    ) -> Optional[List[Optional[float]]]:
        """:meth:`quota_admit` for ``name``'s requests of one batch, in
        arrival order (``times`` are Python floats).

        Returns ``None`` when the tenant has no bucket (everything is
        admitted), else one entry per request: ``None`` when admitted,
        the Retry-After seconds when shed.
        """
        self.offered[name] += len(times)
        bucket = self._buckets.get(name)
        if bucket is None:
            return None
        waits = [bucket.admit(t) for t in times]
        self.quota_shed[name] += len(waits) - waits.count(None)
        return waits

    def registry_indices(
        self, tenants: Optional[np.ndarray], names: Sequence[str], n: int
    ) -> np.ndarray:
        """Re-index a tenant column of ``n`` requests from the caller's
        vocabulary ``names`` to :attr:`names`; untagged requests belong
        to the first tenant."""
        if tenants is None:
            return np.zeros(n, dtype=np.int64)
        lookup = self._index
        indices = np.array([lookup.get(name, -1) for name in names])[tenants]
        if (indices < 0).any():
            # A tagging bug upstream must not silently bypass quotas.
            unknown = names[int(tenants[int(np.argmin(indices))])]
            raise KeyError(f"unknown tenant {unknown!r}")
        return indices

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {
            "buckets": {
                name: bucket.state_dict()
                for name, bucket in sorted(self._buckets.items())
            },
            "offered": dict(self.offered),
            "quota_shed": dict(self.quota_shed),
            "brownout_shed": dict(self.brownout_shed),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        for name, bucket_state in state.get("buckets", {}).items():
            if name in self._buckets:
                self._buckets[name].load_state_dict(bucket_state)
        for attr in ("offered", "quota_shed", "brownout_shed"):
            counters = getattr(self, attr)
            for name, value in state.get(attr, {}).items():
                if name in counters:
                    counters[name] = int(value)

    def slo_monitors(
        self, base: SLOConfig, telemetry: Optional[Telemetry]
    ) -> Dict[str, SLOMonitor]:
        """One labelled burn-rate monitor per tenant: ``base``'s alerting
        windows with the tenant's *own* latency threshold and objective."""
        return {
            spec.name: SLOMonitor(
                replace(
                    base,
                    objective=spec.slo_objective,
                    latency_threshold_ms=spec.latency_slo_ms,
                ),
                telemetry,
                labels={"tenant": spec.name},
            )
            for spec in self.registry
        }

    def health(self, slos: Dict[str, SLOMonitor]) -> Dict[str, Dict[str, object]]:
        """The ``tenants`` block of a health report: each tenant's
        counters plus the status of its monitor."""
        summary = self.summary()
        return {
            name: {**summary[name], "slo": slos[name].status()}
            for name in self.registry.names()
        }

    def report_lines(self, slos: Dict[str, SLOMonitor]) -> List[str]:
        """One run-report line per tenant, wherever the policy ran."""
        return [
            f"tenant {name}: offered {info['offered']} | "
            f"quota shed {info['quota_shed']} | "
            f"brownout shed {info['brownout_shed']} | "
            f"good {info['slo']['good_fraction']:.3%}"
            + (" (FIRING)" if info["slo"]["alerting"] else "")
            for name, info in sorted(self.health(slos).items())
        ]

    def summary(self) -> Dict[str, Dict[str, int]]:
        return {
            name: {
                "offered": self.offered[name],
                "quota_shed": self.quota_shed[name],
                "brownout_shed": self.brownout_shed[name],
            }
            for name in self.registry.names()
        }
