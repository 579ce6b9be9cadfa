"""Admission control and backpressure for the serving layer.

The engine's partition queues are fluid and, in the batch simulations,
bounded only by ``EngineConfig.max_queue_seconds`` (the closed-loop
client assumption).  A live server cannot rely on clients to stop
sending: an open-loop flash crowd would push every queue to the cap and
hold p99 at the SLA ceiling for the whole spike.  Load shedding converts
that into explicit, fast 503 rejects instead — the overloaded node keeps
serving the requests it already accepted at survivable latency, and the
reject carries a ``Retry-After`` hint sized to the estimated drain time.

Queue-limit policy (per request):

1. the router picks a partition (data-share weighted), giving a node;
2. the node's estimated queueing delay is its engine backlog (seconds of
   service) plus the requests already admitted this tick;
3. if that exceeds ``queue_limit_seconds`` the request is shed.

That is the last stage of :meth:`AdmissionController.admit_batch`, the
one policy chain an engine runs over its nodes and a fleet's edge over
its workers (``docs/SERVING.md`` § Admission policy).

``queue_limit_seconds`` should sit below the engine's own
``max_queue_seconds`` cap — then shedding, not the cap, is what bounds
the queues, which is the behaviour the spike tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.serve.resilience import BrownoutConfig
from repro.telemetry import Telemetry
from repro.telemetry.metrics import index_counts, labeled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tenancy -> loadgen -> engine)
    from repro.tenancy.admission import TenantAdmission

#: ``reason`` values; the columnar forms store an index into this tuple.
REASONS = ("", "queue-limit", "quota", "brownout", "connection")
QUEUE_LIMIT, QUOTA, BROWNOUT, CONNECTION = 1, 2, 3, 4


@dataclass(frozen=True)
class AdmissionConfig:
    """Shedding policy knobs.

    Attributes:
        queue_limit_seconds: Per-node queueing-delay bound; requests that
            would land behind a longer queue are rejected.
        retry_after_floor_s: Minimum ``Retry-After`` hint, seconds.
    """

    queue_limit_seconds: float = 10.0
    retry_after_floor_s: float = 1.0

    def __post_init__(self) -> None:
        if self.queue_limit_seconds <= 0:
            raise ConfigurationError("queue_limit_seconds must be positive")
        if self.retry_after_floor_s < 0:
            raise ConfigurationError("retry_after_floor_s must be >= 0")


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    Attributes:
        accepted: Whether the request was admitted to the engine.
        node_id: Node the request was routed to.
        est_queue_seconds: Estimated queueing delay at decision time.
        retry_after_s: Backoff hint for rejected requests (0 when
            accepted); HTTP surfaces it as a ``Retry-After`` header.
        reason: Why the request was rejected (``"queue-limit"``,
            ``"quota"``, ``"brownout"``, ``"connection"``); empty when
            accepted.
    """

    accepted: bool
    node_id: int
    est_queue_seconds: float
    retry_after_s: float = 0.0
    reason: str = ""

    @property
    def status(self) -> int:
        return 200 if self.accepted else 503


class AdmissionController:
    """Stateless-per-request shedding decisions with telemetry."""

    def __init__(
        self, config: Optional[AdmissionConfig] = None, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.config = config or AdmissionConfig()
        self.telemetry = telemetry
        self.accepted = 0
        self.rejected = 0

    def decide(
        self,
        node_id: int,
        est_queue_seconds: float,
        *,
        limit_s: Optional[float] = None,
    ) -> AdmissionDecision:
        """Admit or shed a request bound for ``node_id``.

        Args:
            node_id: Routed node.
            est_queue_seconds: The node's current estimated queueing
                delay, including requests already admitted this tick.
            limit_s: Override for the configured queue limit (brownout
                passes a tightened one).
        """
        limit = self.config.queue_limit_seconds if limit_s is None else limit_s
        tel = self.telemetry
        if est_queue_seconds <= limit:
            self.accepted += 1
            if tel is not None:
                tel.counter("serve.admitted").inc()
                tel.counter(labeled("serve.admit.accepted", node=node_id)).inc()
            return AdmissionDecision(True, node_id, est_queue_seconds)
        self.rejected += 1
        retry_after = max(
            self.config.retry_after_floor_s, est_queue_seconds - limit
        )
        if tel is not None:
            tel.counter("serve.rejected").inc()
            tel.counter(labeled("serve.admit.shed", node=node_id)).inc()
            tel.gauge("serve.admit.retry_after_s").set(retry_after)
        return AdmissionDecision(
            False, node_id, est_queue_seconds, retry_after, reason="queue-limit"
        )

    def shed_outright(
        self,
        node_id: int,
        est_queue_seconds: float,
        *,
        reason: str,
        retry_after_s: Optional[float] = None,
    ) -> AdmissionDecision:
        """Reject without consulting the queue limit (brownout and
        tenant-quota shedding).

        ``retry_after_s`` overrides the configured floor when the caller
        knows the exact wait — a tenant quota shed carries the token
        bucket's deterministic time-to-next-token.
        """
        self.rejected += 1
        tel = self.telemetry
        if tel is not None:
            tel.counter("serve.rejected").inc()
            tel.counter(labeled("serve.admit.shed", node=node_id)).inc()
            if reason == "brownout":
                tel.counter("serve.brownout.shed").inc()
        retry_after = self.config.retry_after_floor_s
        if retry_after_s is not None and math.isfinite(retry_after_s):
            retry_after = max(retry_after, retry_after_s)
        return AdmissionDecision(
            False,
            node_id,
            est_queue_seconds,
            retry_after,
            reason=reason,
        )

    # ------------------------------------------------------------------
    # Batch forms: one call per tick, same counters as n scalar calls
    # ------------------------------------------------------------------
    def decide_batch(
        self,
        node_ids: np.ndarray,
        est_if_admitted: np.ndarray,
        *,
        limit_s: Optional[float] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`decide` for a batch of requests in arrival order.

        ``est_if_admitted[i]`` is the queue estimate request ``i`` sees
        if every earlier request of the batch bound for the same node
        was admitted.  That estimate never falls along a node's
        requests, so the admitted ones are a prefix of them; a shed
        request adds nothing to the queue, so every later request on the
        node sees — and is shed with — the estimate of the node's first
        shed.  Returns ``(accepted, retry_after_s)``; counters move
        exactly as under ``len(node_ids)`` :meth:`decide` calls.
        """
        limit = self.config.queue_limit_seconds if limit_s is None else limit_s
        accepted = est_if_admitted <= limit
        retry_after = np.zeros(len(node_ids))
        everyone = bool(accepted.all())
        admitted_nodes = node_ids if everyone else node_ids[accepted]
        self.accepted += len(admitted_nodes)
        self._tally(admitted_nodes, "serve.admitted", "serve.admit.accepted")
        if not everyone:
            shed = np.flatnonzero(~accepted)
            shed_nodes = node_ids[shed]
            first_shed = np.full(int(shed_nodes.max()) + 1, np.inf)
            np.minimum.at(first_shed, shed_nodes, est_if_admitted[shed])
            retry_after[shed] = np.maximum(
                self.config.retry_after_floor_s, first_shed[shed_nodes] - limit
            )
            self.rejected += len(shed)
            self._tally(shed_nodes, "serve.rejected", "serve.admit.shed")
            if self.telemetry is not None:
                gauge = self.telemetry.gauge("serve.admit.retry_after_s")
                for value in retry_after[shed].tolist():
                    gauge.set(value)  # one update per shed, like decide()
        return accepted, retry_after

    def shed_batch(
        self,
        node_ids: np.ndarray,
        *,
        reason: str,
        retry_after_s: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """:meth:`shed_outright` for a batch; returns the Retry-After
        hints (the floor, raised to each finite ``retry_after_s``)."""
        self.rejected += len(node_ids)
        self._tally(node_ids, "serve.rejected", "serve.admit.shed")
        if reason == "brownout" and self.telemetry is not None and len(node_ids):
            self.telemetry.counter("serve.brownout.shed").inc(len(node_ids))
        floor = self.config.retry_after_floor_s
        if retry_after_s is None:
            return np.full(len(node_ids), floor)
        return np.where(
            np.isfinite(retry_after_s), np.maximum(floor, retry_after_s), floor
        )

    def admit_batch(
        self,
        times: np.ndarray,
        targets: np.ndarray,
        tenants: Optional[np.ndarray],
        priorities: np.ndarray,
        closed: Optional[np.ndarray] = None,
        *,
        tenancy: Optional["TenantAdmission"] = None,
        brownout: Optional[BrownoutConfig] = None,
        queue_estimate: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The admission policy chain over one batch, rows in arrival order.

        Every row not in ``closed`` (decided by the caller; never
        re-opened) meets tenant brownout (its tenant is
        ``tenancy.sheddable``), its tenant's token bucket, low-priority
        brownout (``priorities > 0``) and the queue limit, in that order.
        The first stage that applies closes the row, and a closed row is
        charged to no later stage: a brownout shed takes no token, a
        quota shed lengthens no queue.

        ``targets`` is what each row was routed to — nodes for an engine,
        workers for an edge; the per-target counters carry these ids —
        and ``tenants`` indexes ``tenancy.names`` (``tenancy=None``: no
        tenant stage).  ``brownout`` is the degradation policy *while it
        is engaged*, else ``None``: no brownout stage, the configured
        queue limit.  ``queue_estimate`` maps the mask of rows still open
        to every row's queueing delay if the earlier open rows on its
        target are all admitted; without one there is no queue stage,
        and nothing is counted admitted.

        Returns ``(accepted, reason, retry_after_s)``: the rows still
        open, and for the rows closed here an index into :data:`REASONS`
        and the Retry-After hint (zeros elsewhere).
        """
        n = len(times)
        open_rows = np.ones(n, dtype=bool) if closed is None else ~closed
        reason = np.zeros(n, dtype=np.int8)
        retry_after = np.zeros(n)

        def close(rows: np.ndarray, why: int, hints: np.ndarray) -> None:
            reason[rows] = why
            retry_after[rows] = hints
            open_rows[rows] = False

        if tenancy is not None:
            # Tenant policy first: brownout sheds whole low-weight
            # tenants before the per-request priority check, then the
            # tenant's token bucket is charged.  Both are RNG-free.
            names = tenancy.names
            if brownout is not None:
                light = open_rows & tenancy.sheddable[tenants]
                for index, count in index_counts(tenants[light]):
                    tenancy.offered[names[index]] += count
                    tenancy.brownout_shed[names[index]] += count
                close(light, BROWNOUT, self.shed_batch(targets[light], reason="brownout"))
            for index, _ in index_counts(tenants):
                rows = np.flatnonzero(open_rows & (tenants == index))
                waits = tenancy.quota_admit_many(names[index], times[rows].tolist())
                over = [i for i, wait in enumerate(waits or ()) if wait is not None]
                if over:
                    rows, waits = rows[over], np.array([waits[i] for i in over])
                    hints = self.shed_batch(targets[rows], reason="quota", retry_after_s=waits)
                    close(rows, QUOTA, hints)

        limit: Optional[float] = None
        if brownout is not None:
            limit = self.config.queue_limit_seconds * brownout.queue_factor
            if brownout.shed_low_priority:
                low = open_rows & (priorities > 0)
                close(low, BROWNOUT, self.shed_batch(targets[low], reason="brownout"))

        if queue_estimate is not None:
            rows = np.flatnonzero(open_rows)
            accepted, hints = self.decide_batch(
                targets[rows], queue_estimate(open_rows)[rows], limit_s=limit
            )
            close(rows[~accepted], QUEUE_LIMIT, hints[~accepted])
        return open_rows, reason, retry_after

    def _tally(self, nodes: np.ndarray, total_name: str, per_node_name: str) -> None:
        """Bump a fleet counter and its per-node labelled family."""
        tel = self.telemetry
        if tel is None or len(nodes) == 0:
            return
        tel.counter(total_name).inc(len(nodes))
        for node, count in index_counts(nodes):
            tel.counter(labeled(per_node_name, node=node)).inc(count)

    @property
    def total(self) -> int:
        return self.accepted + self.rejected

    def reject_rate(self) -> float:
        return self.rejected / self.total if self.total else 0.0
