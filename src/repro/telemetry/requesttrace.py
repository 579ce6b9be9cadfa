"""Per-request trace context for the serving path.

The serving layer answers aggregate questions (counters, percentiles)
but not request-level ones: *which* requests were shed during a spike,
which ones rode out a migration, what queue estimate the admission
controller saw for a specific transaction.  This module adds that layer
on the existing deterministic :class:`~repro.telemetry.tracer.Tracer`:

* a :class:`TraceContext` — a monotonically minted trace id plus the
  origin of the request (``loadgen``, ``http`` or ``engine`` for
  direct ``submit`` calls) — is created at the edge and travels with
  the request;
* :class:`RequestTracer` records each request as a small parented span
  tree: a root ``request`` span (submission to completion) with an
  ``admission`` child (the accept/shed decision with the queue estimate
  it was based on) and, for accepted requests, a ``serve`` child
  covering queueing + service.  When a migration is in flight at
  submission, the root span carries the migration span's id so a trace
  can be joined against the reconfiguration that overlapped it.

Spans are *detached* (:meth:`Tracer.begin_detached`): request lifetimes
interleave arbitrarily with each other and with the stepped migration
span, so the tracer's nesting stack is never involved.  Timestamps are
engine seconds throughout; with the same seeds, two runs export
identical trace bytes.  Tracing never touches the engine's RNG or
state, so enabling it leaves engine results bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.telemetry import Telemetry
from repro.telemetry.tracer import Span

#: Default shed reason: rejected by admission control's queue limit.
#: Brownout sheds carry ``"brownout"`` and dead-node failures close the
#: trace with status ``error`` and an ``error_reason`` instead.
SHED_QUEUE_LIMIT = "queue-limit"


@dataclass(frozen=True)
class TraceContext:
    """Identity of one in-flight request.

    Attributes:
        trace_id: Monotone per-tracer request id (1-based).
        origin: Where the request entered the system (``loadgen``,
            ``http``, ``engine``).
    """

    trace_id: int
    origin: str


class RequestTracer:
    """Mints trace contexts and records request span trees.

    One instance per :class:`~repro.serve.engine.ServerEngine`; the
    engine drives :meth:`begin_request` / :meth:`finish_*`, while the
    edges (:mod:`repro.serve.loadgen`, :mod:`repro.serve.http`) mint
    contexts so the origin is recorded where the request was born.
    """

    def __init__(self, telemetry: Telemetry) -> None:
        if telemetry is None or not telemetry.enabled:
            raise ConfigurationError(
                "request tracing needs an enabled Telemetry handle"
            )
        self.telemetry = telemetry
        self._next_trace_id = 1

    # ------------------------------------------------------------------
    def mint(self, origin: str = "engine") -> TraceContext:
        """Create the context for a new request (deterministic ids)."""
        ctx = TraceContext(self._next_trace_id, origin)
        self._next_trace_id += 1
        return ctx

    # ------------------------------------------------------------------
    def begin_request(
        self,
        ctx: TraceContext,
        at: float,
        *,
        node: int,
        partition: int,
        queue_estimate: float,
        migration_span_id: Optional[int] = None,
    ) -> Span:
        """Open the root span for one routed request."""
        attrs = {
            "trace_id": ctx.trace_id,
            "origin": ctx.origin,
            "node": node,
            "partition": partition,
            "queue_estimate": round(queue_estimate, 6),
        }
        if migration_span_id is not None:
            attrs["migration_span"] = migration_span_id
        return self.telemetry.tracer.begin_detached("request", at=at, **attrs)

    def record_admitted(self, root: Span, at: float) -> Span:
        """Record the accept decision; returns the open ``serve`` child."""
        self.telemetry.tracer.begin_detached(
            "admission", at=at, parent=root, decision="accept"
        ).finish(at=at)
        return self.telemetry.tracer.begin_detached("serve", at=at, parent=root)

    def record_shed(
        self,
        root: Span,
        at: float,
        retry_after_s: float,
        *,
        reason: str = SHED_QUEUE_LIMIT,
    ) -> None:
        """Record the shed decision and close the whole trace as shed."""
        shed_reason = reason or SHED_QUEUE_LIMIT
        self.telemetry.tracer.begin_detached(
            "admission",
            at=at,
            parent=root,
            decision="shed",
            shed_reason=shed_reason,
            retry_after_s=round(retry_after_s, 6),
        ).finish(at=at)
        root.attrs["shed_reason"] = shed_reason
        root.finish(at=at, status="shed")

    def record_error(self, root: Span, at: float, *, reason: str) -> None:
        """Close a request that failed before admission (dead node)."""
        self.telemetry.tracer.begin_detached(
            "error", at=at, parent=root, error_reason=reason
        ).finish(at=at)
        root.attrs["error_reason"] = reason
        root.finish(at=at, status="error")

    def finish_served(
        self, root: Span, serve_span: Span, at: float, latency_ms: float
    ) -> None:
        """Close an accepted request's trace at its completion time."""
        serve_span.attrs["latency_ms"] = round(latency_ms, 6)
        serve_span.finish(at=at)
        root.attrs["latency_ms"] = round(latency_ms, 6)
        root.finish(at=at)
