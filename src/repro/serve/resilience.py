"""Serving-path fault tolerance: breakers, brownout, retries, hedging.

The batch engine already *models* faults (:mod:`repro.faults` crashes a
node and the cluster emergency-reroutes its buckets), but a live server
must also *detect* them: a router holds a view of the fleet that goes
stale the moment a machine dies, and requests keep flowing to the corpse
until health checks notice.  This module supplies the three layers the
live path needs:

* **Failure detection** — :class:`CircuitBreaker` per node, driven by
  per-tick health probes and by request failures.  ``miss_threshold``
  consecutive misses open the breaker (the node is routed around); after
  ``open_seconds`` it half-opens and lets probes through; after
  ``half_open_successes`` consecutive healthy probes it closes again.
  Every transition is telemetry-visible.
* **Graceful degradation** — :class:`BrownoutConfig`: while any breaker
  is open the cluster is running below plan, so admission tightens (the
  queue limit shrinks by ``queue_factor``) and low-priority requests are
  shed outright instead of letting the whole workload collapse.
* **Request-level resilience** — :class:`ResilientClient`: bounded
  retries with capped exponential backoff + seeded jitter, a per-session
  retry budget (a fixed fraction of offered load, so retries can never
  amplify an outage into a retry storm), and optional tail-latency
  hedging (duplicate a request whose queue estimate is already bad, take
  the faster completion).

Everything here is deterministic: probes run at tick boundaries, the
jitter/priority RNG is seeded separately from the engine's routing RNG,
and disabling resilience (the default) leaves the serving path
bit-identical to the pre-resilience code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.telemetry import Telemetry
from repro.telemetry.metrics import labeled

# Breaker states (also the gauge encoding: closed=0, half-open=1, open=2).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

_STATE_GAUGE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


@dataclass(frozen=True)
class BreakerConfig:
    """Per-node circuit breaker policy.

    Attributes:
        miss_threshold: Consecutive failed probes/requests that open the
            breaker (the consecutive-miss failure detector).
        open_seconds: Dwell time in ``open`` before probing resumes
            (``half-open``).
        half_open_successes: Consecutive healthy probes in ``half-open``
            required to close.
    """

    miss_threshold: int = 3
    open_seconds: float = 30.0
    half_open_successes: int = 2

    def __post_init__(self) -> None:
        if self.miss_threshold < 1:
            raise ConfigurationError("miss_threshold must be >= 1")
        if self.open_seconds <= 0:
            raise ConfigurationError("open_seconds must be positive")
        if self.half_open_successes < 1:
            raise ConfigurationError("half_open_successes must be >= 1")


@dataclass(frozen=True)
class BrownoutConfig:
    """Graceful-degradation policy while capacity is below plan.

    Attributes:
        queue_factor: Multiplier applied to the admission queue limit
            while brownout is engaged (tighter shedding).
        shed_low_priority: Shed low-priority requests outright during
            brownout instead of running them through admission.
    """

    queue_factor: float = 0.5
    shed_low_priority: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.queue_factor <= 1:
            raise ConfigurationError("queue_factor must be in (0, 1]")


@dataclass(frozen=True)
class ResilienceConfig:
    """Engine-side fault tolerance: detection plus degradation."""

    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    brownout: Optional[BrownoutConfig] = field(default_factory=BrownoutConfig)


class CircuitBreaker:
    """Closed / open / half-open state machine for one node.

    The breaker never decides *routing* by itself — the engine zeroes an
    open node's weight in its router view — it only aggregates failure
    evidence (missed health probes, failed requests) into a state.
    """

    def __init__(
        self,
        node_id: int,
        config: BreakerConfig,
        on_transition: Optional[Callable[[int, str, str, float], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.config = config
        self.state = CLOSED
        self.consecutive_misses = 0
        self.consecutive_successes = 0
        self.opened_at: Optional[float] = None
        #: Every (at_seconds, from_state, to_state) this breaker went
        #: through — the e2e tests assert the full detect/recover arc.
        self.transitions: List[Tuple[float, str, str]] = []
        self._on_transition = on_transition

    def _move(self, to_state: str, now: float) -> None:
        from_state = self.state
        self.state = to_state
        self.transitions.append((now, from_state, to_state))
        if self._on_transition is not None:
            self._on_transition(self.node_id, from_state, to_state, now)

    # ------------------------------------------------------------------
    def poll(self, now: float) -> None:
        """Advance time-driven transitions (open -> half-open)."""
        if (
            self.state == OPEN
            and self.opened_at is not None
            and now - self.opened_at >= self.config.open_seconds - 1e-9
        ):
            self.consecutive_successes = 0
            self._move(HALF_OPEN, now)

    def record_success(self, now: float) -> None:
        """One healthy probe (or served request) against this node."""
        if self.state == CLOSED:
            self.consecutive_misses = 0
        elif self.state == HALF_OPEN:
            self.consecutive_successes += 1
            if self.consecutive_successes >= self.config.half_open_successes:
                self.consecutive_misses = 0
                self._move(CLOSED, now)

    def record_failure(self, now: float) -> None:
        """One missed probe or failed request against this node."""
        if self.state == CLOSED:
            self.consecutive_misses += 1
            if self.consecutive_misses >= self.config.miss_threshold:
                self.opened_at = now
                self._move(OPEN, now)
        elif self.state == HALF_OPEN:
            # The recovering node failed its trial: back to open, with a
            # fresh dwell window.
            self.opened_at = now
            self.consecutive_successes = 0
            self._move(OPEN, now)

    @property
    def allows_traffic(self) -> bool:
        return self.state != OPEN

    def state_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "misses": self.consecutive_misses,
            "successes": self.consecutive_successes,
            "opened_at": self.opened_at,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.state = str(state["state"])
        self.consecutive_misses = int(state["misses"])  # type: ignore[arg-type]
        self.consecutive_successes = int(state["successes"])  # type: ignore[arg-type]
        opened = state.get("opened_at")
        self.opened_at = None if opened is None else float(opened)  # type: ignore[arg-type]


class NodeHealthMonitor:
    """Owns the per-node breakers and runs the per-tick probe round.

    A probe against node ``n`` succeeds iff the cluster does not have it
    marked failed — the serving layer's stand-in for a TCP health check.
    Probes run once per engine tick, so detection latency is
    ``miss_threshold`` ticks.
    """

    def __init__(
        self, config: BreakerConfig, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.breakers: Dict[int, CircuitBreaker] = {}
        self.transition_count = 0

    def _on_transition(
        self, node_id: int, from_state: str, to_state: str, now: float
    ) -> None:
        self.transition_count += 1
        tel = self.telemetry
        if tel is not None:
            tel.counter("serve.breaker.transitions").inc()
            tel.gauge(labeled("serve.breaker.state", node=node_id)).set(
                _STATE_GAUGE[to_state]
            )
            tel.event(
                "breaker",
                now,
                node=node_id,
                from_state=from_state,
                to_state=to_state,
            )

    def breaker(self, node_id: int) -> CircuitBreaker:
        breaker = self.breakers.get(node_id)
        if breaker is None:
            breaker = CircuitBreaker(node_id, self.config, self._on_transition)
            self.breakers[node_id] = breaker
        return breaker

    # ------------------------------------------------------------------
    def probe(self, now: float, node_ids: List[int], failed: List[int]) -> None:
        """One health-check round over ``node_ids`` at time ``now``."""
        down = set(failed)
        for node_id in node_ids:
            breaker = self.breaker(node_id)
            breaker.poll(now)
            if node_id in down:
                breaker.record_failure(now)
            else:
                breaker.record_success(now)

    def record_request_failure(self, node_id: int, now: float) -> None:
        """A request-level failure also feeds the detector."""
        self.breaker(node_id).record_failure(now)

    def switch_brownout(
        self, now: float, active: bool, brownout: Optional[BrownoutConfig]
    ) -> bool:
        """Whether brownout is engaged after a probe round: while any
        breaker is open, given a ``brownout`` policy.  A switch from
        ``active`` sets the ``serve.brownout`` gauge, bumps
        ``serve.brownout.engaged`` / ``released`` and emits a ``brownout``
        event naming the open nodes."""
        engaged = brownout is not None and self.any_open()
        tel = self.telemetry
        if engaged != active and tel is not None:
            tel.gauge("serve.brownout").set(1.0 if engaged else 0.0)
            tel.counter("serve.brownout.engaged" if engaged else "serve.brownout.released").inc()
            tel.event(
                "brownout", now, engaged=engaged,
                open_nodes=[n for n, s in self.states().items() if s == OPEN],
            )
        return engaged

    # ------------------------------------------------------------------
    def state_of(self, node_id: int) -> str:
        breaker = self.breakers.get(node_id)
        return breaker.state if breaker is not None else CLOSED

    def any_open(self) -> bool:
        return any(b.state == OPEN for b in self.breakers.values())

    def states(self) -> Dict[int, str]:
        return {node: b.state for node, b in sorted(self.breakers.items())}

    def state_dict(self) -> Dict[str, object]:
        return {str(n): b.state_dict() for n, b in sorted(self.breakers.items())}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        self.breakers.clear()
        for key, value in state.items():
            self.breaker(int(key)).load_state_dict(value)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Request-level resilience (retries, budget, hedging)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryConfig:
    """Client-side retry / hedging policy.

    Attributes:
        max_retries: Retries per logical request (attempts = 1 + this).
        backoff_base_s: First retry delay before jitter.
        backoff_cap_s: Ceiling on the exponential backoff.
        jitter: Uniform jitter fraction added on top of the backoff
            (``delay * (1 + jitter * U[0,1))``), seeded and deterministic.
        budget_fraction: Retry budget as a fraction of offered requests;
            once ``retries > floor + fraction * offered`` further
            failures return to the caller instead of retrying.
        budget_floor: Absolute retry allowance before the fraction kicks
            in (so short runs can still retry at all).
        hedge_queue_seconds: Hedge an *accepted* request whose queue
            estimate exceeds this many seconds by firing a duplicate and
            taking the faster completion; ``None`` disables hedging.
        low_priority_fraction: Fraction of offered requests tagged
            low-priority (sheddable during brownout), drawn from the
            client's seeded RNG.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_cap_s: float = 8.0
    jitter: float = 0.2
    budget_fraction: float = 0.2
    budget_floor: int = 20
    hedge_queue_seconds: Optional[float] = None
    low_priority_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ConfigurationError(
                "need 0 <= backoff_base_s <= backoff_cap_s"
            )
        if self.jitter < 0:
            raise ConfigurationError("jitter must be >= 0")
        if self.budget_fraction < 0 or self.budget_floor < 0:
            raise ConfigurationError("retry budget must be non-negative")
        if self.hedge_queue_seconds is not None and self.hedge_queue_seconds < 0:
            raise ConfigurationError("hedge_queue_seconds must be >= 0")
        if not 0 <= self.low_priority_fraction <= 1:
            raise ConfigurationError("low_priority_fraction must be in [0, 1]")


class ResilientClient:
    """Drives logical requests through submit/retry/hedge to a terminal
    outcome.

    The client is transport-agnostic: it talks to the engine through
    ``engine.submit`` and schedules its own future work (backoff expiry)
    through a caller-supplied ``schedule(when_seconds, fn)`` — the
    loadgen passes its virtual clock's ``call_at``.  Exactly one terminal
    outcome reaches the report per logical request, so request
    conservation (offered = served + shed + errored + in-flight) holds
    by construction.
    """

    def __init__(
        self,
        engine,
        report,
        config: RetryConfig,
        schedule: Callable[[float, Callable[[], None]], None],
        *,
        seed: int = 0,
    ) -> None:
        self.engine = engine
        self.report = report
        self.config = config
        self.schedule = schedule
        # Separate stream from the engine's routing/latency RNG: retry
        # jitter must not perturb serving results.
        self._rng = np.random.default_rng(seed)
        self.outstanding = 0

    # ------------------------------------------------------------------
    def _budget_available(self) -> bool:
        allowance = self.config.budget_floor + int(
            self.config.budget_fraction * self.report.offered
        )
        return self.report.retries < allowance

    def _backoff_s(self, attempt: int) -> float:
        base = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2.0**attempt),
        )
        return base * (1.0 + self.config.jitter * float(self._rng.random()))

    def _mint_trace(self):
        tracer = self.engine.request_tracer
        return tracer.mint("loadgen") if tracer is not None else None

    # ------------------------------------------------------------------
    def submit(self, now: float, tenant: str = "") -> None:
        """Launch one logical request (first attempt) at time ``now``."""
        priority = 0
        if self.config.low_priority_fraction > 0:
            if float(self._rng.random()) < self.config.low_priority_fraction:
                priority = 1
        self.report.offer(tenant)
        self.outstanding += 1
        self._attempt(now, 0, priority, tenant)

    def _attempt(
        self, now: float, attempt: int, priority: int, tenant: str = ""
    ) -> None:
        results: Dict[str, object] = {"primary": None, "hedge": None}
        expect_hedge = False

        def maybe_finish() -> None:
            primary = results["primary"]
            if primary is None:
                return
            if expect_hedge and results["hedge"] is None:
                return
            hedge = results["hedge"]
            best = primary
            if hedge is not None and hedge.accepted:  # type: ignore[union-attr]
                if not primary.accepted or (  # type: ignore[union-attr]
                    hedge.latency_ms < primary.latency_ms  # type: ignore[union-attr]
                ):
                    best = hedge
                    self.report.hedge_wins += 1
            self._resolve(best, attempt, priority, tenant)

        def on_primary(outcome) -> None:
            results["primary"] = outcome
            maybe_finish()

        decision = self.engine.submit(
            on_primary, now=now, trace=self._mint_trace(), priority=priority,
            tenant=tenant,
        )

        hedge_after = self.config.hedge_queue_seconds
        if (
            decision.accepted
            and hedge_after is not None
            and decision.est_queue_seconds > hedge_after
        ):
            expect_hedge = True
            self.report.hedges += 1

            def on_hedge(outcome) -> None:
                results["hedge"] = outcome
                maybe_finish()

            self.engine.submit(
                on_hedge, now=now, trace=self._mint_trace(), priority=priority,
                tenant=tenant,
            )

    def _resolve(
        self, outcome, attempt: int, priority: int, tenant: str = ""
    ) -> None:
        if outcome.accepted:
            if attempt > 0:
                self.report.retry_successes += 1
            self.outstanding -= 1
            self.report.finish(outcome)
            return
        # Failed attempt (shed 503 or node error 500): retry if allowed.
        if attempt < self.config.max_retries and self._budget_available():
            self.report.retries += 1
            delay = self._backoff_s(attempt)
            if outcome.status == 503:
                delay = max(delay, float(outcome.retry_after_s))
            # Failed attempts resolve synchronously, so ``completed_at``
            # is the submission instant — backing off from it never
            # schedules into the clock's past (engine.now lags mid-tick).
            when = float(outcome.completed_at) + delay
            self.schedule(
                when, lambda: self._attempt(when, attempt + 1, priority, tenant)
            )
            return
        if attempt > 0:
            self.report.retries_exhausted += 1
        self.outstanding -= 1
        self.report.finish(outcome)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        return {"rng": _rng_state(self._rng)}

    def load_state_dict(self, state: Dict[str, object]) -> None:
        _set_rng_state(self._rng, state["rng"])  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# Small shared helpers for checkpointable RNG state
# ----------------------------------------------------------------------
def _rng_state(rng: np.random.Generator) -> Dict[str, object]:
    """JSON-safe snapshot of a numpy Generator's bit-generator state."""
    state = rng.bit_generator.state
    return {
        "bit_generator": state["bit_generator"],
        "state": {k: int(v) for k, v in state["state"].items()},
        "has_uint32": int(state.get("has_uint32", 0)),
        "uinteger": int(state.get("uinteger", 0)),
    }


def _set_rng_state(rng: np.random.Generator, snapshot: Dict[str, object]) -> None:
    rng.bit_generator.state = {
        "bit_generator": snapshot["bit_generator"],
        "state": {k: int(v) for k, v in snapshot["state"].items()},  # type: ignore[union-attr]
        "has_uint32": int(snapshot["has_uint32"]),  # type: ignore[arg-type]
        "uinteger": int(snapshot["uinteger"]),  # type: ignore[arg-type]
    }
