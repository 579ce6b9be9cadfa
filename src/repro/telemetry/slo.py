"""SLO burn-rate monitoring for the serving path.

An SLO here is a *good-fraction* objective over served requests: a
request is **good** when it is admitted and completes under the latency
threshold; it is **bad** when it is shed or completes over the
threshold.  The error budget is ``1 - objective`` (a 99.9% objective
leaves a 0.1% budget), and the **burn rate** of a window is::

    burn = (bad / total in window) / (1 - objective)

Burn rate 1 means the budget is being consumed exactly as provisioned;
burn rate 10 means ten times too fast.  Following the multi-window
alerting idiom (Google SRE workbook), :class:`SLOMonitor` tracks a
*fast* and a *slow* rolling window and fires only when **both** exceed
the threshold — the fast window makes alerts responsive, the slow
window keeps a transient blip from paging.  Alert transitions are
emitted as telemetry ``slo_alert`` events; the current state is
exported on ``/healthz`` (a firing alert degrades the health status)
and in the run reports.

The monitor runs on simulated time fed by the engine tick — no wall
clock — so its alerts, like everything else in the telemetry layer,
are deterministic and byte-reproducible.

The offline runs are scored by Table 2's rule instead
(:func:`violation_seconds`, :func:`sla_report`): "the total number of
seconds during the experiment in which the 50th, 95th, or 99th
percentile latency exceeds 500 ms, since that is the maximum delay that
is unnoticeable by users".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import PAPER_SLA_MS
from repro.errors import CheckpointError, ConfigurationError
from repro.telemetry import Telemetry
from repro.telemetry.metrics import labeled

if TYPE_CHECKING:
    from repro.engine.simulator import RunResult


@dataclass(frozen=True)
class SLOConfig:
    """Objective and alerting knobs.

    Attributes:
        objective: Target good fraction in ``(0, 1)`` (paper-flavoured
            default: 99.9% of requests served under the SLA).
        latency_threshold_ms: Latency bound defining a good request;
            defaults to the paper's 500 ms SLA.
        fast_window_s: Short alerting window, seconds.
        slow_window_s: Long alerting window, seconds.
        burn_threshold: Fire when *both* windows burn at or above this
            multiple of the provisioned budget rate.
        min_samples: Requests the slow window must contain before an
            alert may fire.  At the start of a run (or under near-zero
            traffic) both windows hold the same handful of requests and
            a single bad one saturates them — the guard keeps that from
            paging.
    """

    objective: float = 0.999
    latency_threshold_ms: float = PAPER_SLA_MS
    fast_window_s: float = 300.0
    slow_window_s: float = 3600.0
    burn_threshold: float = 10.0
    min_samples: int = 20

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError("objective must be in (0, 1)")
        if self.latency_threshold_ms <= 0:
            raise ConfigurationError("latency_threshold_ms must be positive")
        if self.fast_window_s <= 0 or self.slow_window_s <= 0:
            raise ConfigurationError("SLO windows must be positive")
        if self.fast_window_s > self.slow_window_s:
            raise ConfigurationError(
                "fast_window_s must not exceed slow_window_s"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError("burn_threshold must be positive")
        if self.min_samples < 1:
            raise ConfigurationError("min_samples must be >= 1")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


class _Window:
    """Rolling (t, good, bad) aggregate over the trailing ``seconds``."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self._samples: Deque[Tuple[float, int, int]] = deque()
        self._good = 0
        self._bad = 0

    def add(self, t: float, good: int, bad: int) -> None:
        self._samples.append((t, good, bad))
        self._good += good
        self._bad += bad
        cutoff = t - self.seconds
        while self._samples and self._samples[0][0] <= cutoff:
            _, g, b = self._samples.popleft()
            self._good -= g
            self._bad -= b

    def error_rate(self) -> float:
        total = self._good + self._bad
        return self._bad / total if total else 0.0

    @property
    def total(self) -> int:
        return self._good + self._bad


class SLOMonitor:
    """Evaluates the burn rate each tick and tracks alert state.

    Args:
        config: Objective and window configuration.
        telemetry: Optional handle; alert transitions become
            ``slo_alert`` events and the burn rates live gauges.
        labels: Optional label set keying this monitor within a family
            (e.g. ``{"tenant": "checkout"}``).  Labels are folded into
            the gauge/counter names through the canonical
            ``name{key="value"}`` convention of
            :func:`repro.telemetry.metrics.labeled` — so a per-tenant
            monitor writes ``slo.fast_burn{tenant="checkout"}`` and the
            Prometheus exporter re-emits real labels — and into every
            ``slo_alert`` event's fields, so ``repro explain`` can group
            alerts per label.  An unlabelled monitor behaves exactly as
            before.
    """

    def __init__(
        self,
        config: Optional[SLOConfig] = None,
        telemetry: Optional[Telemetry] = None,
        *,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        self.config = config or SLOConfig()
        self.telemetry = telemetry
        self.labels: Dict[str, object] = dict(labels or {})
        self._fast = _Window(self.config.fast_window_s)
        self._slow = _Window(self.config.slow_window_s)
        self.alerting = False
        self.alerts_fired = 0
        self.good_total = 0
        self.bad_total = 0
        self.fast_burn = 0.0
        self.slow_burn = 0.0

    # ------------------------------------------------------------------
    def metric_key(self, base: str) -> str:
        """Registry key for one of this monitor's metrics: the base name
        with the monitor's labels folded in canonically."""
        return labeled(base, **self.labels)

    def classify(self, latency_ms):
        """Good/bad verdict for one *completed* request (or, given an
        array of latencies, one verdict per request)."""
        return latency_ms <= self.config.latency_threshold_ms

    def observe(self, t: float, good: int, bad: int) -> None:
        """Fold one tick's good/bad counts in and re-evaluate the alert.

        Shed requests count as bad — from the client's point of view a
        503 burns the budget exactly like an over-SLA completion.
        """
        self.good_total += good
        self.bad_total += bad
        self._fast.add(t, good, bad)
        self._slow.add(t, good, bad)
        budget = self.config.error_budget
        self.fast_burn = self._fast.error_rate() / budget
        self.slow_burn = self._slow.error_rate() / budget

        tel = self.telemetry
        if tel is not None:
            tel.gauge(self.metric_key("slo.fast_burn")).set(round(self.fast_burn, 6))
            tel.gauge(self.metric_key("slo.slow_burn")).set(round(self.slow_burn, 6))

        threshold = self.config.burn_threshold
        should_fire = (
            self._slow.total >= self.config.min_samples
            and self.fast_burn >= threshold
            and self.slow_burn >= threshold
        )
        if should_fire and not self.alerting:
            self.alerting = True
            self.alerts_fired += 1
            if tel is not None:
                tel.counter(self.metric_key("slo.alerts_fired")).inc()
                tel.event(
                    "slo_alert",
                    t,
                    state="fire",
                    fast_burn=round(self.fast_burn, 4),
                    slow_burn=round(self.slow_burn, 4),
                    objective=self.config.objective,
                    **self.labels,
                )
        elif self.alerting and self.fast_burn < threshold:
            # Resolve on the fast window alone: once the recent error
            # rate is back under control the page should clear, even
            # while the slow window still remembers the incident.
            self.alerting = False
            if tel is not None:
                tel.event(
                    "slo_alert",
                    t,
                    state="resolve",
                    fast_burn=round(self.fast_burn, 4),
                    slow_burn=round(self.slow_burn, 4),
                    objective=self.config.objective,
                    **self.labels,
                )

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """JSON-able monitor state for distributed checkpoints.

        The window samples are captured verbatim so a restored monitor
        evicts on exactly the same ticks as the original would have.
        """
        return {
            "fast": [list(s) for s in self._fast._samples],
            "slow": [list(s) for s in self._slow._samples],
            "alerting": self.alerting,
            "alerts_fired": self.alerts_fired,
            "good_total": self.good_total,
            "bad_total": self.bad_total,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output into this monitor."""
        for window, key in ((self._fast, "fast"), (self._slow, "slow")):
            window._samples = deque(
                (float(t), int(g), int(b)) for t, g, b in state[key]
            )
            window._good = sum(s[1] for s in window._samples)
            window._bad = sum(s[2] for s in window._samples)
        self.alerting = bool(state["alerting"])
        self.alerts_fired = int(state["alerts_fired"])
        self.good_total = int(state["good_total"])
        self.bad_total = int(state["bad_total"])
        self.fast_burn = float(state["fast_burn"])
        self.slow_burn = float(state["slow_burn"])

    # ------------------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """Current state for ``/healthz`` and the run reports."""
        total = self.good_total + self.bad_total
        return {
            "objective": self.config.objective,
            "good_fraction": (
                round(self.good_total / total, 6) if total else 1.0
            ),
            "fast_burn": round(self.fast_burn, 4),
            "slow_burn": round(self.slow_burn, 4),
            "alerting": self.alerting,
            "alerts_fired": self.alerts_fired,
        }

    def report_line(self) -> str:
        """The one-line rendering of :meth:`status` every run report
        prints (``SLO ...`` or, for a labelled monitor, ``SLO[checkout] ...``)."""
        state = self.status()
        label = ",".join(str(value) for value in self.labels.values())
        return (
            f"SLO{f'[{label}]' if label else ''} {state['objective']:.3%}: "
            f"good fraction {state['good_fraction']:.3%} | burn fast/slow "
            f"{state['fast_burn']:.2f}/{state['slow_burn']:.2f} | "
            f"alerts fired {state['alerts_fired']}"
            + (" (FIRING)" if state["alerting"] else "")
        )


def load_monitor_states(
    monitors: Dict[str, SLOMonitor], states: Optional[Dict[str, object]]
) -> None:
    """Restore per-tenant monitors from their checkpointed states."""
    for name, state in (states or {}).items():
        monitor = monitors.get(str(name))
        if monitor is None:
            raise CheckpointError(
                f"checkpoint carries SLO state for unknown tenant {name!r}"
            )
        monitor.load_state_dict(state)


def violation_seconds(
    latency_ms: Sequence[float],
    threshold_ms: float = PAPER_SLA_MS,
    dt_seconds: float = 1.0,
) -> int:
    """Seconds during which the latency series exceeded the threshold."""
    if dt_seconds <= 0:
        raise ConfigurationError("dt_seconds must be positive")
    arr = np.asarray(latency_ms, dtype=np.float64)
    return int(round(float(np.sum(arr > threshold_ms)) * dt_seconds))


@dataclass(frozen=True)
class SLAReport:
    """Violations per percentile plus the resource bill (one Table 2 row)."""

    name: str
    violations_p50: int
    violations_p95: int
    violations_p99: int
    average_machines: float

    def as_row(self) -> str:
        return (
            f"{self.name:<28} {self.violations_p50:>6} {self.violations_p95:>6} "
            f"{self.violations_p99:>6} {self.average_machines:>8.2f}"
        )


def sla_report(name: str, result: "RunResult") -> SLAReport:
    """One Table 2 row from an engine run, scored against its own SLA."""
    return SLAReport(
        name=name,
        violations_p50=violation_seconds(result.p50_ms, result.sla_ms, result.dt_seconds),
        violations_p95=violation_seconds(result.p95_ms, result.sla_ms, result.dt_seconds),
        violations_p99=violation_seconds(result.p99_ms, result.sla_ms, result.dt_seconds),
        average_machines=result.average_machines(),
    )
