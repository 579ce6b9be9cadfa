"""Deterministic serving sessions: engine + loadgen on a virtual clock.

:class:`ServeSession` is the one driver behind the unit tests, the CI
smokes and every mode of ``repro serve``: engine ticks and loadgen
arrivals interleave on one :class:`~repro.serve.clock.VirtualClock`, so
a simulated day of serving runs in however long the callbacks take and
two runs with the same seeds are identical.
``--no-http`` loops over :meth:`ServeSession.step` itself; the HTTP
front end (:class:`~repro.serve.http.ServeApp`) calls the same method
once per paced tick.

The engine is one :class:`~repro.serve.engine.ServerEngine` or a
:class:`~repro.serve.edge.Fleet` of worker shards: anything with
``submit_batch``, ``tick``, ``dt_s``, ``live_metrics``, ``status_lines``
and ``state_dict`` / ``load_state_dict``.

The session is also the checkpoint driver: with a
:class:`~repro.serve.checkpoint.CheckpointConfig` it snapshots the full
serving state (engine, control loop, loadgen cursor, retry client) on a
cadence — at quiescent tick boundaries only — and
:meth:`ServeSession.resume` rebuilds a session from such a snapshot that
continues **bit-identically** to a run that was never interrupted.
"""

from __future__ import annotations

import math
from dataclasses import asdict, fields
from typing import Dict, List, Optional

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.serve.checkpoint import CheckpointConfig, read_checkpoint, write_checkpoint
from repro.serve.clock import VirtualClock
from repro.serve.engine import ServerEngine
from repro.serve.loadgen import LoadGenerator, LoadgenReport
from repro.serve.resilience import RetryConfig
from repro.telemetry.timeseries import TimeSeriesStore


class ServeSession:
    """Couples an engine with an arrival schedule.

    Args:
        engine: The serving driver (carries admission + controller): a
            :class:`ServerEngine` or a :class:`~repro.serve.edge.Fleet`.
        arrivals: Sorted arrival timestamps, seconds (see
            :mod:`repro.serve.loadgen`).
        clock: Optional pre-built virtual clock (e.g. to co-schedule
            extra probes); a fresh one is created otherwise.
        retry: Per-request resilience policy (bounded retries with
            backoff, optional hedging) applied by the loadgen client.
        retry_seed: Seed of the retry client's jitter/priority RNG
            (separate from the engine RNG, so enabling retries does not
            perturb routing or latency draws).
        checkpoint: Snapshot the full session state to this file on the
            configured cadence.  Checkpoints are only written at
            quiescent tick boundaries; a due-but-unquiescent snapshot is
            retried on the next tick.
        tenant_indices: Optional per-arrival tenant index array (from
            :func:`repro.tenancy.composite_arrivals`), parallel to
            ``arrivals``.
        tenant_names: Registry names the indices point into.
        timeseries: Optional
            :class:`~repro.telemetry.timeseries.TimeSeriesStore` sampled
            from ``engine.live_metrics`` once per tick.  Sampling
            is read-only: it never touches the engine RNG or the
            telemetry record streams, so a sampled run stays
            bit-identical to an unsampled one.
    """

    def __init__(
        self,
        engine: ServerEngine,
        arrivals: np.ndarray,
        *,
        clock: Optional[VirtualClock] = None,
        retry: Optional[RetryConfig] = None,
        retry_seed: int = 0,
        checkpoint: Optional[CheckpointConfig] = None,
        tenant_indices: Optional[np.ndarray] = None,
        tenant_names: Optional[List[str]] = None,
        timeseries: Optional["TimeSeriesStore"] = None,
    ) -> None:
        self.engine = engine
        self.clock = clock or VirtualClock()
        self.loadgen = LoadGenerator(
            engine, arrivals, self.clock, retry=retry, retry_seed=retry_seed,
            tenant_indices=tenant_indices, tenant_names=tenant_names,
        )
        if timeseries is not None and engine.telemetry is None:
            raise ConfigurationError("a timeseries store needs engine telemetry")
        self.timeseries = timeseries
        self.checkpoint = checkpoint
        self.checkpoints_written = 0
        self._checkpoint_due = (
            self.clock.now + checkpoint.every_s if checkpoint is not None else None
        )
        # Serving time so far is ``clock.now - _origin`` — correct even
        # mid-run, which is when cadence checkpoints are written.
        self._origin = self.clock.now

    def step(self) -> None:
        """Serve one engine tick.

        Everything scheduled before the tick boundary fires in clock
        order — arrival bursts, retry and hedge expiries, ties by
        insertion — then the engine ticks, the time-series store samples
        and the checkpoint cadence is checked.  :meth:`run` loops over
        this; :class:`~repro.serve.http.ServeApp` paces it.
        """
        clock = self.clock
        end = clock.now + self.engine.dt_s
        self.loadgen.start()
        clock.call_at(end, self._tick)
        clock.run_until(end)
        self.loadgen.report.duration_s = clock.now - self._origin

    @property
    def idle(self) -> bool:
        """Nothing is due: no admitted request awaits a tick, no retry or
        hedge is scheduled and the arrival schedule has fully fired."""
        loadgen = self.loadgen
        return (
            self.engine.pending_requests == 0
            and self.clock.pending == 0
            and loadgen._next >= len(loadgen.arrivals)
        )

    def _tick(self) -> None:
        self.engine.tick()
        if self.timeseries is not None:
            self.timeseries.sample(self.engine.live_metrics, self.clock.now)
        self._maybe_checkpoint()

    def run(self, duration_s: float) -> LoadgenReport:
        """Serve for ``duration_s`` simulated seconds; returns the report.

        The duration is rounded up to a whole number of ticks so every
        admitted request completes (accepted work resolves on the next
        tick).  Runs with zero real sleeps.
        """
        if duration_s <= 0:
            raise ConfigurationError("duration_s must be positive")
        for _ in range(int(math.ceil(duration_s / self.engine.dt_s - 1e-9))):
            self.step()
        return self.loadgen.report

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def _maybe_checkpoint(self) -> None:
        if self.checkpoint is None or self._checkpoint_due is None:
            return
        if self.clock.now < self._checkpoint_due - 1e-9:
            return
        try:
            self.write_checkpoint(self.checkpoint.path)
        except CheckpointError:
            return  # not quiescent: retried at the next tick boundary
        while self._checkpoint_due <= self.clock.now + 1e-9:
            self._checkpoint_due += self.checkpoint.every_s

    def state(self) -> Dict[str, object]:
        """Snapshot the full session state (raises unless quiescent)."""
        client = self.loadgen.client
        if client is not None and client.outstanding:
            raise CheckpointError(
                f"cannot checkpoint with {client.outstanding} retry-client "
                "requests outstanding"  # their scheduled retries would be lost
            )
        return {
            "clock_now": self.clock.now,
            "ran_s": self.clock.now - self._origin,
            **self.engine.state_dict(),
            "loadgen": {
                "cursor": self.loadgen._next,
                "report": asdict(self.loadgen.report),
            },
            "client": client.state_dict() if client is not None else None,
        }

    def write_checkpoint(self, path: str) -> str:
        """Write the session snapshot to ``path``; returns the digest."""
        digest = write_checkpoint(path, self.state())
        self.checkpoints_written += 1
        tel = self.engine.telemetry
        if tel is not None:
            tel.counter("serve.checkpoints").inc()
            tel.event(
                "checkpoint", self.clock.now, path=path, sha256=digest[:16]
            )
        return digest

    @classmethod
    def resume(
        cls, engine: ServerEngine, arrivals: np.ndarray, checkpoint_path: str, **kwargs: object
    ) -> "ServeSession":
        """Rebuild a session from a snapshot written by an earlier run.

        ``engine`` (worker specs, for a fleet) must be fresh and
        configured as the checkpointed one (fingerprint-verified),
        ``arrivals`` the same full schedule — the snapshot's cursor
        skips the part already consumed — and the keywords are the
        constructor's.  The resumed session continues bit-identically
        to an uninterrupted run.
        """
        state = read_checkpoint(checkpoint_path)
        try:
            clock_now = float(state["clock_now"])  # type: ignore[arg-type]
            loadgen_state: Dict[str, object] = state["loadgen"]  # type: ignore[assignment]
            cursor = int(loadgen_state["cursor"])  # type: ignore[arg-type]
            report_state: Dict[str, object] = loadgen_state["report"]  # type: ignore[assignment]
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint {checkpoint_path} is missing session fields: {exc}"
            ) from None
        session = cls(engine, arrivals, **kwargs)  # type: ignore[arg-type]
        session.engine.load_state_dict(state)
        session.clock.advance(clock_now)
        session._origin = clock_now - float(state.get("ran_s", 0.0))  # type: ignore[arg-type]
        if session.checkpoint is not None:
            session._checkpoint_due = clock_now + session.checkpoint.every_s
        session.loadgen._next = cursor
        _restore_report(session.loadgen.report, report_state)
        # The snapshot was taken inside the tick, before step() stamped it.
        session.loadgen.report.duration_s = clock_now - session._origin
        client_state = state.get("client")
        if client_state is not None:
            if session.loadgen.client is None:
                raise CheckpointError(
                    "checkpoint carries retry-client state but retries are "
                    "disabled on the resumed session"
                )
            session.loadgen.client.load_state_dict(client_state)  # type: ignore[arg-type]
        return session

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, object]:
        """Loadgen summary merged with the engine's serving state."""
        out: Dict[str, object] = dict(self.loadgen.report.summary())
        out.update(self.engine.healthz())
        return out

    def format_report(self) -> str:
        """The run report ``repro serve`` prints, with or without HTTP."""
        engine = self.engine
        report = self.loadgen.report
        lines = [report.format_report()] if report.offered else []
        lines.extend(engine.status_lines())
        if engine.detects_failures:
            lines.append(report.conservation_line())
        if self.checkpoints_written:
            lines.append(f"checkpoints written: {self.checkpoints_written}")
        log = getattr(engine.controller, "decision_log", None)
        if log:
            lines.append("decisions:")
            lines.extend(f"  {decision}" for decision in log)
        return "\n".join(lines)


def _restore_report(report: LoadgenReport, state: Dict[str, object]) -> None:
    """Overwrite a fresh report with checkpointed counters and samples
    (fields an older checkpoint lacks keep their defaults)."""
    for field in fields(report):
        if field.name in state:
            setattr(report, field.name, state[field.name])
