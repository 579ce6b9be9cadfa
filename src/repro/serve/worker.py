"""Worker process for the distributed serving path.

One worker owns one :class:`~repro.serve.engine.ServerEngine` shard —
its own routing RNG, admission controller, load monitor and (optionally)
online control loop — and advances it in lock step with the edge: every
``step`` message carries the arrivals routed to this shard for one tick
as columns, the worker hands them to ``engine.submit_batch``, ticks the
engine once, and replies with its decision on every request — the
columns of an :class:`~repro.serve.engine.OutcomeBatch` that the edge
does not already hold — plus a small health advertisement (machines,
current queue estimate).  Because the edge is the only initiator and
each request gets exactly one reply, the distributed session is
deterministic regardless of process scheduling — the same property the
virtual clock gives the single-process session.

The command protocol (frames of :mod:`repro.serve.transport`)::

    {"cmd": "hello"}                      -> protocol version + capacity ad
    {"cmd": "step", <request columns>}    -> <reply columns> [+ delta] + capacity ad
    {"cmd": "healthz"}                    -> full engine healthz
    {"cmd": "capture"}                    -> engine+control snapshot
    {"cmd": "restore", "state": {...}}    -> ok (fresh engines only)
    {"cmd": "telemetry"}                  -> the span records, once, at the end of a run
    {"cmd": "shutdown"}                   -> ok; the process exits

A ``step`` request holds one row per arrival, in arrival order:
``times`` (float64) and, under edge tracing, ``trace_id`` (int64; 0 =
none minted at the edge).  The reply answers every posted row, in
posted order, in the columns of :data:`STEP_REPLY_COLUMNS` — only the
worker's decisions: the edge keeps everything else it forwarded — plus
``delta`` — the metrics new or changed since the last reply and the
events since (a :class:`~repro.telemetry.merge.TelemetryDeltaTracker`
delta) — when this worker keeps telemetry.

Every reply carries ``"ok"``; handler errors come back as
``{"ok": false, "error": ...}`` so a worker never dies on a bad command
(it dies on a broken transport, which is the edge going away).

:class:`WorkerHandle` is the edge-side proxy.  Its ``inproc`` mode
drives a :class:`WorkerServer` directly in-process through the same
message dicts — identical protocol, no frames, no sockets — which is what the
unit tests (and coverage) exercise; ``pipe`` and ``tcp`` put a real
process boundary behind the identical messages.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.errors import ConfigurationError, ReproError, TransportError
from repro.serve.admission import AdmissionConfig
from repro.serve.engine import OutcomeBatch, ServerEngine
from repro.serve.resilience import ResilienceConfig
from repro.serve.transport import (
    DEFAULT_TIMEOUT_S,
    PROTOCOL_VERSION,
    PipeTransport,
    TcpTransport,
    connect_transport,
)
from repro.telemetry import Telemetry
from repro.telemetry.merge import TelemetryDeltaTracker
from repro.telemetry.perf import maybe_span
from repro.telemetry.requesttrace import TraceContext
from repro.telemetry.slo import SLOConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tenancy.admission import TenantAdmission

#: Transport modes a distributed session can run its workers over.
TRANSPORT_MODES = ("pipe", "tcp", "inproc")

#: The columns of a ``step`` reply: the worker's decision on each posted
#: row, in :class:`~repro.serve.engine.OutcomeBatch` field order
#: (``reason`` holds indices into :data:`~repro.serve.engine.REASONS`).
STEP_REPLY_COLUMNS = (
    "status", "node_id", "completed_at", "latency_ms", "retry_after_s", "reason",
)
#: Wire dtype of every ``step`` column, request and reply.
STEP_DTYPES = {
    "times": np.float64, "trace_id": np.int64,
    "status": np.int64, "node_id": np.int64, "completed_at": np.float64,
    "latency_ms": np.float64, "retry_after_s": np.float64, "reason": np.int8,
}

_SPAWN = multiprocessing.get_context("spawn")


def wire_column(
    message: Dict[str, object], key: str, rows: Optional[int] = None, codes: Optional[int] = None
) -> np.ndarray:
    """``message[key]`` checked to be a one-dimensional column of its
    :data:`STEP_DTYPES` dtype (of ``rows`` rows; holding indices into
    ``codes`` values); ``ValueError`` otherwise.  Either end of the
    ``step`` exchange validates what the other sent with it."""
    column = message.get(key)
    dtype = STEP_DTYPES[key]
    if not isinstance(column, np.ndarray) or column.dtype != dtype or column.ndim != 1:
        raise ValueError(f"{key!r} is not a {np.dtype(dtype).name} column")
    if rows is not None and len(column) != rows:
        raise ValueError(f"{key!r} has {len(column)} rows, expected {rows}")
    if codes is not None and len(column) and not 0 <= column.min() <= column.max() < codes:
        raise ValueError(f"{key!r} holds indices outside its {codes} values")
    return column


def join_columns(key: str, parts: List[np.ndarray]) -> np.ndarray:
    """``parts`` end to end as the ``step`` column ``key``."""
    dtype = STEP_DTYPES[key]
    if len(parts) == 1:
        return np.asarray(parts[0], dtype=dtype)
    return np.concatenate(parts, dtype=dtype) if parts else np.zeros(0, dtype=dtype)


@dataclass(frozen=True)
class WorkerSpec:
    """JSON-able recipe for one worker's engine shard.

    The spec crosses the process boundary (spawn pickles it), so it
    holds only plain values — the worker builds the engine itself with
    :func:`build_worker_engine`.
    """

    worker_id: int
    initial_nodes: int = 1
    max_nodes: int = 4
    saturation_rate_per_node: float = 438.0
    db_size_kb: float = 1106.0 * 1024.0
    slot_seconds: float = 60.0
    interval_seconds: float = 300.0
    queue_limit_seconds: float = 10.0
    seed: int = 0
    control: str = "none"
    spar: Dict[str, int] = field(default_factory=dict)
    refit_every: int = 10080
    trace_requests: bool = False
    collect_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ConfigurationError("worker_id must be >= 0")
        if self.control not in ("online", "reactive", "none"):
            raise ConfigurationError(
                f"unknown worker control {self.control!r}; "
                "use online, reactive or none"
            )
        if self.trace_requests and not self.collect_telemetry:
            raise ConfigurationError(
                "trace_requests needs collect_telemetry on the worker"
            )

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkerSpec":
        return cls(**data)  # type: ignore[arg-type]


def build_worker_engine(
    spec: WorkerSpec,
    telemetry: Optional[Telemetry] = None,
    *,
    slo: Optional[SLOConfig] = None,
    resilience: Optional[ResilienceConfig] = None,
    tenancy: Optional["TenantAdmission"] = None,
) -> ServerEngine:
    """Construct the engine a spec describes — a worker's shard, or the
    whole of ``repro serve``, which passes its SLO / resilience /
    tenancy policy straight through to :class:`ServerEngine`."""
    from repro.core.params import SystemParameters
    from repro.engine.simulator import EngineConfig

    config = EngineConfig(
        max_nodes=spec.max_nodes,
        saturation_rate_per_node=spec.saturation_rate_per_node,
        db_size_kb=spec.db_size_kb,
    )
    params = SystemParameters.from_saturation(
        spec.saturation_rate_per_node, interval_seconds=spec.interval_seconds
    )
    controller = None
    if spec.control == "online":
        from repro.prediction.online import OnlinePredictor
        from repro.prediction.spar import SPARPredictor
        from repro.serve.control import OnlineControlLoop

        spar_kwargs = {
            "period": 288, "n_periods": 3, "n_recent": 6, "max_horizon": 12,
        }
        spar_kwargs.update({k: int(v) for k, v in spec.spar.items()})
        online = OnlinePredictor(
            SPARPredictor(**spar_kwargs), refit_every=spec.refit_every
        )
        controller = OnlineControlLoop(
            params,
            online,
            measurement_slot_seconds=spec.slot_seconds,
            max_machines=spec.max_nodes,
        )
    elif spec.control == "reactive":
        from repro.core.controller import ReactiveController

        controller = ReactiveController(
            params,
            max_machines=spec.max_nodes,
            measurement_slot_seconds=spec.slot_seconds,
        )
    return ServerEngine(
        engine_config=config,
        initial_nodes=spec.initial_nodes,
        slot_seconds=spec.slot_seconds,
        admission=AdmissionConfig(queue_limit_seconds=spec.queue_limit_seconds),
        controller=controller,
        seed=spec.seed,
        telemetry=telemetry,
        trace_requests=spec.trace_requests,
        slo=slo,
        resilience=resilience,
        tenancy=tenancy,
    )


class WorkerServer:
    """Executes edge commands against one engine shard."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.telemetry: Optional[Telemetry] = (
            Telemetry() if spec.collect_telemetry else None
        )
        self.engine = build_worker_engine(spec, self.telemetry)
        self._delta_tracker = TelemetryDeltaTracker() if self.telemetry is not None else None

    # ------------------------------------------------------------------
    def _capacity_ad(self) -> Dict[str, object]:
        """What the edge's router view learns from every reply."""
        return {
            "worker": self.spec.worker_id,
            "machines": int(self.engine.sim.machines_allocated),
            "queue_seconds": float(self.engine._node_queue.max()),
        }

    def handle(self, message: Dict[str, object]) -> Dict[str, object]:
        """One request in, one reply out; never raises on bad input (a
        malformed frame gets an error reply, the engine stays untouched)."""
        cmd = message.get("cmd")
        try:
            if cmd == "hello":
                reply: Dict[str, object] = {"ok": True, "protocol": PROTOCOL_VERSION}
            elif cmd == "step":
                reply = self._cmd_step(message)
            elif cmd == "healthz":
                reply = {"ok": True, "healthz": self.engine.healthz()}
            elif cmd == "capture":
                reply = {"ok": True, "state": self.engine.state_dict()}
            elif cmd == "restore":
                reply = self._cmd_restore(message)
            elif cmd == "telemetry":
                spans = self.telemetry.tracer.records() if self.telemetry is not None else []
                reply = {"ok": True, "spans": spans}
            elif cmd == "shutdown":
                reply = {"ok": True, "bye": True}
            else:
                return {"ok": False, "error": f"unknown command {cmd!r}"}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        reply.update(self._capacity_ad())
        return reply

    def _cmd_step(self, message: Dict[str, object]) -> Dict[str, object]:
        with maybe_span("worker.step"):
            return self._run_step(message)

    def _run_step(self, message: Dict[str, object]) -> Dict[str, object]:
        engine = self.engine
        traces: Optional[List[Optional[TraceContext]]] = None
        try:
            times = wire_column(message, "times")
            if "trace_id" in message and engine.request_tracer is not None:
                trace_ids = wire_column(message, "trace_id", len(times)).tolist()
                # 0: the edge minted no id for this row; the engine does.
                traces = [TraceContext(tid, "edge") if tid else None for tid in trace_ids]
        except ValueError as exc:
            return {"ok": False, "error": f"malformed step frame: {exc}"}
        batches: List[OutcomeBatch] = []
        accepted = engine.submit_batch(times, sink=batches.append, traces=traces).accepted
        engine.tick()
        # The engine answers the rows it shed first, then the tick's
        # completions; the reply answers the posted rows in posted order.
        order = np.argsort(accepted, kind="stable")
        reply: Dict[str, object] = {"ok": True}
        for name in STEP_REPLY_COLUMNS:
            column = np.empty(len(times), dtype=STEP_DTYPES[name])
            column[order] = join_columns(name, [getattr(batch, name) for batch in batches])
            reply[name] = column
        if self._delta_tracker is not None:
            reply["delta"] = self._delta_tracker.delta(self.telemetry)
        return reply

    def _cmd_restore(self, message: Dict[str, object]) -> Dict[str, object]:
        state = message.get("state")
        if not isinstance(state, dict):
            return {"ok": False, "error": "malformed restore frame: no state"}
        self.engine.load_state_dict(state)
        return {"ok": True}


def worker_main(spec_dict: Dict[str, object], mode: str, endpoint) -> None:
    """Subprocess entry point: serve commands until shutdown or EOF."""
    spec = WorkerSpec.from_dict(spec_dict)
    if mode == "pipe":
        transport = PipeTransport(endpoint, timeout_s=None)
    elif mode == "tcp":
        host, port = endpoint
        transport = connect_transport(str(host), int(port), timeout_s=DEFAULT_TIMEOUT_S)
        transport.timeout_s = None  # block between ticks; EOF ends us
        transport.sock.settimeout(None)
        transport.send({"worker": spec.worker_id, "protocol": PROTOCOL_VERSION})
    else:  # pragma: no cover - guarded by WorkerHandle
        raise ConfigurationError(f"unknown worker transport mode {mode!r}")
    server = WorkerServer(spec)
    try:
        while True:
            try:
                message = transport.recv()
            except TransportError:
                break  # the edge went away; nothing left to serve
            reply = server.handle(message)
            transport.send(reply)
            if message.get("cmd") == "shutdown":
                break
    finally:
        transport.close()


class WorkerHandle:
    """Edge-side proxy for one worker, over any transport mode.

    ``inproc`` runs the :class:`WorkerServer` in the calling process —
    the same message dicts, columns passed by reference — and exists so the
    deterministic unit tests (and line coverage) can exercise the full
    edge/worker protocol without process scheduling in the loop.
    ``pipe`` and ``tcp`` spawn a real worker process.
    """

    def __init__(
        self,
        spec: WorkerSpec,
        mode: str = "pipe",
        *,
        timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        if mode not in TRANSPORT_MODES:
            raise ConfigurationError(
                f"unknown transport mode {mode!r}; use one of "
                + ", ".join(TRANSPORT_MODES)
            )
        self.spec = spec
        self.mode = mode
        self.timeout_s = timeout_s
        self._dead = False
        self._pending_reply: Optional[Dict[str, object]] = None
        self.server: Optional[WorkerServer] = None
        self.transport = None
        self.process = None
        if mode == "inproc":
            self.server = WorkerServer(spec)

    # ------------------------------------------------------------------
    # Process lifecycle (pipe/tcp modes; inproc has none)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Spawn the worker process (no-op for inproc)."""
        if self.mode == "inproc" or self.process is not None:
            return
        if self.mode == "pipe":
            parent, child = _SPAWN.Pipe()
            self.process = _SPAWN.Process(
                target=worker_main,
                args=(self.spec.as_dict(), "pipe", child),
                daemon=True,
                name=f"repro-worker-{self.spec.worker_id}",
            )
            self.process.start()
            child.close()
            self.transport = PipeTransport(parent, timeout_s=self.timeout_s)
        else:  # pragma: no cover - tcp start lives in edge rendezvous
            raise ConfigurationError(
                "tcp workers are started by the Fleet's rendezvous; "
                "use mode 'pipe' for standalone handles"
            )

    def adopt(self, transport: TcpTransport, process) -> None:
        """Bind a rendezvoused TCP connection + process to this handle."""
        self.transport = transport
        self.process = process

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        if self._dead:
            return False
        if self.process is not None and not self.process.is_alive():
            return False
        return True

    def post(self, message: Dict[str, object]) -> None:
        """Send a command without waiting for the reply.

        The edge posts one ``step`` to every worker and only then starts
        collecting, so the shards compute their tick concurrently.  In
        ``inproc`` mode the command executes immediately and the reply
        is parked for :meth:`collect` — same call pattern, zero
        concurrency, which is exactly what the deterministic tests want.
        """
        if self._dead:
            raise TransportError(f"worker {self.spec.worker_id} is marked dead")
        if self.server is not None:
            self._pending_reply = self.server.handle(message)
            return
        if self.transport is None:
            raise TransportError(f"worker {self.spec.worker_id} was never started")
        try:
            self.transport.send(message)
        except TransportError:
            self._dead = True
            raise

    def collect(self) -> Dict[str, object]:
        """Receive the reply to the last :meth:`post`."""
        if self.server is not None:
            reply = self._pending_reply
            self._pending_reply = None
            if reply is None:
                raise TransportError(
                    f"worker {self.spec.worker_id}: collect without a post"
                )
            return reply
        if self._dead or self.transport is None:
            raise TransportError(f"worker {self.spec.worker_id} is marked dead")
        try:
            return self.transport.recv()
        except TransportError:
            self._dead = True
            raise

    def request(self, message: Dict[str, object]) -> Dict[str, object]:
        """One command round trip; marks the worker dead on any failure."""
        self.post(message)
        return self.collect()

    def kill(self) -> None:
        """Hard-kill the worker (chaos injection; inproc just goes dark)."""
        self._dead = True
        if self.process is not None:
            self.process.kill()
            self.process.join(timeout=10)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Graceful stop: best-effort shutdown command, then reap."""
        if not self._dead and self.server is None and self.transport is not None:
            try:
                self.transport.send({"cmd": "shutdown"})
                self.transport.recv(timeout_s=timeout_s)
            except TransportError:
                pass
        self._dead = True
        if self.transport is not None:
            self.transport.close()
        if self.process is not None:
            self.process.join(timeout=timeout_s)
            if self.process.is_alive():  # pragma: no cover - stuck worker
                self.process.kill()
                self.process.join(timeout=timeout_s)
