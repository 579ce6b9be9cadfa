"""Worker process for the distributed serving path.

One worker owns one :class:`~repro.serve.engine.ServerEngine` shard —
its own routing RNG, admission controller, load monitor and (optionally)
online control loop — and advances it in lock step with the edge: every
``step`` message carries the arrivals routed to this shard for one tick,
the worker submits them, ticks the engine once, and replies with the
terminal :class:`~repro.serve.engine.TxnOutcome` of every request plus a
small health advertisement (machines, current queue estimate).  Because
the edge is the only initiator and each request gets exactly one reply,
the distributed session is deterministic regardless of process
scheduling — the same property the virtual clock gives the single-
process session.

The command protocol (JSON over :mod:`repro.serve.transport`)::

    {"cmd": "hello"}                      -> identity + capacity ad
    {"cmd": "step", "arrivals": [...]}    -> outcomes + capacity ad
    {"cmd": "healthz"}                    -> full engine healthz
    {"cmd": "capture"}                    -> engine+control snapshot
    {"cmd": "restore", "state": {...}}    -> ok (fresh engines only)
    {"cmd": "telemetry"}                  -> metrics/spans/events snapshot
    {"cmd": "telemetry_delta"}            -> new-or-changed metrics/events
    {"cmd": "shutdown"}                   -> ok; the process exits

Every reply carries ``"ok"``; handler errors come back as
``{"ok": false, "error": ...}`` so a worker never dies on a bad command
(it dies on a broken transport, which is the edge going away).

:class:`WorkerHandle` is the edge-side proxy.  Its ``inproc`` mode
drives a :class:`WorkerServer` directly in-process through the same
message dicts — byte-identical protocol, no sockets — which is what the
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

_SPAWN = multiprocessing.get_context("spawn")


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
        self._delta_tracker: Optional[TelemetryDeltaTracker] = None

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
                reply: Dict[str, object] = {"ok": True}
            elif cmd == "step":
                reply = self._cmd_step(message)
            elif cmd == "healthz":
                reply = {"ok": True, "healthz": self.engine.healthz()}
            elif cmd == "capture":
                reply = {"ok": True, "state": self.engine.state_dict()}
            elif cmd == "restore":
                reply = self._cmd_restore(message)
            elif cmd == "telemetry":
                reply = self._cmd_telemetry()
            elif cmd == "telemetry_delta":
                reply = self._cmd_telemetry_delta()
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
        arrivals: List[list] = message.get("arrivals", ())  # type: ignore[assignment]
        try:
            times = np.array([float(row[0]) for row in arrivals])
            priorities = np.array([int(row[3]) for row in arrivals], dtype=np.int64)
            # 4 elements pre-tenancy, 5 with a tenant tag at the edge.
            tenant_tags = [str(row[4]) if len(row) > 4 else "" for row in arrivals]
            traces = (
                [
                    TraceContext(int(row[1]), str(row[2])) if row[1] is not None else None
                    for row in arrivals
                ]
                if engine.request_tracer is not None
                else None
            )
        except (TypeError, ValueError, IndexError) as exc:
            return {"ok": False, "error": f"malformed step frame: {exc!r}"}
        tenant_names = sorted(set(tenant_tags))
        index_of = {name: index for index, name in enumerate(tenant_names)}
        batches: List[OutcomeBatch] = []
        engine.submit_batch(
            times,
            np.array([index_of[tag] for tag in tenant_tags], dtype=np.int64),
            priorities,
            batches.append,
            tenant_names=tenant_names,
            traces=traces,
        )
        record = engine.tick()
        return {
            "ok": True,
            # Rejects first (they resolve at submission), then the tick's
            # completions; rows in TxnOutcome field order.
            "outcomes": [row for batch in batches for row in batch.as_records()],
            "now": engine.now,
            "admitted": int(record["admitted"]),
            "rejected": int(record["rejected"]),
        }

    def _cmd_restore(self, message: Dict[str, object]) -> Dict[str, object]:
        state = message.get("state")
        if not isinstance(state, dict):
            return {"ok": False, "error": "malformed restore frame: no state"}
        self.engine.load_state_dict(state)
        return {"ok": True}

    def _cmd_telemetry(self) -> Dict[str, object]:
        if self.telemetry is None:
            return {"ok": True, "snapshot": None}
        from repro.telemetry.merge import snapshot_telemetry

        return {"ok": True, "snapshot": snapshot_telemetry(self.telemetry)}

    def _cmd_telemetry_delta(self) -> Dict[str, object]:
        """Incremental telemetry since the last delta (live fleet view)."""
        if self.telemetry is None:
            return {"ok": True, "delta": None}
        if self._delta_tracker is None:
            self._delta_tracker = TelemetryDeltaTracker()
        return {"ok": True, "delta": self._delta_tracker.delta(self.telemetry)}


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
        transport.send({"worker": spec.worker_id})
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
    the same message dicts, no serialization — and exists so the
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
        _transport=None,
        _process=None,
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
        self.transport = _transport
        self.process = _process
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
