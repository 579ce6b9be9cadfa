"""repro.serve — live serving layer over the engine simulator.

Maps engine ticks onto an event loop (virtual or wall clock), routes
each submitted transaction through the cluster/queueing model to a
sampled latency, sheds load above a per-node queue budget, and feeds
live arrival counts into the online SPAR control loop so predictive
reconfigurations happen exactly as they do in batch experiments.

Fault tolerance (see :mod:`repro.serve.resilience` and
:mod:`repro.serve.checkpoint`): per-node circuit breakers driven by
health probes, brownout degradation while capacity is below plan,
client-side retries/hedging with a retry budget, and digest-verified
checkpoints that resume a run bit-identically.

Distributed serving (see :mod:`repro.serve.edge`,
:mod:`repro.serve.worker` and :mod:`repro.serve.transport`): an api/edge process routes over per-node
worker processes — one engine shard each — in deterministic lock step,
with checkpoints, traces and telemetry crossing the wire.
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.checkpoint import (
    CheckpointConfig,
    read_checkpoint,
    write_checkpoint,
)
from repro.serve.clock import VirtualClock
from repro.serve.control import OnlineControlLoop
from repro.serve.edge import DistributedServeSession, Fleet
from repro.serve.engine import OutcomeBatch, ServerEngine, TxnOutcome
from repro.serve.loadgen import (
    LoadGenerator,
    LoadgenReport,
    parse_profile,
    poisson_arrivals,
    spike_arrivals,
    trace_arrivals,
)
from repro.serve.resilience import (
    BreakerConfig,
    BrownoutConfig,
    CircuitBreaker,
    NodeHealthMonitor,
    ResilienceConfig,
    ResilientClient,
    RetryConfig,
)
from repro.serve.session import ServeSession
from repro.serve.transport import (
    PipeTransport,
    TcpTransport,
    TransportError,
    retry_on_bind_failure,
)
from repro.serve.worker import WorkerHandle, WorkerServer, WorkerSpec

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "CheckpointConfig",
    "read_checkpoint",
    "write_checkpoint",
    "VirtualClock",
    "OnlineControlLoop",
    "OutcomeBatch",
    "ServerEngine",
    "TxnOutcome",
    "LoadGenerator",
    "LoadgenReport",
    "parse_profile",
    "poisson_arrivals",
    "spike_arrivals",
    "trace_arrivals",
    "BreakerConfig",
    "BrownoutConfig",
    "CircuitBreaker",
    "NodeHealthMonitor",
    "ResilienceConfig",
    "ResilientClient",
    "RetryConfig",
    "ServeSession",
    "DistributedServeSession",
    "Fleet",
    "PipeTransport",
    "TcpTransport",
    "TransportError",
    "WorkerHandle",
    "WorkerServer",
    "WorkerSpec",
    "retry_on_bind_failure",
]
