"""The four workloads: inputs from the seed, the system under test, the checks.

Each function runs one *round* inside a fresh process and returns a
plain dict.  All load is generated here from ``seed``; the program
under test only ever receives arrays or bytes.  The virtual-clock
workloads serve one virtual second per ``run(1.0)`` call, so every
round also yields the wall time of each virtual second.
"""

from __future__ import annotations

import hashlib
import json
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from spec import BYPASSED_ON_STEADY, PER_LAYER, SPAN_METRICS, WINDOW_REQUESTS
from tracing import ROOT, Tracer

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

Round = Dict[str, object]
MarkReady = Callable[[], float]
#: One request: (start, connected, first byte, closed, reply bytes).
Exchange = Tuple[float, float, float, float, bytes]


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _proc_status_kb(pid: int, field: str) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return float(line.split()[1])
    return 0.0


def _peak_rss_mb(child_pids: List[int]) -> float:
    """Peak resident memory of this process plus the given live children."""
    pids = [os.getpid()] + child_pids
    return sum(_proc_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def _proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _drive(
    serve_one_second: Callable[[], object], virtual_s: int, tracer: Optional[Tracer]
) -> Tuple[float, float, List[float]]:
    """Serve ``virtual_s`` virtual seconds; (wall s, cpu s, wall ms per virtual second)."""
    unit_ms: List[float] = []

    def body() -> None:
        clock = time.perf_counter
        previous = clock()
        for _ in range(virtual_s):
            serve_one_second()
            now = clock()
            unit_ms.append((now - previous) * 1000.0)
            previous = now

    cpu = time.process_time()
    started = time.perf_counter()
    if tracer is not None:
        tracer.timed_region(body)
    else:
        body()
    return time.perf_counter() - started, time.process_time() - cpu, unit_ms


def _digest(report) -> str:
    """sha256 over counters, per-tenant buckets and the latency list."""
    counters = {
        name: getattr(report, name)
        for name in ("offered", "accepted", "rejected", "errored", "retries", "brownout_shed")
    }
    digest = hashlib.sha256()
    digest.update(
        json.dumps({"counters": counters, "tenants": report.tenants}, sort_keys=True).encode()
    )
    digest.update(np.asarray(report.latencies_ms, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _session_round(report, arrivals: np.ndarray, timed_s: float, unit_ms: List[float]) -> Round:
    """Fields every virtual-clock round shares, with the conservation checks."""
    return {
        "timed_s": timed_s,
        "unit_ms": unit_ms,
        "sent": len(arrivals),
        "ok": report.accepted,
        "shed": report.rejected,
        "failed": report.errored + report.in_flight,
        "sim_p99_ms": report.latency_percentile(99.0),
        "digest": _digest(report),
        "checks": {
            "offered_equals_arrivals": report.offered == len(arrivals),
            "conserved_zero_in_flight": report.conserved,
            "tenants_consistent": report.tenants_consistent(),
            "tenant_lines_exact": all(
                report.tenant_in_flight(tenant) == 0 for tenant in report.tenants
            ),
        },
    }


def _layer_values(
    tracer: Optional[Tracer], measured: Dict[str, float]
) -> Tuple[Dict[str, float], List[str]]:
    """Every per-layer metric (0 where the workload never enters the layer)."""
    values = {metric["name"]: 0.0 for metric in PER_LAYER}
    values.update(measured)
    missing: List[str] = []
    if tracer is not None:
        stats = tracer.summary()
        for metric, (span, field) in SPAN_METRICS.items():
            if span in tracer.missing:
                missing.append(metric)
            elif span in stats:
                values[metric] = float(stats[span][field])
        root = stats[ROOT]
        values["bench.unaccounted_frac"] = root["self_s"] / root["incl_s"]
        values["serve.transport.bytes_out"] = float(tracer.bytes_out)
        values["serve.transport.bytes_in"] = float(tracer.bytes_in)
    return values, missing


# ----------------------------------------------------------------------
# serve_steady
# ----------------------------------------------------------------------
def serve_steady(seed: int, quick: bool, tracer: Optional[Tracer], ready: MarkReady) -> Round:
    from repro.engine.simulator import EngineConfig
    from repro.serve import ServerEngine, ServeSession, poisson_arrivals

    virtual_s = 100 if quick else 1700
    arrivals = poisson_arrivals(240.0, float(virtual_s), seed=seed)
    engine = ServerEngine(
        engine_config=EngineConfig(max_nodes=4, saturation_rate_per_node=300.0),
        initial_nodes=2,
        seed=seed,
    )
    session = ServeSession(engine, arrivals)
    setup_s = ready()

    timed_s, _, unit_ms = _drive(lambda: session.run(1.0), virtual_s, tracer)

    report = session.loadgen.report
    result = _session_round(report, arrivals, timed_s, unit_ms)
    result["setup_s"] = setup_s
    result["machine_hours"] = engine.machine_hours
    result["peak_rss_mb"] = _peak_rss_mb([])
    result["checks"]["every_request_accepted"] = report.accepted == len(arrivals)
    layer, missing = _layer_values(
        tracer,
        {
            "serve.loadgen.arrivals": float(len(arrivals)),
            "serve.engine.shed_frac": (report.rejected + report.errored) / len(arrivals),
        },
    )
    if tracer is not None:
        result["checks"]["bypassed_layers_zero_calls"] = all(
            layer[name] == 0.0 for name in SPAN_METRICS if name.startswith(BYPASSED_ON_STEADY)
        )
    result["layer"], result["missing"] = layer, missing
    return result


# ----------------------------------------------------------------------
# serve_tenants_spike
# ----------------------------------------------------------------------
def serve_tenants_spike(
    seed: int, quick: bool, tracer: Optional[Tracer], ready: MarkReady
) -> Round:
    from repro.core.params import SystemParameters
    from repro.engine.simulator import EngineConfig
    from repro.prediction.online import OnlinePredictor
    from repro.prediction.spar import SPARPredictor
    from repro.serve import OnlineControlLoop, ServerEngine, ServeSession
    from repro.serve.admission import AdmissionConfig
    from repro.telemetry import Telemetry, TimeSeriesStore
    from repro.telemetry.slo import SLOConfig
    from repro.tenancy import TenantAdmission, TenantRegistry, TenantSpec, composite_arrivals

    # SPAR's first fit needs 54 planning intervals; the interval is sized
    # so that the fit lands before the spike.  Magnitude 3 keeps the peak
    # (500 req/s) just under the two starting nodes' 600, so the simulated
    # p99 is set by the scale-out, not by a seed-sensitive overload window.
    scale = 0.2 if quick else 1.0
    virtual_s = int(900 * scale)
    slot_s = 2.0 if quick else 5.0
    spike = (
        f"spike:rate=120,at={600 * scale:g},magnitude=3,"
        f"ramp={30 * scale:g},plateau={150 * scale:g},decay={60 * scale:g}"
    )
    registry = TenantRegistry(
        tenants=[
            TenantSpec(name="checkout", profile=spike, weight=3),
            TenantSpec(name="search", profile="poisson:rate=90", weight=2),
            TenantSpec(name="batch", profile="poisson:rate=50", weight=1, quota_rps=35.0),
        ]
    )
    arrivals, indices = composite_arrivals(registry, float(virtual_s), seed=seed)
    saturation = 300.0
    control = OnlineControlLoop(
        SystemParameters.from_saturation(saturation, interval_seconds=slot_s),
        OnlinePredictor(
            SPARPredictor(period=8, n_periods=2, n_recent=2, max_horizon=4), refit_every=20
        ),
        measurement_slot_seconds=slot_s,
        max_machines=6,
    )
    tenancy = TenantAdmission(registry)
    engine = ServerEngine(
        engine_config=EngineConfig(
            max_nodes=6, saturation_rate_per_node=saturation, db_size_kb=20 * 1024.0
        ),
        initial_nodes=2,
        slot_seconds=slot_s,
        admission=AdmissionConfig(queue_limit_seconds=8.0),
        controller=control,
        seed=seed,
        telemetry=Telemetry(),
        slo=SLOConfig(),
        tenancy=tenancy,
    )
    session = ServeSession(
        engine,
        arrivals,
        tenant_indices=indices,
        tenant_names=registry.names(),
        timeseries=TimeSeriesStore(),
    )
    setup_s = ready()

    timed_s, _, unit_ms = _drive(lambda: session.run(1.0), virtual_s, tracer)

    report = session.loadgen.report
    quota_shed = sum(tenancy.quota_shed.values())
    result = _session_round(report, arrivals, timed_s, unit_ms)
    result["setup_s"] = setup_s
    result["machine_hours"] = engine.machine_hours
    result["peak_rss_mb"] = _peak_rss_mb([])
    result["checks"]["spar_fitted"] = control.is_fitted
    result["checks"]["planner_move_completed"] = engine.moves_completed >= 1
    result["checks"]["quota_shed_positive"] = quota_shed > 0
    result["layer"], result["missing"] = _layer_values(
        tracer,
        {
            "serve.loadgen.arrivals": float(len(arrivals)),
            "serve.engine.shed_frac": (report.rejected + report.errored) / len(arrivals),
            "tenancy.quota_shed": float(quota_shed),
            "serve.control.moves_completed": float(engine.moves_completed),
        },
    )
    return result


# ----------------------------------------------------------------------
# fleet_pipe
# ----------------------------------------------------------------------
def fleet_pipe(seed: int, quick: bool, tracer: Optional[Tracer], ready: MarkReady) -> Round:
    from repro.serve.edge import DistributedServeSession
    from repro.serve.loadgen import poisson_arrivals
    from repro.serve.worker import WorkerSpec

    virtual_s = 30 if quick else 230
    arrivals = poisson_arrivals(600.0, float(virtual_s), seed=seed)
    # Two workers whatever nproc says; on the round's one CPU the edge and
    # the workers take turns, so a tick costs the sum of their work.
    specs = [
        WorkerSpec(
            worker_id=index,
            initial_nodes=2,
            max_nodes=4,
            saturation_rate_per_node=438.0,
            seed=seed + index,
        )
        for index in range(2)
    ]
    session = DistributedServeSession(specs, arrivals, mode="pipe", seed=seed)
    try:
        started = time.perf_counter()
        session.start()
        spawn_s = time.perf_counter() - started
        setup_s = ready()
        pids = [handle.process.pid for handle in session.workers]
        worker_cpu = sum(_proc_cpu_s(pid) for pid in pids)

        timed_s, edge_cpu_s, unit_ms = _drive(lambda: session.run(1.0), virtual_s, tracer)

        alive = all(handle.alive for handle in session.workers)
        worker_cpu = sum(_proc_cpu_s(pid) for pid in pids) - worker_cpu if alive else 0.0
        health = session.healthz()["workers"]
        peak_rss_mb = _peak_rss_mb(pids) if alive else 0.0
    finally:
        session.close()

    report = session.report
    result = _session_round(report, arrivals, timed_s, unit_ms)
    result["setup_s"] = setup_s
    # No control loop on the workers, so machines now = machines throughout.
    result["machine_hours"] = (
        sum(w.get("machines", 0) * w.get("ticks", 0) for w in health.values())
        * session.dt_s
        / 3600.0
    )
    result["peak_rss_mb"] = peak_rss_mb
    result["checks"]["both_workers_alive"] = alive
    layer, missing = _layer_values(
        tracer,
        {
            "serve.loadgen.arrivals": float(len(arrivals)),
            "serve.engine.shed_frac": (report.rejected + report.errored) / len(arrivals),
            "serve.edge.cpu_s": edge_cpu_s,
            "serve.worker.cpu_s": worker_cpu,
            "serve.worker.spawn_s": spawn_s,
            # Lock step: one edge tick is one tick of every worker.
            "serve.edge.tick_calls": float(max(w.get("ticks", 0) for w in health.values())),
        },
    )
    layer["serve.transport.bytes_per_req"] = (
        layer["serve.transport.bytes_out"] + layer["serve.transport.bytes_in"]
    ) / len(arrivals)
    result["layer"], result["missing"] = layer, missing
    return result


# ----------------------------------------------------------------------
# http_closed
# ----------------------------------------------------------------------
def _exchange(address: Tuple[str, int], payload: bytes) -> Exchange:
    """One request on its own connection, timed at each phase boundary."""
    clock = time.perf_counter
    start = clock()
    with socket.create_connection(address, timeout=30.0) as sock:
        connected = clock()
        sock.sendall(payload)
        chunk = sock.recv(65536)
        first_byte = clock()
        chunks = []
        while chunk:
            chunks.append(chunk)
            chunk = sock.recv(65536)
    return start, connected, first_byte, clock(), b"".join(chunks)


def _closed_loop(
    address: Tuple[str, int], payloads: List[bytes], seconds: float
) -> List[Exchange]:
    """One caller that sends its next request when the reply to the last has come.

    One connection at a time: the round owns one CPU, on which the caller
    and the server take turns; a second caller would queue behind the first
    and time the scheduler.
    """
    exchanges: List[Exchange] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        try:
            exchanges.append(_exchange(address, payloads[len(exchanges) % len(payloads)]))
        except OSError as exc:
            exchanges.append((0.0, 0.0, 0.0, 0.0, repr(exc).encode()))
    return exchanges


def _windows(phases_ms: np.ndarray) -> List[List[float]]:
    """(req/s, p50 ms, p90 ms) of each run of ``WINDOW_REQUESTS`` consecutive requests."""
    latency_ms = phases_ms[:, 3] - phases_ms[:, 0]
    size = min(WINDOW_REQUESTS, len(latency_ms))
    stats = []
    for first in range(0, len(latency_ms) - size + 1, size):
        last = first + size - 1
        wall_s = (phases_ms[last, 3] - phases_ms[first, 0]) / 1000.0
        p50, p90 = np.percentile(latency_ms[first : last + 1], [50.0, 90.0])
        stats.append([size / wall_s, float(p50), float(p90)])
    return stats


def _get_json(address: Tuple[str, int], request_line: bytes) -> Dict[str, object]:
    payload = request_line + b" HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n"
    reply = _exchange(address, payload)[4]
    return json.loads(reply.split(b"\r\n\r\n", 1)[1])


def _boot_server(seed: int) -> Tuple[subprocess.Popen, Tuple[str, int]]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "repro.cli", "serve", "--clock", "virtual", "--port", "0"]
    command += ["--control", "none", "--nodes", "2", "--seed", str(seed)]
    server = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True
    )
    watchdog = threading.Timer(60.0, server.kill)
    watchdog.start()
    try:
        seen = []
        for line in server.stdout:
            seen.append(line)
            if line.startswith("serving on http://"):
                host, port = line.split()[2][len("http://") :].rsplit(":", 1)
                return server, (host, int(port))
    finally:
        watchdog.cancel()
    server.wait()
    raise RuntimeError("repro serve did not come up:\n" + "".join(seen))


def http_closed(seed: int, quick: bool, tracer: Optional[Tracer], ready: MarkReady) -> Round:
    warmup_s, measure_s = (0.2, 1.0) if quick else (0.5, 5.4)
    rng = np.random.default_rng(seed)
    payloads = []
    for size in rng.integers(16, 256, size=512):
        body = json.dumps({"txn": int(rng.integers(1 << 30)), "pad": "x" * int(size)}).encode()
        head = f"POST /txn HTTP/1.1\r\nConnection: close\r\nContent-Length: {len(body)}\r\n\r\n"
        payloads.append(head.encode() + body)

    server, address = _boot_server(seed)
    try:
        setup_s = ready()
        warmup = _closed_loop(address, payloads, warmup_s)
        before = _get_json(address, b"GET /healthz")
        server_cpu = _proc_cpu_s(server.pid)
        client_cpu = time.process_time()
        measured: List[Exchange] = []

        def body() -> None:
            measured.extend(_closed_loop(address, payloads, measure_s))

        started = time.perf_counter()
        if tracer is not None:
            tracer.timed_region(body)
        else:
            body()
        timed_s = max(exchange[3] for exchange in measured) - started
        client_cpu = time.process_time() - client_cpu
        server_cpu = _proc_cpu_s(server.pid) - server_cpu
        after = _get_json(address, b"GET /healthz")
        peak_rss_mb = _peak_rss_mb([server.pid])
        _exchange(address, b"POST /shutdown HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n")
        server.communicate(timeout=30.0)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()

    ok = [exchange for exchange in measured if exchange[4].startswith(b"HTTP/1.1 200")]
    warm_ok = sum(1 for exchange in warmup if exchange[4].startswith(b"HTTP/1.1 200"))
    sim_ms = [json.loads(e[4].split(b"\r\n\r\n", 1)[1])["latency_ms"] for e in ok]
    sent = len(measured)
    phases = np.array([exchange[:4] for exchange in ok]) * 1000.0
    layer, missing = _layer_values(
        tracer,
        {
            "serve.http.connect_ms_p50": float(np.median(phases[:, 1] - phases[:, 0])),
            "serve.http.ttfb_ms_p50": float(np.median(phases[:, 2] - phases[:, 1])),
            "serve.http.read_close_ms_p50": float(np.median(phases[:, 3] - phases[:, 2])),
            "serve.http.server_cpu_ms_per_req": 1000.0 * server_cpu / sent,
            "serve.http.client_cpu_ms_per_req": 1000.0 * client_cpu / sent,
            "serve.http.ticks_per_req": (after["ticks"] - before["ticks"]) / sent,
        },
    )
    return {
        "setup_s": setup_s,
        "timed_s": timed_s,
        "unit_ms": (phases[:, 3] - phases[:, 0]).tolist(),
        "windows": _windows(phases),
        "sent": sent,
        "ok": len(ok),
        "shed": 0,
        "failed": sent - len(ok),
        "sim_p99_ms": float(np.percentile(sim_ms, 99.0)),
        # The server's virtual clock runs free, so its own machine-hours count
        # idle spin; the cost of this wall-clock workload is machines x wall hours.
        "machine_hours": (after["machine_hours"] - before["machine_hours"])
        / (after["now"] - before["now"])
        * timed_s,
        "peak_rss_mb": peak_rss_mb,
        "digest": "",
        "checks": {
            "every_reply_200": len(ok) == sent and warm_ok == len(warmup),
            "healthz_accepted_equals_sent": after["accepted"] == sent + len(warmup),
            "healthz_completed_equals_sent": after["completed"] == sent + len(warmup),
            "healthz_rejected_zero": after["rejected"] == 0,
            "server_exit_zero": server.returncode == 0,
        },
        "layer": layer,
        "missing": missing,
    }


WORKLOAD_FUNCTIONS = {
    "serve_steady": serve_steady,
    "serve_tenants_spike": serve_tenants_spike,
    "fleet_pipe": fleet_pipe,
    "http_closed": http_closed,
}
