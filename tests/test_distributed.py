"""Distributed serve: transports, edge/worker protocol, `serve --workers` gates.

Determinism is the backbone of this suite: the edge drives the fleet in
lock step, so a run is bit-identical across transport modes and across a
checkpoint/restore boundary.  Most tests use ``inproc`` mode — the full
wire protocol with no process scheduling in the loop — and a few spawn
real worker processes over pipes/TCP to cover the serialization path.
"""

import errno
import json
import os
import socket
import threading

import numpy as np
import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.serve import (
    BreakerConfig,
    BrownoutConfig,
    DistributedServeSession,
    TransportError,
    WorkerHandle,
    WorkerServer,
    WorkerSpec,
    poisson_arrivals,
    retry_on_bind_failure,
)
from repro.serve.checkpoint import CheckpointConfig
from repro.serve.engine import REASONS
from repro.serve.transport import (
    PROTOCOL_VERSION,
    accept_transport,
    bind_listener,
    connect_transport,
)
from repro.serve.worker import STEP_DTYPES, STEP_REPLY_COLUMNS
from repro.telemetry import Telemetry
from repro.telemetry.slo import SLOConfig


def specs(n=2, **kwargs):
    defaults = dict(
        initial_nodes=1,
        max_nodes=4,
        saturation_rate_per_node=120.0,
        queue_limit_seconds=8.0,
    )
    defaults.update(kwargs)
    return [WorkerSpec(worker_id=i, seed=i, **defaults) for i in range(n)]


def step(arrivals, **columns):
    """A ``step`` request for arrivals at the given times, all of normal
    priority; ``columns`` add to or replace its fields (``None`` drops one)."""
    times = np.asarray(arrivals, dtype=np.float64)
    message = {"cmd": "step", "times": times, "priority": np.zeros(len(times), dtype=np.int64)}
    message.update(columns)
    return {key: value for key, value in message.items() if value is not None}


def make_session(n=2, *, rate=150.0, duration=40.0, seed=3, **kwargs):
    arrivals = poisson_arrivals(rate, duration, seed=seed)
    kwargs.setdefault("mode", "inproc")
    return DistributedServeSession(specs(n), arrivals, **kwargs)


# ----------------------------------------------------------------------
# Transport framing
# ----------------------------------------------------------------------
class TestTransports:
    def test_tcp_round_trip_and_framing(self):
        listener = bind_listener()
        try:
            host, port = listener.getsockname()
            client = connect_transport(host, port, timeout_s=5.0)
            server = accept_transport(listener, timeout_s=5.0)
            # Far more than the socket buffers hold: the sender blocks
            # until the receiver has looped over partial reads.
            message = step(np.arange(400_000) / 7.0, tenant_names=["a", ""])
            sender = threading.Thread(target=client.send, args=(message,))
            sender.start()
            received = server.recv(timeout_s=5.0)
            sender.join(timeout=5.0)
            assert not sender.is_alive()
            assert list(received) == ["cmd", "tenant_names", "times", "priority"]
            assert received["cmd"] == "step" and received["tenant_names"] == ["a", ""]
            for key in ("times", "priority"):
                assert received[key].dtype == message[key].dtype
                assert np.array_equal(received[key], message[key])
            server.send({"ok": True})
            assert client.recv(timeout_s=5.0) == {"ok": True}
            client.close()
            with pytest.raises(TransportError):
                server.recv(timeout_s=5.0)  # EOF from closed peer
            server.close()
        finally:
            listener.close()

    def test_tcp_rejects_corrupt_length_prefix(self):
        listener = bind_listener()
        try:
            host, port = listener.getsockname()
            raw = socket.create_connection((host, port), timeout=5.0)
            server = accept_transport(listener, timeout_s=5.0)
            raw.sendall(b"\xff\xff\xff\xff")  # 4 GiB frame: nonsense
            with pytest.raises(TransportError, match="frame"):
                server.recv(timeout_s=5.0)
            raw.close()
            server.close()
        finally:
            listener.close()

    def test_tcp_recv_times_out(self):
        listener = bind_listener()
        try:
            host, port = listener.getsockname()
            client = connect_transport(host, port, timeout_s=5.0)
            server = accept_transport(listener, timeout_s=5.0)
            with pytest.raises(TransportError):
                server.recv(timeout_s=0.05)
            client.close()
            server.close()
        finally:
            listener.close()

    def test_retry_on_bind_failure_retries_then_succeeds(self):
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError(errno.EADDRINUSE, "in use")
            return "bound"

        assert retry_on_bind_failure(flaky, delay_s=0.001) == "bound"
        assert attempts["n"] == 3

    def test_retry_on_bind_failure_gives_up(self):
        def busy():
            raise OSError(errno.EADDRINUSE, "in use")

        with pytest.raises(TransportError, match="could not bind"):
            retry_on_bind_failure(busy, retries=2, delay_s=0.001)

    def test_retry_on_bind_failure_passes_real_errors(self):
        def denied():
            raise OSError(errno.EACCES, "denied")

        with pytest.raises(OSError) as excinfo:
            retry_on_bind_failure(denied, delay_s=0.001)
        assert excinfo.value.errno == errno.EACCES


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------
class TestWorkerProtocol:
    def test_hello_advertises_capacity(self):
        server = WorkerServer(specs(1)[0])
        reply = server.handle({"cmd": "hello"})
        assert reply["ok"] is True
        assert reply["worker"] == 0
        assert reply["machines"] >= 1

    def test_step_returns_terminal_outcomes(self):
        server = WorkerServer(
            specs(1, trace_requests=True, collect_telemetry=True)[0]
        )
        reply = server.handle(
            step([0.2, 0.4], priority=np.array([0, 1]), trace_id=np.array([7, 8]))
        )
        assert reply["ok"] is True
        assert set(reply["trace_id"].tolist()) == {7, 8}
        assert set(reply["status"].tolist()) <= {200, 503}
        assert sorted(reply["priority"].tolist()) == [0, 0]  # completions report normal
        assert "tenant" not in reply  # none was posted
        for name in (*STEP_REPLY_COLUMNS, "accepted"):
            assert reply[name].dtype == STEP_DTYPES[name] and len(reply[name]) == 2
        # One flag per posted row, in posted order: 1 = among the completions.
        assert reply["accepted"].sum() == np.count_nonzero(reply["status"] == 200)

    def test_unknown_command_is_an_error_reply(self):
        server = WorkerServer(specs(1)[0])
        reply = server.handle({"cmd": "frobnicate"})
        assert reply["ok"] is False
        assert "frobnicate" in reply["error"]

    @pytest.mark.parametrize(
        "frame",
        [
            step([1.0, 1.5], priority=np.zeros(1, dtype=np.int64)),
            step([1.0], times=["x"]),
            step([1.0], times=np.array([1], dtype=np.int64)),
            step([1.0], tenant=np.array([2]), tenant_names=["a", "b"]),
            step([1.0], tenant=np.array([-1]), tenant_names=["a", "b"]),
            step([1.0], tenant=np.array([0])),
            step([1.0], priority=None),
            step([1.0], trace_id=np.array([1.0])),
            {"cmd": "restore"},
            {"cmd": "restore", "state": {}},
        ],
        ids=[
            "short-column", "bad-times", "integer-times", "tenant-past-the-names",
            "negative-tenant", "tenant-without-names", "no-priority", "float-trace-id",
            "no-state", "empty-state",
        ],
    )
    def test_malformed_frame_is_an_error_reply_not_a_dead_shard(self, frame):
        server = WorkerServer(specs(1, trace_requests=True, collect_telemetry=True)[0])
        assert server.handle(step([0.5]))["ok"]
        ticks = server.engine.ticks
        reply = server.handle(frame)
        assert reply["ok"] is False and reply["error"]
        assert server.engine.ticks == ticks and server.engine.pending_requests == 0
        after = server.handle(step([1.5]))
        assert after["ok"] is True and len(after["status"]) == 1
        assert server.engine.ticks == ticks + 1

    def test_spec_round_trips_through_dict(self):
        spec = specs(
            1, control="reactive", trace_requests=True, collect_telemetry=True
        )[0]
        assert WorkerSpec.from_dict(spec.as_dict()) == spec

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            WorkerSpec(worker_id=-1)
        with pytest.raises(ConfigurationError):
            WorkerSpec(worker_id=0, control="psychic")

    def test_handle_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="transport mode"):
            WorkerHandle(specs(1)[0], "carrier-pigeon")

    def test_inproc_collect_without_post_fails(self):
        handle = WorkerHandle(specs(1)[0], "inproc")
        with pytest.raises(TransportError, match="without a post"):
            handle.collect()


# ----------------------------------------------------------------------
# Edge session: validation, conservation, determinism
# ----------------------------------------------------------------------
class TestDistributedSession:
    def test_rejects_bad_worker_ids(self):
        arrivals = poisson_arrivals(10.0, 5.0, seed=0)
        bad = [WorkerSpec(worker_id=1), WorkerSpec(worker_id=0)]
        with pytest.raises(ConfigurationError, match="worker ids"):
            DistributedServeSession(bad, arrivals, mode="inproc")
        with pytest.raises(ConfigurationError, match="at least one"):
            DistributedServeSession([], arrivals, mode="inproc")

    def test_trace_requests_requires_telemetry(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            make_session(trace_requests=True)

    def test_conservation_is_exact(self):
        with make_session(rate=300.0) as session:
            report = session.run(40.0)
        assert report.offered > 0
        assert report.conserved
        assert report.offered == (
            report.accepted + report.rejected + report.errored
        )

    def test_work_spreads_across_workers(self):
        with make_session(3, rate=300.0) as session:
            session.run(40.0)
            machines = {
                wid: ad[0] for wid, ad in session.engine.advertised.items()
            }
        assert set(machines) == {0, 1, 2}

    def test_run_is_deterministic(self):
        def once():
            with make_session(rate=200.0, seed=9) as session:
                return session.run(30.0)

        a, b = once(), once()
        assert a.summary() == b.summary()
        assert a.latencies_ms == b.latencies_ms

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda reply: {"ok": False, "error": "refused"},
            lambda reply: {k: v for k, v in reply.items() if k != "machines"},
            lambda reply: {**reply, "queue_seconds": "soon"},
            lambda reply: {**reply, "machines": float("nan")},
            lambda reply: {**reply, "worker": 7},
            lambda reply: {k: v for k, v in reply.items() if k != "latency_ms"},
            lambda reply: {**reply, "status": reply["status"][:-1]},
            lambda reply: {
                k: v[:-1] if isinstance(v, np.ndarray) else v for k, v in reply.items()
            },
            lambda reply: {**reply, "node_id": reply["node_id"].astype(np.float64)},
            lambda reply: {**reply, "completed_at": reply["completed_at"].tolist()},
            lambda reply: {**reply, "reason": np.full_like(reply["reason"], len(REASONS))},
            lambda reply: {**reply, "reason": np.full_like(reply["reason"], -1)},
            lambda reply: {k: v for k, v in reply.items() if k != "accepted"},
            lambda reply: {**reply, "accepted": reply["accepted"][:-1]},
            lambda reply: {**reply, "accepted": np.zeros_like(reply["accepted"])},
        ],
        ids=[
            "refused", "ad-field-missing", "ad-not-a-number", "ad-not-finite",
            "ad-of-another-worker", "column-missing", "column-ragged", "fewer-rows-than-posted",
            "column-of-another-dtype", "column-not-an-array", "reason-past-REASONS",
            "negative-reason", "accepted-missing", "accepted-ragged",
            "accepted-zeros-are-not-the-non-200-rows",
        ],
    )
    def test_refused_step_frame_fails_the_batch_closed(self, tamper):
        """A worker that answers a ``step`` with an error reply — or with
        a reply the edge cannot take row for row — served nothing: its
        batch ends as 500s instead of vanishing or raising out of
        ``tick()``, and the fleet carries on."""
        telemetry = Telemetry()
        with make_session(1, rate=50.0, telemetry=telemetry) as session:
            before = session.run(2.0).accepted
            server = session.workers[0].server
            handle = server.handle
            server.handle = lambda message: (
                tamper(handle(message)) if message.get("cmd") == "step" else handle(message)
            )
            advertised = dict(session.engine.advertised)
            report = session.run(1.0)
            lost = report.errored
            assert lost > 0 and report.conserved and report.accepted == before
            assert session.engine.advertised == advertised  # nothing of the reply was used
            assert telemetry.counter("edge.worker_batch_failures").value == 1
            assert [e["lost"] for e in telemetry.timeline.events_of("worker_down")] == [lost]
            server.handle = handle
            report = session.run(2.0)
        assert report.errored == lost and report.accepted > before and report.conserved
        assert report.offered == report.accepted + report.rejected + report.errored

    def test_start_refuses_a_worker_on_another_protocol_version(self, monkeypatch):
        """The version check runs on ``hello``, before any ``step`` — a
        v2 peer would answer ``step`` without the ``accepted`` column."""
        assert PROTOCOL_VERSION == 3
        for theirs in (2, PROTOCOL_VERSION + 1):
            monkeypatch.setattr("repro.serve.worker.PROTOCOL_VERSION", theirs)
            session = make_session(1)
            with pytest.raises(TransportError) as refused:
                session.start()
            assert f"protocol {theirs}" in str(refused.value)
            assert f"speaks {PROTOCOL_VERSION}" in str(refused.value)
            assert session.workers[0].server.engine.ticks == 0
            assert not session.workers[0].alive  # the fleet was shut down again

    def test_start_refuses_a_hello_without_a_protocol_version(self):
        session = make_session(1)
        server = session.workers[0].server
        handle = server.handle
        server.handle = lambda message: {
            k: v for k, v in handle(message).items() if k != "protocol"
        }
        with pytest.raises(TransportError, match="protocol None"):
            session.start()

    def test_healthz_reports_fleet(self):
        with make_session() as session:
            session.run(10.0)
            health = session.healthz()
        assert health["status"] == "ok"
        assert set(health["workers"]) == {"0", "1"}
        assert all(
            w["status"] == "ok" for w in health["workers"].values()
        )
        assert health["breakers"] == {"0": "closed", "1": "closed"}


# ----------------------------------------------------------------------
# Real processes (report equality across transports lives in
# tests/test_front_ends.py::test_process_boundary_changes_nothing)
# ----------------------------------------------------------------------
@pytest.mark.timeout(300)
class TestProcessBoundary:
    @pytest.mark.parametrize("mode", ["pipe", "tcp"])
    def test_streaming_fleet_view_matches_capture_across_processes(self, mode):
        """The live delta view equals the capture merge with real worker
        processes on both transports, not just the inproc fast path."""
        telemetry = Telemetry()
        arrivals = poisson_arrivals(150.0, 15.0, seed=5)
        with DistributedServeSession(
            specs(2, collect_telemetry=True),
            arrivals,
            mode=mode,
            seed=5,
            telemetry=telemetry,
            telemetry_every_ticks=5,
        ) as session:
            session.run(15.0)
            live = session.engine.refresh_fleet_view()
            assert live is not None
            live_counters = {
                n: c.value for n, c in live.metrics.counters().items()
            }
            live_hists = {
                n: (list(h.counts), h.total, h.count)
                for n, h in live.metrics.histograms().items()
            }
            session.collect_telemetry()
        assert live_counters == {
            n: c.value for n, c in telemetry.metrics.counters().items()
        }
        assert live_hists == {
            n: (list(h.counts), h.total, h.count)
            for n, h in telemetry.metrics.histograms().items()
        }


# ----------------------------------------------------------------------
# Trace stitching across the process boundary
# ----------------------------------------------------------------------
class TestTraceStitching:
    def test_worker_spans_reparent_under_edge_roots(self):
        # trace_requests on the edge; worker specs record their side.
        telemetry = Telemetry()
        arrivals = poisson_arrivals(60.0, 20.0, seed=2)
        with DistributedServeSession(
            specs(2, trace_requests=True, collect_telemetry=True),
            arrivals,
            mode="inproc",
            trace_requests=True,
            telemetry=telemetry,
        ) as session:
            session.run(20.0)
            session.collect_telemetry()

        spans = telemetry.tracer.records()
        edge_roots = {
            s["id"]: s for s in spans if s["name"] == "edge.request"
        }
        worker_roots = [s for s in spans if s["name"] == "request"]
        assert edge_roots and worker_roots
        for span in worker_roots:
            # Every worker-side request tree hangs off the edge span that
            # minted its trace id, one level deeper.
            assert span["parent"] in edge_roots
            parent = edge_roots[span["parent"]]
            assert parent["attrs"]["trace_id"] == span["attrs"]["trace_id"]
            assert span["depth"] == parent["depth"] + 1
            assert span["attrs"]["worker"] in (0, 1)
        # Child spans below the worker roots moved with their parents.
        children = [
            s
            for s in spans
            if s["parent"] is not None
            and s["parent"] not in edge_roots
            and s["name"] != "edge.request"
        ]
        ids = {s["id"] for s in spans}
        assert all(s["parent"] in ids for s in children)

    def test_collect_telemetry_is_idempotent(self):
        telemetry = Telemetry()
        arrivals = poisson_arrivals(60.0, 10.0, seed=2)
        with DistributedServeSession(
            specs(1, collect_telemetry=True),
            arrivals,
            mode="inproc",
            telemetry=telemetry,
        ) as session:
            session.run(10.0)
            session.collect_telemetry()
            before = len(telemetry.tracer.records())
            session.collect_telemetry()  # second call must not re-merge
            assert len(telemetry.tracer.records()) == before


# ----------------------------------------------------------------------
# Streaming telemetry deltas: the live fleet view
# ----------------------------------------------------------------------
class TestStreamingTelemetry:
    def _metric_state(self, telemetry):
        metrics = telemetry.metrics
        return (
            {n: c.value for n, c in metrics.counters().items()},
            {n: g.value for n, g in metrics.gauges().items()},
            {
                n: (list(h.counts), h.total, h.count)
                for n, h in metrics.histograms().items()
            },
        )

    def _streaming_session(self, telemetry, mode="inproc", duration=20.0):
        arrivals = poisson_arrivals(150.0, duration, seed=3)
        return DistributedServeSession(
            specs(2, collect_telemetry=True),
            arrivals,
            mode=mode,
            seed=3,
            telemetry=telemetry,
            telemetry_every_ticks=5,
        )

    def test_streaming_requires_edge_telemetry(self):
        with pytest.raises(ConfigurationError, match="telemetry"):
            make_session(telemetry_every_ticks=5)
        with pytest.raises(ConfigurationError, match=">= 0"):
            make_session(telemetry=Telemetry(), telemetry_every_ticks=-1)

    def test_live_fleet_view_matches_capture_merge(self):
        """The delta-built fleet view equals the end-of-run capture
        merge exactly — same counter floats, same histogram counts."""
        telemetry = Telemetry()
        with self._streaming_session(telemetry) as session:
            session.run(20.0)
            live = session.engine.refresh_fleet_view()
            assert live is not None
            assert all(
                v.deltas_applied > 0 for v in session.engine._delta_views.values()
            )
            live_state = self._metric_state(live)
            session.collect_telemetry()
        assert live_state == self._metric_state(telemetry)
        # Counters merged unlabelled, gauges split per worker.
        assert telemetry.metrics.counter("serve.admitted").value > 0
        gauges = telemetry.metrics.gauges()
        assert 'serve.machines{worker="0"}' in gauges
        assert 'serve.machines{worker="1"}' in gauges

    def test_streaming_capture_equals_nonstreaming_capture(self):
        """Delta streaming must not change what the run reports: the
        final merged registry matches a capture-only run of the same
        workload, and so does the report."""

        def once(every):
            telemetry = Telemetry()
            arrivals = poisson_arrivals(150.0, 20.0, seed=3)
            with DistributedServeSession(
                specs(2, collect_telemetry=True),
                arrivals,
                mode="inproc",
                seed=3,
                telemetry=telemetry,
                telemetry_every_ticks=every,
            ) as session:
                report = session.run(20.0)
                session.collect_telemetry()
            return report, self._metric_state(telemetry)

        streamed_report, streamed = once(5)
        captured_report, captured = once(0)
        assert streamed_report.summary() == captured_report.summary()
        assert streamed == captured

    def test_fleet_view_mid_run_is_partial_but_consistent(self):
        telemetry = Telemetry()
        with self._streaming_session(telemetry) as session:
            session.run(20.0)
            view = session.engine.fleet_view
            # The fleet tick refreshed the view on the delta cadence.
            assert view is not None
            admitted = view.metrics.counter("serve.admitted").value
            assert admitted > 0
            session.collect_telemetry()
            # Final merge supersedes the live view.
            assert session.engine.fleet_view is None
        assert telemetry.metrics.counter("serve.admitted").value >= admitted

    def test_timeseries_store_samples_fleet_view(self):
        from repro.telemetry import TimeSeriesStore

        telemetry = Telemetry()
        store = TimeSeriesStore()
        arrivals = poisson_arrivals(150.0, 20.0, seed=3)
        with DistributedServeSession(
            specs(2, collect_telemetry=True),
            arrivals,
            mode="inproc",
            seed=3,
            telemetry=telemetry,
            telemetry_every_ticks=5,
            timeseries=store,
        ) as session:
            session.run(20.0)
            session.collect_telemetry()
        assert store.samples_taken > 0
        assert store.query("serve.admitted")
        # Worker-labelled gauges reach the store via the fleet view.
        assert any("worker=" in name for name in store.names())

    def test_timeseries_requires_edge_telemetry(self):
        from repro.telemetry import TimeSeriesStore

        with pytest.raises(ConfigurationError, match="telemetry"):
            make_session(timeseries=TimeSeriesStore())


# ----------------------------------------------------------------------
# Distributed checkpoint/restore with edge policy on (the front-end
# matrix, deferral and refusals live in tests/test_front_ends.py)
# ----------------------------------------------------------------------
class TestDistributedCheckpoint:
    def _kwargs(self):
        return dict(
            mode="inproc",
            seed=7,
            breaker=BreakerConfig(miss_threshold=2, open_seconds=10.0),
            brownout=BrownoutConfig(),
            low_priority_fraction=0.2,
            slo=SLOConfig(),
        )

    def test_restore_continues_bit_identically(self, tmp_path):
        arrivals = poisson_arrivals(150.0, 60.0, seed=7)
        path = str(tmp_path / "dist.ckpt")

        with DistributedServeSession(
            specs(2), arrivals, **self._kwargs()
        ) as session:
            session.run(30.0)
            session.write_checkpoint(path)
            resumed_from = session.clock.now
            baseline = session.run(30.0)

        with DistributedServeSession.resume(
            specs(2), arrivals, path, **self._kwargs()
        ) as restored:
            assert restored.clock.now == restored.engine.now == resumed_from
            report = restored.run(30.0)

        assert report.summary() == baseline.summary()
        assert report.latencies_ms == baseline.latencies_ms
        assert report.conserved

    def test_periodic_checkpoints_fire(self, tmp_path):
        path = str(tmp_path / "auto.ckpt")
        with make_session(
            rate=100.0,
            checkpoint=CheckpointConfig(path=path, every_s=10.0),
        ) as session:
            session.run(30.0)
            assert session.checkpoints_written >= 2
        assert os.path.exists(path)
        with open(path) as f:
            doc = json.load(f)
        assert doc["format"] == "repro-serve-checkpoint/1"
        assert len(doc["state"]["engine"]["workers"]) == 2


# ----------------------------------------------------------------------
# The fleet behind `repro serve --workers N`, and its gates
# ----------------------------------------------------------------------
FLEET = [
    "serve", "--no-http", "--control", "none", "--workers", "2", "--transport", "inproc",
    "--duration", "20", "--profile", "poisson:rate=150",
]


@pytest.fixture
def built(monkeypatch):
    """The sessions `repro serve --workers` builds, in order."""
    sessions = []

    class Recorded(DistributedServeSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

    monkeypatch.setattr("repro.serve.DistributedServeSession", Recorded)
    return sessions


class TestSoak:
    def test_soak_passes_and_reports(self, tmp_path, capsys):
        path = str(tmp_path / "out" / "soak.json")
        code = main(FLEET + ["--seed", "4", "--max-p99", "500", "--report", path])
        out = capsys.readouterr().out
        assert code == 0
        assert "gates: PASS" in out and "GATE FAIL" not in out
        assert "(exact)" in out
        with open(path) as f:
            doc = json.load(f)
        assert doc["format"] == "repro-soak-report/1"
        assert doc["passed"] is True and doc["failures"] == []
        assert doc["offered"] > 0 and doc["conserved"] is True
        assert sorted(doc["workers"]) == ["0", "1"]

    def test_gates_catch_breaches(self, capsys):
        code = main(FLEET + [
            "--workers", "1", "--profile", "poisson:rate=600",  # way past one worker's saturation
            "--queue-limit", "2", "--max-shed-rate", "0.0",  # any shed at all breaches
            "--max-p99", "0.001",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "GATE FAIL: p99" in out and "GATE FAIL: shed rate" in out
        assert "gates: PASS" not in out

    def test_config_validation(self, capsys):
        assert main(FLEET + ["--workers", "0"]) == 2
        assert "at least one worker" in capsys.readouterr().err
        assert main(FLEET + ["--duration", "-1"]) == 2
        assert "duration" in capsys.readouterr().err

    def test_per_worker_seeds_differ(self, built, capsys):
        assert main(FLEET + ["--workers", "3", "--seed", "10", "--nodes", "2"]) == 0
        specs = [handle.spec for handle in built[0].workers]
        assert [s.seed for s in specs] == [10, 11, 12]
        assert [s.worker_id for s in specs] == [0, 1, 2]
        assert {s.initial_nodes for s in specs} == {2}
        assert not any(s.collect_telemetry for s in specs)

    def test_build_session_wires_config(self, built, tmp_path, capsys):
        code = main(FLEET + [
            "--slo", "--resilience", "brownout=0.4", "--low-priority", "0.1",
            "--edge-queue-limit", "3", "--telemetry", str(tmp_path / "t.jsonl"),
        ])
        assert code == 0
        (session,) = built
        fleet = session.engine
        assert fleet.slo_monitor is not None
        assert fleet.brownout.queue_factor == 0.4
        assert fleet.low_priority_fraction == 0.1
        assert fleet.edge_queue_limit_s == 3.0
        assert fleet.telemetry is not None
        assert len(session.workers) == 2
        assert all(handle.spec.collect_telemetry for handle in session.workers)
        assert not any(handle.alive for handle in session.workers), "workers reaped on exit"

    def test_build_session_wires_streaming_and_timeseries(self, built, capsys):
        assert main(FLEET + ["--telemetry-every", "5", "--timeseries"]) == 0
        (session,) = built
        assert all(handle.spec.collect_telemetry for handle in session.workers)
        assert session.engine.telemetry is not None
        assert session.engine.telemetry_every_ticks == 5
        assert session.timeseries is not None and session.timeseries.samples_taken == 20

    def test_streaming_soak_config_validation(self, capsys):
        assert main(FLEET + ["--telemetry-every", "-1"]) == 2
        assert "telemetry_every_ticks must be >= 0" in capsys.readouterr().err
