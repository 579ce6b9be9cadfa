"""Distributed serve: transports, edge/worker protocol, `serve --workers` gates.

Determinism is the backbone of this suite: the edge drives the fleet in
lock step, so a run is bit-identical across transport modes and across a
checkpoint/restore boundary.  Most tests use ``inproc`` mode — the full
wire protocol with no process scheduling in the loop — and a few spawn
real worker processes over pipes/TCP to cover the serialization path.
"""

import copy
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
from repro.telemetry.metrics import labeled, split_labels
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
    """A ``step`` request for arrivals at the given times; ``columns``
    add to or replace its fields (``None`` drops one)."""
    message = {"cmd": "step", "times": np.asarray(arrivals, dtype=np.float64)}
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
            rows = np.arange(400_000)
            message = step(rows / 7.0, trace_id=rows, names=["a", ""])
            sender = threading.Thread(target=client.send, args=(message,))
            sender.start()
            received = server.recv(timeout_s=5.0)
            sender.join(timeout=5.0)
            assert not sender.is_alive()
            assert list(received) == ["cmd", "names", "times", "trace_id"]
            assert received["cmd"] == "step" and received["names"] == ["a", ""]
            for key in ("times", "trace_id"):
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
            specs(
                1, trace_requests=True, collect_telemetry=True,
                saturation_rate_per_node=10.0, queue_limit_seconds=0.05,
            )[0]
        )
        times = np.array([0.2, 0.3, 0.4, 0.5])
        reply = server.handle(step(times, trace_id=np.array([7, 8, 0, 10])))
        assert reply["ok"] is True
        for name in STEP_REPLY_COLUMNS:
            assert reply[name].dtype == STEP_DTYPES[name] and len(reply[name]) == 4
        # One row per posted row, in posted order: the first arrival is
        # served, the three behind it in its queue are shed on arrival.
        assert reply["status"].tolist() == [200, 503, 503, 503]
        assert reply["completed_at"][0] > times[0]
        assert np.array_equal(reply["completed_at"][1:], times[1:])
        assert [REASONS[code] for code in reply["reason"]] == ["", *["queue-limit"] * 3]

    def test_unknown_command_is_an_error_reply(self):
        server = WorkerServer(specs(1)[0])
        reply = server.handle({"cmd": "frobnicate"})
        assert reply["ok"] is False
        assert "frobnicate" in reply["error"]

    @pytest.mark.parametrize(
        "frame",
        [
            step([1.0, 1.5], trace_id=np.ones(1, dtype=np.int64)),
            step([1.0], times=["x"]),
            step([1.0], times=np.array([1], dtype=np.int64)),
            step([1.0], trace_id=np.array([1.0])),
            {"cmd": "restore"},
            {"cmd": "restore", "state": {}},
        ],
        ids=[
            "short-column", "bad-times", "integer-times", "float-trace-id",
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
            lambda reply: {k: v for k, v in reply.items() if k != "delta"},
            lambda reply: {**reply, "delta": [reply["delta"]]},
            lambda reply: {**reply, "delta": {**reply["delta"], "format": "bogus/1"}},
            lambda reply: {**reply, "delta": {**reply["delta"], "events": 7}},
        ],
        ids=[
            "refused", "ad-field-missing", "ad-not-a-number", "ad-not-finite",
            "ad-of-another-worker", "column-missing", "column-ragged", "fewer-rows-than-posted",
            "column-of-another-dtype", "column-not-an-array", "reason-past-REASONS",
            "negative-reason", "delta-missing", "delta-not-a-dict",
            "delta-of-another-format", "delta-events-not-a-list",
        ],
    )
    def test_refused_step_frame_fails_the_batch_closed(self, tamper):
        """A worker that answers a ``step`` with an error reply — or with
        a reply the edge cannot take row for row — served nothing: its
        batch ends as 500s instead of vanishing or raising out of
        ``tick()``, and the fleet carries on."""
        telemetry = Telemetry()
        arrivals = poisson_arrivals(50.0, 40.0, seed=3)
        with DistributedServeSession(
            specs(1, collect_telemetry=True), arrivals, mode="inproc", telemetry=telemetry
        ) as session:
            before = session.run(2.0).accepted
            server = session.workers[0].server
            handle = server.handle
            server.handle = lambda message: (
                tamper(handle(message)) if message.get("cmd") == "step" else handle(message)
            )
            advertised = dict(session.engine.advertised)
            view = copy.deepcopy(vars(session.engine._views[0]))
            report = session.run(1.0)
            lost = report.errored
            assert lost > 0 and report.conserved and report.accepted == before
            # Nothing of the reply was used.
            assert session.engine.advertised == advertised
            assert vars(session.engine._views[0]) == view
            assert telemetry.counter("edge.worker_batch_failures").value == 1
            assert [e["lost"] for e in telemetry.timeline.events_of("worker_down")] == [lost]
            server.handle = handle
            report = session.run(2.0)
        assert report.errored == lost and report.accepted > before and report.conserved
        assert report.offered == report.accepted + report.rejected + report.errored

    def test_start_refuses_a_worker_on_another_protocol_version(self, monkeypatch):
        """The version check runs on ``hello``, before any ``step`` — a
        v4 peer would answer ``step`` with its sheds first, not each
        posted row in posted order."""
        assert PROTOCOL_VERSION == 5
        for theirs in (4, PROTOCOL_VERSION + 1):
            monkeypatch.setattr("repro.serve.worker.PROTOCOL_VERSION", theirs)
            session = make_session(1)
            with pytest.raises(TransportError) as refused:
                session.start()
            assert f"protocol {theirs}" in str(refused.value)
            assert f"speaks {PROTOCOL_VERSION}" in str(refused.value)
            assert session.workers[0].server.engine.ticks == 0
            assert not session.workers[0].alive  # the fleet was shut down again

    @pytest.mark.parametrize(
        "traced, telemetry", [(False, False), (True, True), (False, True)],
        ids=["untraced", "traced", "worker-keeps-telemetry"],
    )
    def test_step_carries_only_what_the_other_side_lacks(self, traced, telemetry):
        """A ``step`` request carries the arrival times (and the edge's
        trace ids); its reply the worker's decisions, the capacity ad
        (and the worker's telemetry delta) — the exact key sets."""
        arrivals = poisson_arrivals(80.0, 4.0, seed=5)
        exchanges = []
        with DistributedServeSession(
            specs(1, trace_requests=traced, collect_telemetry=telemetry), arrivals,
            mode="inproc", trace_requests=traced, telemetry=Telemetry() if traced else None,
        ) as session:
            server = session.workers[0].server
            handle = server.handle

            def spy(message):
                reply = handle(message)
                if message["cmd"] == "step":
                    exchanges.append((set(message), set(reply)))
                return reply

            server.handle = spy
            session.run(4.0)
        request = {"cmd", "times"} | ({"trace_id"} if traced else set())
        reply = {"ok", *STEP_REPLY_COLUMNS, "worker", "machines", "queue_seconds"}
        if telemetry:
            reply.add("delta")
        assert exchanges == [(request, reply)] * 4

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
def fleet_sum(own, workers):
    """``own`` metric records plus every worker registry's, by the fold's
    rules, written out: counters and histograms add (in worker order),
    gauges keep the worker's value under a ``worker`` label."""
    merged = {(r["kind"], r["name"]): dict(r) for r in own}
    for worker_id, registry in enumerate(workers):
        for record in registry.records():
            kind, name = record["kind"], record["name"]
            have = merged.get((kind, name))
            if kind == "gauge":
                base, pairs = split_labels(name)
                name = labeled(base, **dict(pairs), worker=worker_id)
                merged[kind, name] = {**record, "name": name}
            elif have is None:
                merged[kind, name] = dict(record)
            elif kind == "counter":
                have["value"] += record["value"]
            else:
                have["counts"] = [a + b for a, b in zip(have["counts"], record["counts"])]
                have["total"] += record["total"]
                have["count"] += record["count"]
    return [merged[key] for key in sorted(merged)]  # records() order: kind, then name


@pytest.mark.timeout(300)
class TestProcessBoundary:
    @staticmethod
    def _collected(mode):
        """After a run of two reactive workers that keep telemetry: the
        edge handle after ``collect_telemetry``, the edge's own metric
        records and events just before it and, inproc, the workers'
        telemetry."""
        telemetry = Telemetry()
        arrivals = poisson_arrivals(400.0, 20.0, seed=5)
        with DistributedServeSession(
            specs(2, collect_telemetry=True, control="reactive", slot_seconds=5.0),
            arrivals, mode=mode, seed=5, telemetry=telemetry,
        ) as session:
            session.run(20.0)
            own = telemetry.metrics.records(), list(telemetry.timeline.events)
            session.collect_telemetry()
            workers = [handle.server.telemetry for handle in session.workers if handle.server]
        return telemetry, own, workers

    @pytest.mark.parametrize("mode", ["inproc", "pipe", "tcp"])
    def test_collected_registry_is_edge_plus_workers(self, mode):
        """What ``collect_telemetry`` leaves in the edge handle is the
        edge's own registry plus each worker's, read in-process; real
        worker processes on either transport leave the same."""
        telemetry, (own, own_events), workers = self._collected("inproc")
        assert telemetry.metrics.records() == fleet_sum(own, [w.metrics for w in workers])
        worker_events = [
            {**event, "worker": worker_id}
            for worker_id, tel in enumerate(workers)
            for event in tel.timeline.events
        ]
        assert worker_events and telemetry.timeline.events == own_events + worker_events
        if mode != "inproc":
            across, *_ = self._collected(mode)
            assert across.metrics.records() == telemetry.metrics.records()
            assert across.timeline.events == telemetry.timeline.events


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
    def _metric_state(self, metrics):
        return (
            {n: c.value for n, c in metrics.counters().items()},
            {n: g.value for n, g in metrics.gauges().items()},
            {
                n: (list(h.counts), h.total, h.count)
                for n, h in metrics.histograms().items()
            },
        )

    def _streaming_session(self, telemetry, collect_telemetry=True, **kwargs):
        arrivals = poisson_arrivals(150.0, 20.0, seed=3)
        return DistributedServeSession(
            specs(2, collect_telemetry=collect_telemetry),
            arrivals,
            mode="inproc",
            seed=3,
            telemetry=telemetry,
            **kwargs,
        )

    def test_live_fleet_view_matches_capture_merge(self):
        """The live fleet registry after the last tick holds exactly what
        ``collect_telemetry`` then folds into the edge handle — same
        counter floats, same histogram counts — and the edge handle is
        the live registry from then on."""
        telemetry = Telemetry()
        with self._streaming_session(telemetry) as session:
            session.run(20.0)
            live_state = self._metric_state(session.engine.live_metrics)
            session.collect_telemetry()
            assert session.engine.live_metrics is telemetry.metrics
        assert live_state == self._metric_state(telemetry.metrics)
        # Counters merged unlabelled, gauges split per worker.
        assert telemetry.metrics.counter("serve.admitted").value > 0
        gauges = telemetry.metrics.gauges()
        assert 'serve.machines{worker="0"}' in gauges
        assert 'serve.machines{worker="1"}' in gauges

    def test_streaming_capture_equals_nonstreaming_capture(self):
        """Workers shipping a delta on every reply must not change what
        the run reports, nor what the edge records itself."""

        def once(collect_telemetry):
            telemetry = Telemetry()
            with self._streaming_session(telemetry, collect_telemetry) as session:
                report = session.run(20.0)
                own = telemetry.metrics.records()
            return report, own

        streamed_report, streamed = once(True)
        quiet_report, quiet = once(False)
        assert streamed_report.summary() == quiet_report.summary()
        assert streamed == quiet

    def test_fleet_view_mid_run_is_partial_but_consistent(self):
        telemetry = Telemetry()
        with self._streaming_session(telemetry) as session:
            session.run(10.0)
            fleet = session.engine
            view = fleet.live_metrics
            assert fleet.live_metrics is view  # built once a tick at most
            admitted = view.counter("serve.admitted").value
            assert admitted > 0 and "serve.admitted" not in telemetry.metrics.counters()
            session.run(10.0)
            assert fleet.live_metrics is not view
            assert fleet.live_metrics.counter("serve.admitted").value > admitted
            session.collect_telemetry()
        assert telemetry.metrics.counter("serve.admitted").value > admitted

    def test_timeseries_store_samples_fleet_view(self):
        from repro.telemetry import TimeSeriesStore

        store = TimeSeriesStore()
        with self._streaming_session(Telemetry(), timeseries=store) as session:
            session.run(20.0)
            session.collect_telemetry()
        assert store.samples_taken == 20
        assert len(store.query("serve.admitted")) == 20  # from the first tick on
        # Worker-labelled gauges reach the store via the fleet registry.
        assert len(store.query('serve.machines{worker="1"}')) == 20

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
        assert main(FLEET + ["--timeseries"]) == 0
        (session,) = built
        assert all(handle.spec.collect_telemetry for handle in session.workers)
        assert session.engine.telemetry is not None
        assert session.timeseries is not None and session.timeseries.samples_taken == 20
        assert 'serve.machines{worker="0"}' in session.timeseries.names()

    def test_workers_keep_telemetry_behind_http(self, built, capsys):
        """``/metrics`` and ``/view`` read the fleet registry, so behind
        HTTP every worker keeps one, with no flag asking for it."""
        args = [arg for arg in FLEET if arg != "--no-http"]
        assert main(args + ["--clock", "virtual", "--port", "0"]) == 0
        (session,) = built
        assert all(handle.spec.collect_telemetry for handle in session.workers)
        assert session.engine.telemetry.counter("serve.ticks").value == 2 * 20
