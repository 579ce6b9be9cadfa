"""Checkpoint/restore of the live serving state.

The headline property: a serving session resumed from a digest-verified
snapshot continues **bit-identically** to a run that was never
interrupted — same latency samples, same counters, same control-loop
decisions.  Everything runs on the virtual clock.
"""

import json

import pytest

from repro.cli import main
from repro.core.controller import ReactiveController
from repro.core.params import SystemParameters
from repro.engine.simulator import EngineConfig
from repro.errors import CheckpointError, ConfigurationError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, NodeCrash
from repro.prediction.online import OnlinePredictor
from repro.prediction.spar import SPARPredictor
from repro.serve import (
    AdmissionConfig,
    CheckpointConfig,
    OnlineControlLoop,
    RetryConfig,
    ServeSession,
    ServerEngine,
    poisson_arrivals,
    read_checkpoint,
    write_checkpoint,
)

SAT = 12.0


def small_config(**kwargs):
    defaults = dict(max_nodes=4, saturation_rate_per_node=SAT, db_size_kb=5 * 1024)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


def small_controller():
    spar = SPARPredictor(period=12, n_periods=2, n_recent=2, max_horizon=4)
    return OnlineControlLoop(
        SystemParameters.from_saturation(SAT, interval_seconds=60.0, d_seconds=120.0),
        OnlinePredictor(spar, refit_every=12),
        measurement_slot_seconds=60.0,
        horizon=4,  # the default would be 1: these toy params have 2D/P = 40 s
        max_machines=4,
    )


def build_engine(*, controller=True, **kwargs):
    """``controller``: True for ``small_controller()``, False for none,
    or the controller itself."""
    if isinstance(controller, bool):
        controller = small_controller() if controller else None
    defaults = dict(
        engine_config=small_config(),
        initial_nodes=2,
        slot_seconds=60.0,
        admission=AdmissionConfig(queue_limit_seconds=8.0),
        controller=controller,
    )
    defaults.update(kwargs)
    return ServerEngine(**defaults)


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
class TestCheckpointFile:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        state = {"clock_now": 12.5, "engine": {"x": [1, 2, 3]}}
        digest = write_checkpoint(path, state)
        assert len(digest) == 64
        assert read_checkpoint(path) == state

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            read_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("definitely not json{")
        with pytest.raises(CheckpointError, match="not valid JSON"):
            read_checkpoint(str(path))

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps({"format": "bogus/9", "state": {}}))
        with pytest.raises(CheckpointError, match="unknown format"):
            read_checkpoint(str(path))

    def test_tampered_state_fails_digest(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        write_checkpoint(path, {"counter": 1})
        document = json.loads(open(path).read())
        document["state"]["counter"] = 2  # the hand-edit
        with open(path, "w") as handle:
            json.dump(document, handle)
        with pytest.raises(CheckpointError, match="digest"):
            read_checkpoint(path)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig("")
        with pytest.raises(ConfigurationError):
            CheckpointConfig("x.ckpt", every_s=0.0)


# ----------------------------------------------------------------------
# Quiescence and restore preconditions
# ----------------------------------------------------------------------
class TestQuiescence:
    def test_pending_requests_block_checkpoint(self):
        engine = build_engine(controller=False)
        engine.submit(None, now=0.0)
        with pytest.raises(CheckpointError, match="admitted"):
            engine.ensure_quiescent()
        engine.tick()
        engine.ensure_quiescent()  # drained: fine now

    def test_unresolved_faults_block_checkpoint(self):
        plan = FaultPlan([NodeCrash(at_seconds=50.0, node_id=1)])
        engine = build_engine(controller=False, fault_injector=FaultInjector(plan))
        with pytest.raises(CheckpointError, match="fault"):
            engine.ensure_quiescent()

    def test_restore_rejects_config_mismatch(self):
        state = build_engine(controller=False).state_dict()
        other = build_engine(
            controller=False, engine_config=small_config(max_nodes=3)
        )
        with pytest.raises(CheckpointError, match="does not match"):
            other.load_state_dict(state)

    def test_restore_rejects_already_served_engine(self):
        state = build_engine(controller=False).state_dict()
        target = build_engine(controller=False)
        target.tick()
        with pytest.raises(CheckpointError, match="already served"):
            target.load_state_dict(state)

    def test_resume_requires_matching_retry_setting(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        arrivals = poisson_arrivals(4.0, 30.0, seed=1)
        session = ServeSession(
            build_engine(controller=False), arrivals, retry=RetryConfig()
        )
        session.run(40.0)
        session.write_checkpoint(path)
        with pytest.raises(CheckpointError, match="retries are\n?\\s*disabled"):
            ServeSession.resume(build_engine(controller=False), arrivals, path)

    def test_resume_requires_restorable_controller(self, tmp_path):
        path = str(tmp_path / "snap.ckpt")
        arrivals = poisson_arrivals(4.0, 30.0, seed=1)
        session = ServeSession(build_engine(), arrivals)
        session.run(40.0)
        session.write_checkpoint(path)
        with pytest.raises(CheckpointError, match="controller"):
            ServeSession.resume(build_engine(controller=False), arrivals, path)

    def test_resume_refuses_a_checkpoint_without_control_state(self, tmp_path):
        # The other direction: a loop that would silently start cold.
        path = str(tmp_path / "snap.ckpt")
        arrivals = poisson_arrivals(4.0, 30.0, seed=1)
        session = ServeSession(build_engine(controller=False), arrivals)
        session.run(40.0)
        session.write_checkpoint(path)
        with pytest.raises(CheckpointError, match="no control state"):
            ServeSession.resume(build_engine(), arrivals, path)

    @pytest.mark.parametrize("wrote", ["online", "reactive"])
    def test_resume_refuses_another_controllers_state(self, wrote, tmp_path):
        def controller(kind):
            if kind == "online":
                return small_controller()
            return ReactiveController(
                small_controller().params, max_machines=4, measurement_slot_seconds=60.0
            )

        path = str(tmp_path / "snap.ckpt")
        arrivals = poisson_arrivals(4.0, 30.0, seed=1)
        session = ServeSession(build_engine(controller=controller(wrote)), arrivals)
        session.run(40.0)
        session.write_checkpoint(path)
        other = "reactive" if wrote == "online" else "online"
        with pytest.raises(CheckpointError, match="not written by a"):
            ServeSession.resume(build_engine(controller=controller(other)), arrivals, path)


# ----------------------------------------------------------------------
# Bit-identical resume
# ----------------------------------------------------------------------
class TestBitIdenticalResume:
    ARRIVALS_KW = dict(rate_per_s=6.0, duration_s=340.0, seed=7)
    TOTAL_S = 360.0

    def run_uninterrupted(self):
        arrivals = poisson_arrivals(**self.ARRIVALS_KW)
        session = ServeSession(build_engine(), arrivals, retry=RetryConfig())
        return session.run(self.TOTAL_S)

    def test_resume_is_bit_identical(self, tmp_path):
        reference = self.run_uninterrupted()

        # Same run, but snapshotting on a cadence; "crash" after 240s by
        # discarding the session and resuming from the last snapshot.
        path = str(tmp_path / "serve.ckpt")
        arrivals = poisson_arrivals(**self.ARRIVALS_KW)
        interrupted = ServeSession(
            build_engine(),
            arrivals,
            retry=RetryConfig(),
            checkpoint=CheckpointConfig(path, every_s=120.0),
        )
        interrupted.run(240.0)
        assert interrupted.checkpoints_written >= 1

        checkpoint_t = float(read_checkpoint(path)["clock_now"])
        assert 0 < checkpoint_t <= 240.0
        resumed = ServeSession.resume(
            build_engine(), arrivals, path, retry=RetryConfig()
        )
        assert resumed.clock.now == checkpoint_t
        report = resumed.run(self.TOTAL_S - checkpoint_t)

        # Byte-for-byte: every latency sample, every counter.
        assert report.latencies_ms == reference.latencies_ms
        assert report.summary() == reference.summary()
        assert report.duration_s == reference.duration_s

    def test_manual_checkpoint_roundtrips_controller(self, tmp_path):
        # Snapshot after the control loop has observed slots and refit;
        # the resumed loop continues from the same fit, so its decisions
        # (and therefore cluster topology) match the reference exactly.
        path = str(tmp_path / "serve.ckpt")
        arrivals = poisson_arrivals(**self.ARRIVALS_KW)
        first = ServeSession(build_engine(), arrivals, retry=RetryConfig())
        first.run(180.0)
        first.write_checkpoint(path)

        resumed = ServeSession.resume(
            build_engine(), arrivals, path, retry=RetryConfig()
        )
        assert resumed.engine.controller.intervals_observed == (
            first.engine.controller.intervals_observed
        )
        report = resumed.run(self.TOTAL_S - 180.0)
        reference = self.run_uninterrupted()
        assert report.latencies_ms == reference.latencies_ms
        assert report.summary() == reference.summary()


# ----------------------------------------------------------------------
# CLI --checkpoint / --restore
# ----------------------------------------------------------------------
class TestServeCheckpointCLI:
    def serve_args(self, tmp_path):
        return [
            "serve", "--no-http", "--clock", "virtual", "--duration", "300",
            "--saturation", "12", "--db-size-mb", "5", "--max-nodes", "4",
            "--interval-seconds", "60", "--queue-limit", "8",
            "--spar", "period=12,periods=2,recent=2,horizon=4",
            "--profile", "poisson:rate=6", "--seed", "3",
            "--checkpoint", str(tmp_path / "serve.ckpt"),
            "--checkpoint-every", "120",
        ]

    def test_checkpoint_then_restore(self, tmp_path, capsys):
        args = self.serve_args(tmp_path)
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "checkpoints written:" in out
        assert (tmp_path / "serve.ckpt").exists()

        assert main(args + ["--restore", str(tmp_path / "serve.ckpt")]) == 0
        out = capsys.readouterr().out
        assert "restored from" in out

    def test_restore_past_duration_exits_2(self, tmp_path, capsys):
        args = self.serve_args(tmp_path)
        assert main(args) == 0
        capsys.readouterr()
        short = [a if a != "300" else "60" for a in args]
        code = main(short + ["--restore", str(tmp_path / "serve.ckpt")])
        assert code == 2
        assert "nothing left" in capsys.readouterr().err

    def test_restore_over_http_resumes(self, tmp_path, capsys):
        """One driver: a --no-http checkpoint resumes under the HTTP pacer
        and finishes with the uninterrupted run's report."""
        args = self.serve_args(tmp_path)
        assert main(args) == 0
        reference = capsys.readouterr().out
        http_args = [a for a in args if a != "--no-http"] + ["--port", "0"]
        code = main(http_args + ["--restore", str(tmp_path / "serve.ckpt")])
        out = capsys.readouterr().out
        assert code == 0
        assert "restored from" in out and "serving on http://" in out

        def report_lines(text):
            return [
                line for line in text.splitlines()
                if line.startswith(("offered", "throughput", "latency", "machines now"))
            ]

        assert report_lines(out) == report_lines(reference)
