"""Tests for the experiment CLI and shared report helpers."""

import json

import pytest

from repro.cli import main
from repro.experiments import registry
from repro.experiments.common import PaperComparison, comparison_table, format_table
from repro.faults.runtime import new_default_injector
from repro.telemetry import active_telemetry
from repro.telemetry.export import read_jsonl


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig9" in out and "Table 2" in out
        assert "ablations" in out

    def test_run_single(self, capsys):
        assert main(["run", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "completed in" in out

    def test_run_multiple(self, capsys):
        assert main(["run", "fig2", "table1", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Table 1" in out

    def test_save_writes_reports(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", "table1", "--save", str(out_dir)]) == 0
        capsys.readouterr()
        saved = out_dir / "table1.txt"
        assert saved.exists()
        assert "Table 1" in saved.read_text()

    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestRegistryAliases:
    def test_dashed_alias_resolves(self):
        assert registry.get("fig9-elasticity") is registry.get("fig9")

    def test_unknown_id_lists_known(self):
        with pytest.raises(KeyError, match="fig9"):
            registry.get("fig99")


class TestTelemetryFlag:
    def test_run_writes_dump_and_restores_defaults(self, tmp_path, capsys):
        assert active_telemetry() is None
        dump_path = tmp_path / "out.jsonl"
        assert main(["run", "table1", "--telemetry", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert f"-> {dump_path}" in out
        # Scoped session: the process-wide defaults are back to None.
        assert active_telemetry() is None
        assert new_default_injector() is None
        dump = read_jsonl(dump_path)
        assert dump.meta["experiment"] == "table1"
        assert dump.spans_named("experiment")
        assert dump.counters["experiments.runs"] == 1.0

    def test_report_round_trip(self, tmp_path, capsys):
        dump_path = tmp_path / "out.jsonl"
        assert main(["run", "table1", "--telemetry", str(dump_path)]) == 0
        capsys.readouterr()
        assert main(["report", str(dump_path)]) == 0
        out = capsys.readouterr().out
        assert "Run overview" in out
        assert "SLA violations" in out

    def test_report_missing_file(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 2
        assert "no such telemetry dump" in capsys.readouterr().err


class TestBenchSubcommand:
    def _run_quick(self, extra, capsys):
        code = main(
            ["bench", "--quick", "--only", "schedule_construction"] + extra
        )
        return code, capsys.readouterr().out

    def test_quick_writes_output(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code, out = self._run_quick(["--output", str(out_path)], capsys)
        assert code == 0
        report = json.loads(out_path.read_text())
        assert "schedule_construction" in report["kernels"]
        # Sample counts are recorded per kernel, never file-wide.
        assert report["kernels"]["schedule_construction"]["repeats"] == 1
        assert "repeats" not in report

    def test_overhead_budget_is_a_bench_flag(self, capsys):
        code, out = self._run_quick(["--overhead-budget", "2"], capsys)
        assert code == 0
        assert "schedule_construction" in out
        assert main(["bench", "--quick", "--overhead-budget", "1"]) == 2
        assert "--overhead-budget must be > 1.0" in capsys.readouterr().err

    def test_compare_passes_within_tolerance(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(
            {"kernels": {"schedule_construction": {"median_ns": 10**12}}}
        ))
        code, out = self._run_quick(["--compare", str(baseline)], capsys)
        assert code == 0
        assert "all kernels within tolerance" in out

    def test_compare_tolerates_sub_noise_floor_blowup(self, tmp_path, capsys):
        # schedule_construction runs in ~0.1 ms: even a huge ratio vs a
        # 1 ns baseline stays under the absolute noise floor and must
        # not fail the gate.
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(
            {"kernels": {"schedule_construction": {"median_ns": 1}}}
        ))
        code, out = self._run_quick(["--compare", str(baseline)], capsys)
        assert code == 0
        assert "ok (within noise floor)" in out

    def test_compare_fails_on_regression(self, tmp_path, capsys):
        from repro.bench import compare_to_baseline

        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(
            {"kernels": {"some_kernel": {"median_ns": 10**7, "repeats": 3}}}
        ))
        results = {
            "some_kernel": {
                "median_ns": 10**8,
                "samples_ns": [10**8],
                "repeats": 1,
            }
        }
        code = compare_to_baseline(results, baseline, tolerance=1.5)
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_trend_renders_across_baselines(self, tmp_path, capsys):
        for date, median in (("2026-01-01", 10**7), ("2026-01-02", 2 * 10**7)):
            (tmp_path / f"BENCH_{date}.json").write_text(json.dumps({
                "date": date,
                "kernels": {
                    "schedule_construction": {"median_ns": median},
                    "fresh_kernel" if date == "2026-01-02" else "old_kernel": {
                        "median_ns": 5 * 10**6
                    },
                },
            }))
        code = main(["bench", "--trend", "--output-dir", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "2026-01-01" in out and "2026-01-02" in out
        # schedule_construction doubled: flagged as slower.
        line = next(ln for ln in out.splitlines() if ln.startswith("schedule_construction"))
        assert "+100.0% +" in line
        # fresh_kernel has one point: no delta to report.
        fresh = next(ln for ln in out.splitlines() if ln.startswith("fresh_kernel"))
        assert "new" in fresh

    def test_trend_with_no_baselines(self, tmp_path, capsys):
        code = main(["bench", "--trend", "--output-dir", str(tmp_path)])
        assert code == 0
        assert "no BENCH_" in capsys.readouterr().out

    def test_overhead_gate_logic(self, capsys):
        from repro.bench import check_telemetry_overhead

        def results(base_ms, tel_ms):
            return {
                "serve_session": {"median_ns": int(base_ms * 1e6)},
                "serve_session_telemetry": {"median_ns": int(tel_ms * 1e6)},
            }

        # Within budget: fine.
        assert check_telemetry_overhead(results(100.0, 120.0), budget=1.35) == 0
        assert "ok" in capsys.readouterr().out
        # Over budget and over the noise floor: gate fails.
        assert check_telemetry_overhead(results(100.0, 160.0), budget=1.35) == 1
        assert "OVER BUDGET" in capsys.readouterr().out
        # Huge ratio but tiny absolute delta: noise-floored, passes.
        assert check_telemetry_overhead(results(0.1, 1.0), budget=1.35) == 0
        capsys.readouterr()
        # Missing kernels: fail loudly rather than silently skip.
        assert check_telemetry_overhead({}, budget=1.35) == 1


class TestServeSubcommand:
    SERVE_ARGS = [
        "serve", "--no-http", "--clock", "virtual", "--duration", "300",
        "--saturation", "12", "--db-size-mb", "5", "--max-nodes", "4",
        "--interval-seconds", "60", "--queue-limit", "5",
        "--spar", "period=12,periods=2,recent=2,horizon=4",
    ]

    def test_no_http_virtual_run(self, capsys):
        code = main(self.SERVE_ARGS + ["--profile", "poisson:rate=6", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "embedded loadgen:" in out
        assert "offered" in out and "machines now:" in out
        assert "reconfigurations completed:" in out

    def test_require_moves_fails_on_idle_run(self, capsys):
        # Nearly no load: the controller never reconfigures.
        code = main(
            self.SERVE_ARGS
            + ["--profile", "poisson:rate=1", "--require-moves", "1"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "required >= 1" in captured.err

    def test_require_moves_passes_when_scaling(self, capsys):
        code = main(
            self.SERVE_ARGS
            + ["--profile", "poisson:rate=12", "--require-moves", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "cold-start-reactive" in out

    def test_http_virtual_run_exits_cleanly(self, capsys):
        code = main([
            "serve", "--clock", "virtual", "--port", "0", "--duration", "120",
            "--saturation", "12", "--db-size-mb", "5", "--control", "none",
            "--profile", "poisson:rate=4", "--linger", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving on http://127.0.0.1:" in out
        assert "reconfigurations completed:" in out

    def test_profile_requires_duration(self, capsys):
        code = main(["serve", "--no-http", "--profile", "poisson:rate=5"])
        assert code == 2
        assert "--profile requires --duration" in capsys.readouterr().err

    def test_telemetry_dump_includes_serve_metrics(self, tmp_path, capsys):
        dump = tmp_path / "serve.jsonl"
        code = main(
            self.SERVE_ARGS
            + ["--profile", "poisson:rate=6", "--telemetry", str(dump)]
        )
        capsys.readouterr()
        assert code == 0
        parsed = read_jsonl(dump)
        assert parsed.counters["serve.ticks"] == 300
        assert parsed.counters["serve.admitted"] > 0

    def test_timeseries_dump_and_perf_report(self, tmp_path, capsys):
        dump = tmp_path / "ts.json"
        code = main(
            self.SERVE_ARGS
            + [
                "--profile", "poisson:rate=6",
                "--timeseries", str(dump),
                "--perf",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(dump.read_text())
        assert doc["format"] == "repro-timeseries/1"
        assert doc["samples"] == 300
        assert "serve.machines" in doc["series"]
        assert doc["points"]["serve.machines"]["1"], "raw tier must have points"
        # --perf prints the wall-clock stage table after the run report.
        assert "wall-clock stages (ms):" in out
        assert "engine.tick" in out
        assert "measurement overhead:" in out

    def test_tenants_with_http_no_longer_rejected(self, tmp_path, capsys):
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({
            "tenants": [
                {"name": "checkout", "profile": "poisson:rate=4"},
                {"name": "search", "profile": "poisson:rate=2"},
            ]
        }))
        code = main([
            "serve", "--clock", "virtual", "--port", "0", "--duration", "120",
            "--saturation", "12", "--db-size-mb", "5", "--control", "none",
            "--tenants", str(spec), "--linger", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving on http://127.0.0.1:" in out
        assert "tenant checkout:" in out

    def test_default_flags_build_the_default_worker_spec_engine(self, tmp_path, capsys):
        """`repro serve` and the workers share one engine builder: with
        no sizing flags the CLI's engine has the configuration fingerprint
        of a default ``WorkerSpec``'s."""
        from repro.serve import WorkerSpec, read_checkpoint
        from repro.serve.worker import build_worker_engine

        ckpt = tmp_path / "serve.ckpt"
        code = main([
            "serve", "--no-http", "--duration", "2",
            "--checkpoint", str(ckpt), "--checkpoint-every", "1",
        ])
        capsys.readouterr()
        assert code == 0
        spec_engine = build_worker_engine(WorkerSpec(worker_id=0))
        assert (
            read_checkpoint(str(ckpt))["engine"]["config"]
            == spec_engine.state_dict()["engine"]["config"]
        )

    def test_bad_spar_spec_rejected(self, capsys):
        code = main(self.SERVE_ARGS[:-1] + ["period=oops"])
        assert code == 2
        err = capsys.readouterr().err
        assert "period" in err and "oops" in err

    def test_bad_fault_token_exits_2_without_traceback(self, capsys):
        code = main(
            self.SERVE_ARGS
            + ["--profile", "poisson:rate=6", "--faults", "crash@10:nfoo"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'foo'" in err and "crash@10:nfoo" in err
        assert "Traceback" not in err


def report_lines(out):
    """The lines of a run report that state results (not paths or timings)."""
    keep = ("offered", "throughput", "latency", "workers:", "conservation", "tenant ", "gates")
    return [line for line in out.splitlines() if line.startswith(keep)]


class TestSoakSubcommand:
    """``repro serve --workers N``: the fleet behind the one serving
    command (the ``soak`` alias is gone; ``SOAK_ARGS`` spells out what
    its defaults were)."""

    FLEET_ARGS = [
        "serve", "--no-http", "--control", "none", "--workers", "2", "--transport", "inproc",
        "--duration", "30", "--seed", "4", "--saturation", "200", "--queue-limit", "8",
    ]
    SOAK_ARGS = FLEET_ARGS + [
        "--profile", "poisson:rate=120", "--max-p99", "500", "--max-shed-rate", "0.2",
    ]

    def test_soak_passes_and_writes_report(self, tmp_path, capsys):
        report = tmp_path / "soak.json"
        code = main(self.SOAK_ARGS + ["--report", str(report)])
        out = capsys.readouterr().out
        assert code == 0
        assert "gates: PASS" in out
        assert "(exact)" in out
        doc = json.loads(report.read_text())
        assert doc["format"] == "repro-soak-report/1"
        assert doc["passed"] is True and doc["failures"] == []
        assert doc["conserved"] is True and doc["offered"] > 0

    def test_gate_breach_exits_nonzero(self, capsys):
        code = main(self.SOAK_ARGS + ["--max-p99", "0.001"])
        out = capsys.readouterr().out
        assert code == 1
        assert "GATE FAIL: p99" in out and "gates: PASS" not in out

    def test_gates_run_only_when_asked_and_on_a_single_engine_too(self, capsys):
        args = ["serve", "--no-http", "--duration", "20", "--profile", "poisson:rate=50"]
        assert main(args) == 0
        assert "gates" not in capsys.readouterr().out
        assert main(args + ["--max-shed-rate", "0.5"]) == 0
        assert "gates: PASS" in capsys.readouterr().out
        assert main(args + ["--max-p99", "0.001"]) == 1
        assert "GATE FAIL: p99" in capsys.readouterr().out

    def test_checkpoint_restore_round_trip(self, tmp_path, capsys):
        ckpt = tmp_path / "soak.ckpt"
        args = self.SOAK_ARGS + [
            "--checkpoint", str(ckpt), "--checkpoint-every", "20",
        ]
        assert main(args) == 0
        uninterrupted = capsys.readouterr().out
        assert "checkpoints written: 1" in uninterrupted
        code = main(args + ["--restore", str(ckpt)])
        out = capsys.readouterr().out
        assert code == 0
        assert f"restored from {ckpt} at t=20s; serving the remaining 10s" in out
        assert "gates: PASS" in out
        assert report_lines(out) == report_lines(uninterrupted)

    def test_restore_with_nothing_left_exits_2(self, tmp_path, capsys):
        """One resume path: a fleet checkpoint already at the end of the
        run is refused like a single engine's, not \"served\" for 0 s and
        passed on the gates of a run that was never made."""
        ckpt = tmp_path / "fleet.ckpt"
        args = self.FLEET_ARGS + [
            "--profile", "poisson:rate=120", "--max-p99", "500",
            "--checkpoint", str(ckpt), "--checkpoint-every", "10",
        ]
        assert main(args) == 0
        capsys.readouterr()
        code = main(args + ["--restore", str(ckpt)])  # the last snapshot is at t=30
        captured = capsys.readouterr()
        assert code == 2
        assert "nothing left of the 30s run" in captured.err
        assert "gates" not in captured.out

    def test_bad_flags_exit_2(self, capsys):
        code = main(self.FLEET_ARGS + ["--workers", "0"])
        assert code == 2
        assert "worker" in capsys.readouterr().err

    def test_soak_is_no_longer_a_command(self, capsys):
        with pytest.raises(SystemExit) as exited:  # argparse: invalid choice
            main(["soak", "--transport", "inproc", "--duration", "5"])
        assert exited.value.code == 2
        assert "invalid choice: 'soak'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra",
        [["--clock", "virtual", "--port", "0"], ["--no-http", "--retries", "max=3,base=1"]],
        ids=["http", "retries"],
    )
    def test_fleet_runs_behind_http_and_under_retries(self, extra, capsys):
        """Both were refused (exit 2) while a ``Fleet`` had no ``submit``;
        either now prints the report of its plain ``--no-http`` twin —
        nothing is shed at this rate, so no retry ever changes it."""
        args = [
            "serve", "--workers", "2", "--transport", "inproc", "--control", "none",
            "--duration", "20", "--profile", "poisson:rate=300", "--seed", "6",
        ]
        assert main(args + ["--no-http"]) == 0
        plain = capsys.readouterr().out
        assert main(args + extra) == 0
        out = capsys.readouterr().out
        assert report_lines(out) == report_lines(plain)
        assert "(exact)" in out and "workers: w0 machines 1 | w1 machines 1" in out

    def test_retries_over_a_fleet_recover_shed_requests(self, capsys):
        """A spike the workers shed from, over by t=12: with ``--retries``
        some of the shed requests get in on a later attempt, and every
        retry has settled by the end of the run."""
        args = self.FLEET_ARGS + [
            "--queue-limit", "1",
            "--profile", "spike:rate=150,at=5,magnitude=6,ramp=1,plateau=5,decay=1",
        ]
        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--retries", "max=3,base=1"]) == 0
        retried = capsys.readouterr().out
        assert "retries 0" not in retried and "(exact)" in retried and "MISMATCH" not in retried
        shed = [int(out.split("rejected ")[1].split()[0]) for out in (plain, retried)]
        assert 0 < shed[1] < shed[0]

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_faults_refused_across_a_process_boundary(self, transport, capsys):
        """The fault plan is a process-wide default: spawned workers never
        see it, so the run used to print `fault plan in force` and inject
        nothing."""
        code = main(self.FLEET_ARGS + [
            "--transport", transport, "--nodes", "2", "--duration", "10",
            "--faults", "crash@5:n1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "--transport inproc" in captured.err
        assert "fault plan in force" not in captured.out

    def test_faults_reach_inproc_workers(self, capsys):
        args = self.FLEET_ARGS + ["--workers", "1", "--nodes", "2", "--profile", "poisson:rate=80"]
        assert main(args + ["--faults", "crash@5:n1"]) == 0
        out = capsys.readouterr().out
        assert "fault plan in force" in out and "workers: w0 machines 1" in out

    def test_one_inproc_worker_prints_the_single_engine_numbers(self, capsys):
        """The tests/test_front_ends.py identity, from the command line."""
        args = [
            "serve", "--no-http", "--duration", "200", "--profile", "poisson:rate=12",
            "--seed", "5", "--saturation", "12", "--db-size-mb", "5", "--queue-limit", "5",
            "--interval-seconds", "60", "--spar", "period=12,periods=2,recent=2,horizon=4",
        ]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main(args + ["--workers", "1", "--transport", "inproc"]) == 0
        fleet = capsys.readouterr().out
        results = ("offered", "throughput", "latency", "reconfigurations")
        assert [line for line in single.splitlines() if line.startswith(results)] == [
            line for line in fleet.splitlines() if line.startswith(results)
        ]
        assert "reconfigurations completed: 1" in fleet

    def test_tenants_slo_and_spar_reach_the_fleet(self, tmp_path, capsys):
        """The configuration no command could express before: a
        multi-tenant load through an edge, predictive control behind it."""
        spec = tmp_path / "tenants.json"
        spec.write_text(json.dumps({
            "tenants": [
                {"name": "checkout", "profile": "poisson:rate=8", "weight": 2},
                {"name": "batch", "profile": "poisson:rate=6", "quota_rps": 3.0},
            ]
        }))
        code = main([
            "serve", "--no-http", "--workers", "2", "--transport", "inproc",
            "--duration", "120", "--tenants", str(spec), "--saturation", "12",
            "--db-size-mb", "5", "--interval-seconds", "60",
            "--slo", "objective=0.9,latency=2000", "--resilience",
            "--spar", "period=12,periods=2,recent=2,horizon=4", "--max-shed-rate", "0.9",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "tenants: checkout, batch" in out
        assert 'conservation{tenant="checkout"}' in out and "MISMATCH" not in out
        shed = [line for line in out.splitlines() if line.startswith("tenant batch: offered")]
        assert shed and "quota shed 0" not in shed[0]
        assert "SLO 90.000%" in out and "SLO[batch]" in out


class TestSpecDialects:
    """``--spar``, ``--slo``, ``--resilience``, ``--retries`` and
    ``--profile`` options go through one tokenizer (``repro.fields``):
    every mistake names the flag, the offending token and the valid keys."""

    BASE = ["serve", "--no-http", "--duration", "10"]
    DIALECTS = {
        "--spar": ("{}", "period", "keys: period, periods, recent, horizon"),
        "--slo": ("{}", "latency", "keys: objective, latency, fast, slow, burn, samples"),
        "--resilience": ("{}", "miss", "keys: miss, open, halfopen, brownout, shed"),
        "--retries": ("{}", "max", "keys: max, base, cap, jitter, budget, floor, hedge, lowprio"),
        "--profile": ("poisson:{}", "rate", "keys: rate"),
    }

    @pytest.mark.parametrize("flag", sorted(DIALECTS))
    @pytest.mark.parametrize(
        "mistake, why",
        [("bogus=1", "unknown key 'bogus'"), ("{key}", "expected key=value"),
         ("{key}=oops", "{key} must be a")],
    )
    def test_mistakes_exit_2_in_one_shape(self, flag, mistake, why, capsys):
        template, key, keys = self.DIALECTS[flag]
        token = mistake.format(key=key)
        code = main(self.BASE + [flag, template.format(token)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: bad {flag}")
        assert repr(token) in err and why.format(key=key) in err and err.rstrip().endswith(keys)
        assert "Traceback" not in err


class TestTopSubcommand:
    def test_top_once_renders_live_frame(self, capsys):
        import asyncio
        import threading
        import time
        import urllib.request

        from repro.engine.simulator import EngineConfig
        from repro.serve import ServerEngine, ServeSession, poisson_arrivals
        from repro.serve.http import ServeApp
        from repro.telemetry import Telemetry, TimeSeriesStore

        engine = ServerEngine(
            EngineConfig(max_nodes=4, saturation_rate_per_node=60.0),
            initial_nodes=2,
            telemetry=Telemetry(),
        )
        session = ServeSession(
            engine, poisson_arrivals(20.0, 60.0, seed=2), timeseries=TimeSeriesStore()
        )
        app = ServeApp(session, virtual=True, duration_s=60.0, linger_s=30.0)
        ready = threading.Event()
        thread = threading.Thread(
            target=lambda: asyncio.run(app.run(on_ready=lambda _: ready.set())),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10), "server never bound"
        url = f"http://127.0.0.1:{app.port}"
        try:
            for _ in range(200):
                with urllib.request.urlopen(url + "/healthz") as response:
                    if json.load(response)["run_complete"]:
                        break
                time.sleep(0.05)
            code = main(["top", "--once", "--url", url])
            out = capsys.readouterr().out
        finally:
            request = urllib.request.Request(url + "/shutdown", method="POST")
            urllib.request.urlopen(request)
            thread.join(10)
        assert code == 0
        assert "repro top — status ok" in out
        assert "machines 2" in out
        # The sparkline section picked up the time-series store.
        assert "serve.machines:" in out

    def test_render_frame_draws_every_panel_of_the_view(self):
        from repro.serve.top import render_frame

        slo = {"good_fraction": 0.95, "fast_burn": 3.0, "slow_burn": 1.5, "alerting": True}
        view = {
            "health": {
                "status": "degraded", "now": 100.0, "machines": 3, "machine_hours": 0.05,
                "cost_dollars": 0.25, "accepted": 90, "rejected": 10, "completed": 88,
                "max_node_queue_seconds": 1.5, "slo": slo, "breakers": {"10": "open", "2": "closed"},
            },
            "tenants": {
                "search": {"offered": 50, "quota_shed": 0, "brownout_shed": 0, "served": 50,
                           "slo": {**slo, "alerting": False}},
                "checkout": {"offered": 200, "quota_shed": 20, "brownout_shed": 10, "served": 150,
                             "slo": slo},
            },
            "perf": {
                "stages": [{"name": "engine.tick", "count": 100, "mean_ms": 0.2,
                            "p50_ms": 0.25, "p99_ms": 1.0}],
                "overhead_ms": 0.125,
            },
            "series": {"serve.machines": [float(v % 4) for v in range(40)], "serve.empty": []},
        }
        lines = render_frame(view).splitlines()
        assert lines[0] == (
            "repro top — status degraded | t=100s | machines 3 | machine-hours 0.05 | $0.25"
        )
        assert "SLO: good 95.00% | burn fast/slow 3.00/1.50 FIRING" in lines
        # The last 32 points, one block each; empty series draw nothing.
        (spark,) = [line for line in lines if line.startswith("serve.")]
        assert spark == "serve.machines: " + "▁▃▆█" * 8 + " (last 3)"
        assert "breakers: 2:closed 10:open" in lines
        tenant_rows = [line.split() for line in lines if line.startswith(("checkout", "search"))]
        assert tenant_rows == [
            ["checkout", "2.000", "1.500", "0.300", "3.00/1.50", "FIRE"],
            ["search", "0.500", "0.500", "0.000", "3.00/1.50", "ok"],
        ]
        assert any(line.split() == ["engine.tick", "100", "0.200", "0.250", "1.000"] for line in lines)
        assert lines[-1] == "perf overhead: 0.125 ms"

    def test_top_against_unreachable_server_exits_2(self, capsys):
        code = main(["top", "--once", "--url", "http://127.0.0.1:1"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err


class TestLoadgenSubcommand:
    def test_unreachable_server_exits_nonzero(self, capsys):
        code = main([
            "loadgen", "--url", "http://127.0.0.1:1",
            "--profile", "poisson:rate=3", "--duration", "2",
            "--speedup", "100",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "firing" in out and "rejected" in out


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table(("a", "bbb"), [(1, 2), (33, 44)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bbb" in lines[1]
        assert len({len(line) for line in lines[1:]}) <= 2

    def test_comparison_table(self):
        text = comparison_table(
            [PaperComparison("metric", "10", "11")], "Title"
        )
        assert "Title" in text
        assert "metric" in text and "10" in text and "11" in text
