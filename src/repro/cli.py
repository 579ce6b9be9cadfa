"""Command-line interface for the reproduction experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig5
    python -m repro.cli run fig9 --fast
    python -m repro.cli run all --fast --save results/
    python -m repro.cli run fig9-elasticity --telemetry out.jsonl
    python -m repro.cli report out.jsonl
    python -m repro.cli explain out.jsonl
    python -m repro.cli bench --quick --compare BENCH_2026-08-07.json
    repro serve --clock virtual --duration 3600 --profile poisson:rate=200
    repro serve --clock virtual --duration 3600 --profile spike:rate=150 \\
        --trace-requests --slo --debug-bundle out/bundle
    repro serve --no-http --workers 3 --duration 60 --profile poisson:rate=300 \\
        --max-p99 500 --max-shed-rate 0.2
    repro loadgen --url http://127.0.0.1:8080 --profile spike:rate=150

(``repro`` is the installed console script for this module; see
docs/SERVING.md for the serving layer.  ``serve`` is the one serving
command: a single engine, or with ``--workers N`` an edge over N worker
shards, behind HTTP or with ``--no-http``.)

``--faults`` and ``--telemetry`` install *scoped* process-wide defaults
(see :mod:`repro.faults.runtime` and :mod:`repro.telemetry.runtime`):
the previous defaults are restored when the invocation finishes, so
back-to-back ``main()`` calls in one process never leak state into each
other and stay deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Iterator, List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.experiments import registry
from repro.experiments.common import experiment_telemetry
from repro.faults import fault_plan_session, parse_fault_spec
from repro.fields import int_number, parse_fields
from repro.telemetry import Telemetry, telemetry_session
from repro.telemetry.export import export as export_telemetry


def _cmd_list() -> int:
    for spec in registry.list_experiments():
        print(f"{spec.experiment_id:<10} {spec.paper_reference:<18} {spec.title}")
    return 0


def _args_config(args: argparse.Namespace) -> dict:
    """The resolved invocation as a JSON-safe dict (bundle config.json)."""
    return {
        key: value
        for key, value in sorted(vars(args).items())
        if not key.startswith("_")
    }


@contextlib.contextmanager
def _session(
    faults: Optional[str],
    telemetry_path: Optional[str],
    bundle_dir: Optional[str] = None,
    bundle_config: Optional[dict] = None,
    bundle_report: Optional[dict] = None,
) -> Iterator[Optional[Telemetry]]:
    """Install the scoped fault-plan/telemetry defaults for one command.

    On exit the telemetry dump is written to ``telemetry_path`` and both
    process-wide defaults are restored to whatever they were before.
    ``--debug-bundle`` implies telemetry: when ``bundle_dir`` is given a
    registry is installed even without ``--telemetry``, and the bundle
    (dump + metrics + config + report) is exported on exit.
    ``bundle_report`` may be filled by the command body after the yield;
    it is read only at export time.
    """
    with contextlib.ExitStack() as stack:
        if faults is not None:
            plan = parse_fault_spec(faults)
            stack.enter_context(fault_plan_session(plan))
            print(f"fault plan in force: {plan.counts()}")
        telemetry: Optional[Telemetry] = None
        if telemetry_path is not None or bundle_dir is not None:
            telemetry = Telemetry()
            stack.enter_context(telemetry_session(telemetry))
        try:
            yield telemetry
        finally:
            if telemetry is not None:
                telemetry.tracer.finish_all()
                if telemetry_path is not None:
                    count = export_telemetry(telemetry, telemetry_path)
                    print(f"telemetry: {count} records -> {telemetry_path}")
                if bundle_dir is not None:
                    from repro.telemetry.bundle import write_debug_bundle

                    manifest = write_debug_bundle(
                        telemetry,
                        bundle_dir,
                        config=bundle_config,
                        report=bundle_report if bundle_report else None,
                    )
                    files = manifest["files"]
                    print(f"debug bundle: {len(files)} files -> {bundle_dir}")


def _cmd_run(
    experiment_ids: List[str],
    fast: bool,
    save_dir: Optional[str] = None,
    faults: Optional[str] = None,
    telemetry_path: Optional[str] = None,
    bundle_dir: Optional[str] = None,
    workers: int = 1,
) -> int:
    if experiment_ids == ["all"]:
        experiment_ids = [spec.experiment_id for spec in registry.list_experiments()]
    out_dir: Optional[Path] = None
    if save_dir is not None:
        out_dir = Path(save_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
    bundle_config = {
        "command": "run",
        "ids": list(experiment_ids),
        "fast": fast,
        "faults": faults,
    }
    bundle_report: dict = {}
    with _session(
        faults,
        telemetry_path,
        bundle_dir=bundle_dir,
        bundle_config=bundle_config,
        bundle_report=bundle_report,
    ):
        for experiment_id in experiment_ids:
            try:
                spec = registry.get(experiment_id)
            except KeyError as exc:
                print(exc, file=sys.stderr)
                return 2
            started = time.time()
            print(f"== {spec.paper_reference}: {spec.title} ==")
            kwargs = {"fast": fast}
            if workers > 1 and "workers" in inspect.signature(spec.runner).parameters:
                kwargs["workers"] = workers
            with experiment_telemetry(spec.experiment_id):
                result = spec.runner(**kwargs)
            report = result.format_report()
            bundle_report.setdefault("experiments", []).append(spec.experiment_id)
            print(report)
            print(f"-- completed in {time.time() - started:.1f}s\n")
            if out_dir is not None:
                path = out_dir / f"{spec.experiment_id}.txt"
                path.write_text(
                    f"{spec.paper_reference}: {spec.title}\n\n{report}\n"
                )
    return 0


def _cmd_report(path: str, window: int) -> int:
    from repro.telemetry.report import render_report

    target = Path(path)
    if not target.exists():
        print(f"no such telemetry dump: {path}", file=sys.stderr)
        return 2
    print(render_report(str(target), window=window))
    return 0


def _cmd_explain(path: str, max_details: int) -> int:
    """Explain a run from its audit trail: planner decisions with
    predicted-vs-actual load, SLO burn-rate alerts, per-node shedding
    and request-trace counts."""
    from repro.telemetry.report import render_explain

    target = Path(path)
    if not target.exists():
        print(f"no such telemetry dump or bundle: {path}", file=sys.stderr)
        return 2
    print(render_explain(str(target), max_details=max_details))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the kernel benchmarks under the same scoped defaults as
    ``run`` — ``repro.cli bench --quick --faults ... --telemetry ...``
    composes without mutating process-wide state."""
    from repro.bench import run as run_bench

    with _session(
        args.faults,
        args.telemetry,
        bundle_dir=args.debug_bundle,
        bundle_config=_args_config(args),
    ):
        return run_bench(args)


def _parse_spar_spec(spec: Optional[str], interval_seconds: float) -> dict:
    """Parse ``period=...,periods=...,recent=...,horizon=...`` into
    SPAR constructor kwargs; defaults scale with the planning interval
    (one day per period, paper-shaped term counts)."""
    kwargs = {
        "period": max(2, int(round(86400.0 / interval_seconds))),
        "n_periods": 3,
        "n_recent": 6,
        "max_horizon": 12,
    }
    kwargs.update(
        parse_fields(
            "--spar",
            spec,
            {
                "period": ("period", int),
                "periods": ("n_periods", int),
                "recent": ("n_recent", int),
                "horizon": ("max_horizon", int),
            },
        )
    )
    kwargs["max_horizon"] = min(kwargs["max_horizon"], kwargs["period"])
    return kwargs


def _parse_slo_spec(spec: str):
    """Parse ``objective=...,latency=...,fast=...,slow=...,burn=...,
    samples=...`` into an :class:`~repro.telemetry.slo.SLOConfig`
    (empty = defaults)."""
    from repro.telemetry.slo import SLOConfig

    return SLOConfig(
        **parse_fields(
            "--slo",
            spec,
            {
                "objective": ("objective", float),
                "latency": ("latency_threshold_ms", float),
                "fast": ("fast_window_s", float),
                "slow": ("slow_window_s", float),
                "burn": ("burn_threshold", float),
                "samples": ("min_samples", int_number),
            },
        )
    )


def _parse_resilience_spec(spec: str):
    """Parse ``miss=3,open=30,halfopen=2,brownout=0.5,shed=1`` into a
    :class:`~repro.serve.resilience.ResilienceConfig` (empty = defaults;
    ``brownout=0`` disables brownout entirely)."""
    from repro.serve.resilience import BreakerConfig, BrownoutConfig, ResilienceConfig

    options = {"miss": 3, "open": 30.0, "halfopen": 2, "brownout": 0.5, "shed": True}
    options.update(
        parse_fields(
            "--resilience",
            spec,
            {
                "miss": ("miss", int_number),
                "open": ("open", float),
                "halfopen": ("halfopen", int_number),
                "brownout": ("brownout", float),
                "shed": ("shed", lambda value: bool(float(value))),
            },
        )
    )
    breaker = BreakerConfig(
        miss_threshold=options["miss"],
        open_seconds=options["open"],
        half_open_successes=options["halfopen"],
    )
    brownout = (
        BrownoutConfig(
            queue_factor=options["brownout"], shed_low_priority=options["shed"]
        )
        if options["brownout"] > 0
        else None
    )
    return ResilienceConfig(breaker=breaker, brownout=brownout)


def _parse_retry_spec(spec: str):
    """Parse ``max=3,base=0.5,cap=8,jitter=0.2,budget=0.2,floor=20,
    hedge=5,lowprio=0.1`` into a :class:`~repro.serve.resilience.
    RetryConfig` (empty = defaults; omit ``hedge`` to disable hedging)."""
    from repro.serve.resilience import RetryConfig

    return RetryConfig(
        **parse_fields(
            "--retries",
            spec,
            {
                "max": ("max_retries", int_number),
                "base": ("backoff_base_s", float),
                "cap": ("backoff_cap_s", float),
                "jitter": ("jitter", float),
                "budget": ("budget_fraction", float),
                "floor": ("budget_floor", int_number),
                "hedge": ("hedge_queue_seconds", float),
                "lowprio": ("low_priority_fraction", float),
            },
        )
    )


def _apply_gates(
    report, summary: dict, max_p99_ms: Optional[float], max_shed_rate: Optional[float],
    report_path: Optional[str],
) -> int:
    """The CI gates over a finished run's ``LoadgenReport``: exact
    request conservation, a p99 ceiling (0 or ``None``: none) and a
    shed-fraction ceiling.  Prints ``GATE FAIL: ...`` per breach or
    ``gates: PASS``, writes the verdict beside the run summary to
    ``report_path`` (the soak-smoke CI artifact) and returns the exit code."""
    failures = []
    if not report.conserved:
        failures.append(f"conservation violated: {report.conservation_line()}")
    p99 = report.latency_percentile(99.0)
    if max_p99_ms and p99 > max_p99_ms:
        failures.append(f"p99 {p99:.1f}ms exceeds gate {max_p99_ms:.1f}ms")
    if max_shed_rate is not None and report.reject_rate > max_shed_rate:
        failures.append(f"shed rate {report.reject_rate:.4f} exceeds gate {max_shed_rate:.4f}")
    print("\n".join(f"GATE FAIL: {failure}" for failure in failures) or "gates: PASS")
    if report_path is not None:
        document = {
            **summary, "format": "repro-soak-report/1", "conserved": report.conserved,
            "failures": failures, "passed": not failures,
        }
        Path(report_path).parent.mkdir(parents=True, exist_ok=True)
        Path(report_path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"gate report -> {report_path}")
    return 1 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from dataclasses import replace

    import numpy as np

    from repro.serve import ServeSession
    from repro.serve.loadgen import parse_profile

    fleet = args.workers is not None
    if fleet and args.faults is not None and args.transport != "inproc":
        raise ConfigurationError(
            "--faults installs a process-wide plan that spawned workers never see; "
            f"use --transport inproc, not {args.transport}"
        )
    bundle_report: dict = {}
    with _session(
        args.faults,
        args.telemetry,
        bundle_dir=args.debug_bundle,
        bundle_config=_args_config(args),
        bundle_report=bundle_report,
    ) as session_telemetry, contextlib.ExitStack() as stack:
        # /metrics needs a registry even without --telemetry.
        telemetry = session_telemetry if session_telemetry is not None else Telemetry()
        perf = None
        if args.perf:
            from repro.telemetry.perf import PerfRecorder, perf_session

            perf = PerfRecorder()
            stack.enter_context(perf_session(perf))
        timeseries = None
        if args.timeseries is not None:
            from repro.telemetry.timeseries import TimeSeriesStore

            timeseries = TimeSeriesStore()
        tenancy = None
        if args.tenants is not None:
            from repro.tenancy import TenantAdmission, TenantRegistry

            if args.duration is None:
                print("--tenants requires --duration", file=sys.stderr)
                return 2
            if args.profile is not None:
                print(
                    "--tenants builds its own composite workload; "
                    "drop --profile",
                    file=sys.stderr,
                )
                return 2
            tenancy = TenantAdmission(TenantRegistry.load(args.tenants))
        from repro.serve.worker import WorkerSpec, build_worker_engine

        # One recipe: the whole of a single-engine run, or every shard of
        # a fleet (they then differ in ``worker_id`` and ``seed`` only).
        spec = WorkerSpec(
            worker_id=0,
            initial_nodes=args.nodes,
            max_nodes=args.max_nodes,
            saturation_rate_per_node=args.saturation,
            db_size_kb=args.db_size_mb * 1024.0,
            slot_seconds=args.slot_seconds,
            interval_seconds=args.interval_seconds,
            queue_limit_seconds=args.queue_limit,
            seed=args.seed,
            control=args.control,
            spar=(
                _parse_spar_spec(args.spar, args.interval_seconds)
                if args.control == "online"
                else {}
            ),
            refit_every=args.refit_every,
            trace_requests=args.trace_requests,
            # A single engine records into ``telemetry`` regardless; a
            # worker keeps a registry only when somebody will read it
            # (behind HTTP, /metrics and /view read the fleet's).
            collect_telemetry=(
                session_telemetry is not None
                or args.trace_requests
                or timeseries is not None
                or not args.no_http
            ),
        )
        slo = _parse_slo_spec(args.slo) if args.slo is not None else None
        resilience = (
            _parse_resilience_spec(args.resilience)
            if args.resilience is not None
            else None
        )
        checkpoint = None
        if args.checkpoint is not None:
            from repro.serve import CheckpointConfig

            checkpoint = CheckpointConfig(
                args.checkpoint, every_s=args.checkpoint_every
            )
        arrivals = np.empty(0)
        tenant_indices = None
        tenant_names = None
        if tenancy is not None:
            from repro.tenancy import composite_arrivals

            arrivals, tenant_indices = composite_arrivals(
                tenancy.registry, args.duration, seed=args.seed
            )
            tenant_names = tenancy.registry.names()
            print(
                f"tenants: {', '.join(tenant_names)} | "
                f"composite workload: {len(arrivals)} arrivals"
            )
        elif args.profile is not None:
            if args.duration is None:
                print("--profile requires --duration", file=sys.stderr)
                return 2
            arrivals = parse_profile(args.profile, args.duration, seed=args.seed)
            print(f"embedded loadgen: {len(arrivals)} arrivals ({args.profile})")
        if args.no_http and args.duration is None:
            print("--no-http requires --duration", file=sys.stderr)
            return 2
        session_kwargs = dict(
            retry=_parse_retry_spec(args.retries) if args.retries is not None else None,
            retry_seed=args.seed,
            checkpoint=checkpoint,
            tenant_indices=tenant_indices,
            tenant_names=tenant_names,
            timeseries=timeseries,
        )
        if fleet:
            from repro.serve import DistributedServeSession as session_class

            # Distinct engine seeds per shard: identical seeds would make
            # every shard draw identical latency streams.
            target = [replace(spec, worker_id=i, seed=args.seed + i) for i in range(args.workers)]
            session_kwargs.update(
                mode=args.transport,
                edge_queue_limit_s=args.edge_queue_limit,
                breaker=resilience.breaker if resilience is not None else None,
                brownout=resilience.brownout if resilience is not None else None,
                slo=slo,
                low_priority_fraction=args.low_priority,
                trace_requests=args.trace_requests,
                telemetry=telemetry,
                seed=args.seed,
                tenancy=tenancy,
            )
        else:
            session_class = ServeSession
            target = build_worker_engine(
                spec, telemetry, slo=slo, resilience=resilience, tenancy=tenancy
            )
        if args.restore is None:
            session = session_class(target, arrivals, **session_kwargs)
        else:
            # The (empty) time-series store just starts sampling from
            # the restored tick onward.
            session = session_class.resume(target, arrivals, args.restore, **session_kwargs)
        if fleet:
            stack.enter_context(session)  # starts the workers; reaps them on the way out
        if args.restore is not None:
            at = session.clock.now
            if args.duration is not None and args.duration <= at:
                print(
                    f"checkpoint is already at t={at:.0f}s, "
                    f"nothing left of the {args.duration:.0f}s run",
                    file=sys.stderr,
                )
                return 2
            print(
                f"restored from {args.restore} at t={at:.0f}s"
                + (
                    f"; serving the remaining {args.duration - at:.0f}s"
                    if args.duration is not None
                    else ""
                )
            )
        if args.no_http:
            session.run(args.duration - session.clock.now)
        else:
            from repro.serve.http import ServeApp

            app = ServeApp(
                session,
                host=args.host,
                port=args.port,
                virtual=args.clock == "virtual",
                speedup=args.speedup,
                duration_s=args.duration,
                linger_s=args.linger,
                perf=perf,
                cost_per_machine_hour=args.cost_per_machine_hour,
            )
            asyncio.run(
                app.run(
                    on_ready=lambda a: print(
                        f"serving on http://{a.host}:{a.port} "
                        f"({args.clock} clock)",
                        flush=True,
                    )
                )
            )
        if fleet:
            session.collect_telemetry()  # the workers' registries, into the edge's
        print(session.format_report())
        if timeseries is not None and args.timeseries:
            Path(args.timeseries).write_text(
                json.dumps(timeseries.dump(), sort_keys=True)
            )
            print(
                f"timeseries: {timeseries.samples_taken} samples -> "
                f"{args.timeseries}"
            )
        if perf is not None:
            for line in perf.report_lines():
                print(line)
        summary = session.summary()
        bundle_report.update(summary)
        moves = summary.get("moves_completed")
        if moves is None:  # a fleet: every worker counts its own
            moves = sum(w.get("moves_completed", 0) for w in summary["workers"].values())
        print(f"reconfigurations completed: {moves}")
        code = 0
        if args.require_moves and moves < args.require_moves:
            print(
                f"FAIL: required >= {args.require_moves} completed "
                f"reconfigurations, saw {moves}",
                file=sys.stderr,
            )
            code = 1
        if (args.max_p99, args.max_shed_rate, args.report) != (None, None, None):
            code |= _apply_gates(
                session.loadgen.report, summary, args.max_p99, args.max_shed_rate, args.report
            )
        return code


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.http import run_loadgen_client
    from repro.serve.loadgen import parse_profile

    with _session(
        args.faults,
        args.telemetry,
        bundle_dir=args.debug_bundle,
        bundle_config=_args_config(args),
    ):
        arrivals = parse_profile(args.profile, args.duration, seed=args.seed)
        print(
            f"firing {len(arrivals)} arrivals over {args.duration:.0f}s "
            f"(speedup {args.speedup:g}x) at {args.url}"
        )
        report = asyncio.run(
            run_loadgen_client(
                args.url,
                arrivals,
                speedup=args.speedup,
                concurrency=args.concurrency,
            )
        )
        print(report.format_report())
        return 1 if report.offered and report.accepted == 0 else 0


def _add_session_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="inject a deterministic fault plan into every engine run, "
             "e.g. 'crash@300:n2:recover=600,stall@120' or "
             "'gen@0:seed=7:span=8640' (see docs/ROBUSTNESS.md)",
    )
    parser.add_argument(
        "--telemetry", metavar="PATH", default=None,
        help="record metrics/traces/timeline and write them to PATH "
             "(.jsonl = full dump, .csv = tick table; see "
             "docs/OBSERVABILITY.md)",
    )
    parser.add_argument(
        "--debug-bundle", metavar="DIR", default=None,
        help="export a reproducible debug bundle (telemetry dump, "
             "Prometheus snapshot, config, report, manifest) to DIR; "
             "implies telemetry recording.  Inspect with "
             "'repro.cli explain DIR'",
    )


def _add_serve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = pick a free port)"
    )
    parser.add_argument(
        "--clock", choices=("wall", "virtual"), default="wall",
        help="wall: one tick per dt/speedup real seconds; virtual: tick "
             "as fast as possible with zero sleeps to the end of "
             "--duration, or without one only when work is due (a /txn, "
             "a retry, the embedded schedule): idle virtual time does "
             "not pass",
    )
    parser.add_argument("--speedup", type=float, default=1.0,
                        help="wall-clock acceleration factor")
    parser.add_argument(
        "--duration", type=float, default=None,
        help="stop after this much engine time, seconds (default: forever)",
    )
    parser.add_argument(
        "--linger", type=float, default=0.0,
        help="keep admin endpoints alive this many real seconds after the "
             "run completes (POST /shutdown ends it early)",
    )
    parser.add_argument(
        "--profile", default=None,
        help="embedded open-loop load, e.g. 'poisson:rate=200' or "
             "'spike:rate=150,at=1800,magnitude=3' (requires --duration)",
    )
    parser.add_argument(
        "--tenants", metavar="SPEC_JSON", default=None,
        help="multi-tenant serving: load a tenant registry JSON spec, "
             "overlay every tenant's workload into one composite arrival "
             "stream and enforce per-tenant quotas, brownout priorities "
             "and SLO monitors (requires --duration; replaces --profile; "
             "HTTP clients attribute requests with an X-Tenant header; "
             "see docs/SERVING.md)",
    )
    parser.add_argument(
        "--timeseries", nargs="?", const="", default=None, metavar="PATH",
        help="sample every metric into a bounded ring-buffer store once "
             "per tick (backs GET /timeseries and /dashboard); with PATH, "
             "also dump the store as JSON at exit",
    )
    parser.add_argument(
        "--perf", action="store_true",
        help="record wall-clock perf spans (HTTP request, edge dispatch, "
             "engine tick, planner DP, SPAR fit, transport encode/decode) into "
             "/metrics repro_perf_* families and a stage report at exit; "
             "wall times never enter telemetry dumps or debug bundles",
    )
    parser.add_argument(
        "--cost-per-machine-hour", type=float, default=0.0, metavar="DOLLARS",
        help="report a $-cost estimate (machine-hours x this rate) in "
             "/healthz and the dashboard (0 hides it)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--nodes", type=int, default=1,
                        help="initial cluster size (of each worker shard)")
    parser.add_argument("--max-nodes", type=int, default=4)
    parser.add_argument("--slot-seconds", type=float, default=60.0,
                        help="measurement slot length")
    parser.add_argument("--interval-seconds", type=float, default=300.0,
                        help="planning interval (multiple of the slot)")
    parser.add_argument("--saturation", type=float, default=438.0,
                        help="per-node saturation rate, txn/s")
    parser.add_argument("--db-size-mb", type=float, default=1106.0)
    parser.add_argument("--queue-limit", type=float, default=10.0,
                        help="admission sheds above this per-node "
                             "queue-delay estimate, seconds")
    parser.add_argument(
        "--control", choices=("online", "reactive", "none"), default="online",
        help="online: cold-start reactive then predictive SPAR; "
             "reactive: E-Store-style; none: fixed allocation",
    )
    parser.add_argument(
        "--spar", default=None, metavar="SPEC",
        help="SPAR sizing, e.g. 'period=24,periods=2,recent=3,horizon=6' "
             "(defaults: one day per period at the planning interval)",
    )
    parser.add_argument("--refit-every", type=int, default=10080,
                        help="refit cadence in planning intervals")
    parser.add_argument(
        "--require-moves", type=int, default=0, metavar="N",
        help="exit 1 unless at least N reconfigurations completed",
    )
    parser.add_argument(
        "--no-http", action="store_true",
        help="skip the HTTP transport: run the deterministic virtual-"
             "clock session only (requires --duration)",
    )
    parser.add_argument(
        "--trace-requests", action="store_true",
        help="record a span tree per request (admission decision, queue "
             "estimate, concurrent migration) on the telemetry tracer",
    )
    parser.add_argument(
        "--slo", nargs="?", const="", default=None, metavar="SPEC",
        help="enable burn-rate SLO monitoring (a fleet's runs at the edge); SPEC e.g. "
             "'objective=0.999,latency=500,fast=300,slow=3600,burn=10' "
             "(bare --slo uses those defaults)",
    )
    parser.add_argument(
        "--resilience", nargs="?", const="", default=None, metavar="SPEC",
        help="enable failure detection (per-node circuit breakers) and "
             "brownout degradation; SPEC e.g. "
             "'miss=3,open=30,halfopen=2,brownout=0.5' (bare --resilience "
             "uses those defaults; brownout=0 disables brownout)",
    )
    parser.add_argument(
        "--retries", nargs="?", const="", default=None, metavar="SPEC",
        help="client-side retries with capped backoff + jitter and a "
             "retry budget; SPEC e.g. 'max=3,base=0.5,cap=8,budget=0.2,"
             "hedge=5,lowprio=0.1' (hedge enables tail-latency hedging, "
             "lowprio tags sheddable requests)",
    )
    parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="snapshot the serving state (engine or edge + every worker, control "
             "loop, loadgen cursor) to PATH on a cadence; quiescent tick boundaries only",
    )
    parser.add_argument(
        "--checkpoint-every", type=float, default=600.0, metavar="SECONDS",
        help="checkpoint cadence in engine seconds (default 600)",
    )
    parser.add_argument(
        "--restore", metavar="PATH", default=None,
        help="resume a run from a checkpoint written by --checkpoint, with "
             "or without HTTP; the resumed run is bit-identical to an "
             "uninterrupted one",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="serve through an edge over N worker shards, each its own "
             "engine (the flags marked [fleet] need it)",
    )
    parser.add_argument(
        "--transport", choices=("pipe", "tcp", "inproc"), default="pipe",
        help="[fleet] pipe: worker processes over multiprocessing pipes; "
             "tcp: localhost sockets; inproc: no process boundary (debugging)",
    )
    parser.add_argument(
        "--edge-queue-limit", type=float, default=None, metavar="SECONDS",
        help="[fleet] coarse edge admission against advertised worker "
             "queues (default: workers shed for themselves)",
    )
    parser.add_argument(
        "--low-priority", type=float, default=0.0, metavar="FRACTION",
        help="[fleet] fraction of requests minted low-priority (brownout-sheddable)",
    )
    parser.add_argument(
        "--max-p99", type=float, default=None, metavar="MS",
        help="gate: exit 1 unless requests are conserved exactly and p99 "
             "latency stays under this ceiling (0 = conservation only)",
    )
    parser.add_argument(
        "--max-shed-rate", type=float, default=None, metavar="FRACTION",
        help="gate: exit 1 unless requests are conserved exactly and the "
             "shed fraction stays under this ceiling",
    )
    parser.add_argument(
        "--report", metavar="PATH", default=None,
        help="apply the gates and write their verdict with the run "
             "summary as JSON (the soak-smoke CI artifact)",
    )
    _add_session_flags(parser)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="P-Store reproduction experiments"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list all experiments")

    run_parser = subparsers.add_parser("run", help="run experiments by id")
    run_parser.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run_parser.add_argument(
        "--fast", action="store_true",
        help="smaller workloads (same qualitative shapes)",
    )
    run_parser.add_argument(
        "--save", metavar="DIR", default=None,
        help="also write each report to DIR/<id>.txt",
    )
    run_parser.add_argument(
        "--workers", type=int, default=1,
        help="shard independent sweep cells across this many processes "
             "(experiments that support it; results identical to serial)",
    )
    _add_session_flags(run_parser)

    report_parser = subparsers.add_parser(
        "report", help="summarize an exported telemetry dump"
    )
    report_parser.add_argument("path", help="JSONL dump written by --telemetry")
    report_parser.add_argument(
        "--window", type=int, default=0,
        help="forecast samples per error window (0 = auto, <= 12 windows)",
    )

    explain_parser = subparsers.add_parser(
        "explain",
        help="explain a run's planner decisions, SLO alerts and shedding "
             "from a telemetry dump or --debug-bundle directory",
    )
    explain_parser.add_argument(
        "path", help="JSONL dump or debug-bundle directory"
    )
    explain_parser.add_argument(
        "--max-details", type=int, default=5,
        help="decision-detail blocks to render (most recent first)",
    )

    from repro.bench import add_arguments as add_bench_arguments

    bench_parser = subparsers.add_parser(
        "bench", help="time the hot kernels (see docs/PERFORMANCE.md)"
    )
    add_bench_arguments(bench_parser)
    _add_session_flags(bench_parser)

    _add_serve_flags(
        subparsers.add_parser(
            "serve",
            help="run the live serving layer: one engine, or with --workers "
                 "an edge over worker shards (see docs/SERVING.md)",
        )
    )
    top_parser = subparsers.add_parser(
        "top",
        help="live terminal view of a running server: status, breakers, "
             "per-tenant rates, SLO burn, perf stages (renders GET /view, "
             "the document /dashboard renders)",
    )
    top_parser.add_argument("--url", default="http://127.0.0.1:8080")
    top_parser.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (the CI smoke mode)",
    )
    top_parser.add_argument(
        "--interval", type=float, default=2.0,
        help="refresh cadence, real seconds (default 2)",
    )
    top_parser.add_argument(
        "--series", action="append", default=None, metavar="NAME",
        help="sparkline these time-series names (repeatable; default: "
             "the view's own pick, as on /dashboard)",
    )

    loadgen_parser = subparsers.add_parser(
        "loadgen", help="fire an open-loop load profile at a running server"
    )
    loadgen_parser.add_argument("--url", default="http://127.0.0.1:8080")
    loadgen_parser.add_argument("--profile", default="poisson:rate=100")
    loadgen_parser.add_argument("--duration", type=float, default=60.0)
    loadgen_parser.add_argument("--seed", type=int, default=0)
    loadgen_parser.add_argument("--speedup", type=float, default=1.0)
    loadgen_parser.add_argument("--concurrency", type=int, default=128)
    _add_session_flags(loadgen_parser)

    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "report":
            return _cmd_report(args.path, args.window)
        if args.command == "explain":
            return _cmd_explain(args.path, args.max_details)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "top":
            from repro.serve.top import run_top

            return run_top(
                args.url,
                once=args.once,
                interval_s=args.interval,
                spark_series=args.series,
            )
        if args.command == "loadgen":
            return _cmd_loadgen(args)
        return _cmd_run(
            args.ids, args.fast, args.save, args.faults, args.telemetry,
            args.debug_bundle, args.workers,
        )
    except ReproError as exc:
        # Operator mistakes (bad --faults token, malformed spec, broken
        # checkpoint) get one readable line and exit 2, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
