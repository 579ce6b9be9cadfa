"""Standalone kernel benchmark runner: ``repro-bench`` / ``make bench``.

Times the same hot kernels as ``benchmarks/test_kernels.py`` without the
pytest-benchmark harness and writes one JSON baseline per day,
``BENCH_<date>.json``, holding the median wall time per kernel in
nanoseconds.  Committing the file gives later perf PRs a reference point
(see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.params import SystemParameters
from repro.core.planner import Planner
from repro.core.schedule import build_move_schedule
from repro.engine.queueing import (
    STEP_QUANTILES,
    LatencyComponents,
    mixture_quantiles_steps,
    sample_latencies,
)
from repro.engine.simulator import EngineConfig, EngineSimulator, SkewEvent
from repro.errors import ConfigurationError
from repro.parallel import parallel_map
from repro.prediction.spar import SPARPredictor
from repro.workloads.b2w import generate_b2w_trace
from repro.workloads.trace import LoadTrace

PARAMS = SystemParameters(interval_seconds=300.0, partitions_per_node=6)


def _bench_planner_best_moves() -> Callable[[], None]:
    planner = Planner(PARAMS, max_machines=12)
    rng = np.random.default_rng(0)
    load = (np.linspace(1.0, 8.0, 13) + rng.uniform(0, 0.2, 13)) * PARAMS.q
    return lambda: planner.best_moves(load, 2)


def _bench_spar_fit() -> Callable[[], None]:
    trace = generate_b2w_trace(28, slot_seconds=300.0, seed=5)
    model = SPARPredictor(period=288, n_periods=7, n_recent=12, max_horizon=12)
    return lambda: model.fit(trace.values)


def _bench_spar_predict() -> Callable[[], None]:
    trace = generate_b2w_trace(35, slot_seconds=300.0, seed=5)
    model = SPARPredictor(period=288, n_periods=7, n_recent=12, max_horizon=12)
    model.fit(trace.values[: 28 * 288])
    history = trace.values[: 30 * 288]
    return lambda: model.predict(history, 12)


def _bench_schedule_construction() -> Callable[[], None]:
    return lambda: build_move_schedule(3, 14, partitions_per_node=6)


def _bench_engine_1000_steps() -> Callable[[], None]:
    """1000 steps on a 10-node cluster, each step's p50/p95/p99 solved
    (``step`` itself solves nothing without telemetry)."""

    def run() -> None:
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=10)
        for _ in range(1000):
            sim.step(2000.0)
            sim.last_latency_components.summary

    return run


def _bench_engine_run_steady_hour() -> Callable[[], None]:
    """One simulated hour of steady load through :meth:`run` — exercises
    the steady-slot fast path end to end."""
    trace = LoadTrace(np.full(12, 2000.0 * 300.0), slot_seconds=300.0)

    def run() -> None:
        sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=10)
        sim.run(trace)

    return run


def _bench_engine_fleet_steps() -> Callable[[], None]:
    """Fleet-scale stepping: 1000 nodes x 10 partitions per node (10k
    partitions, 10k buckets), 1000 steps of a slowly varying offered
    load with a handful of standing hot spots.  Exercises the
    struct-of-arrays cluster state and the vectorized latency-mixture
    merge (each step's p50/p95/p99 solve pays it) at a scale where
    per-object bookkeeping would dominate."""
    config = EngineConfig(
        max_nodes=1000,
        partitions_per_node=10,
        num_buckets=10_000,
    )
    rates = 400_000.0 + 30_000.0 * np.sin(np.arange(1000) / 50.0)
    skew = [
        SkewEvent(0.0, 1e9, partition_index=(i * 197) % 10_000, factor=2.0)
        for i in range(50)
    ]

    def run() -> None:
        sim = EngineSimulator(config, initial_nodes=1000)
        sim.skew_events = list(skew)
        for rate in rates:
            sim.step(float(rate))
            sim.last_latency_components.summary

    return run


def _bench_latency_sampler() -> Callable[[], None]:
    """The tick's quantile solver: latency samples for 240 requests on
    two two-class mixtures, each fresh per call so the merge is timed
    too, then p50/p95/p99 for a 60-step batched slot whose 20 partitions
    form five classes.  The first mixture has two live classes; the
    second is a ``serve_steady`` tick's, one live class of weight 1 and
    the zero-weight class of the unallocated node, which the solver
    drops."""
    two_class = (np.array([0.6, 0.4]), np.array([0.012, 0.019]), np.array([80.0, 55.0]))
    one_live = (np.array([1.0, 0.0]), np.array([0.025, 0.025]), np.array([29.5, 50.0]))
    uniforms = np.random.default_rng(0).random(240)
    classes = np.arange(20) % 5
    weights = np.full(20, 1.0 / 20)
    tails = 40.0 + 10.0 * classes
    delays = 0.01 + 0.002 * classes + np.linspace(0.0, 0.05, 60)[:, None]

    def run() -> None:
        sample_latencies(LatencyComponents(*two_class), uniforms)
        sample_latencies(LatencyComponents(*one_live), uniforms)
        mixture_quantiles_steps(weights, delays, tails, STEP_QUANTILES)

    return run


def _shard_cell(seed: int) -> float:
    """One independent engine run for the parallel-shard kernel
    (module-level so :func:`repro.parallel.parallel_map` can pickle it)."""
    rng = np.random.default_rng(seed)
    trace = LoadTrace(rng.uniform(1200.0, 2200.0, size=6) * 300.0, slot_seconds=300.0)
    sim = EngineSimulator(EngineConfig(max_nodes=10), initial_nodes=10)
    result = sim.run(trace)
    return float(result.p99_ms.max())


def _bench_parallel_shard_runs() -> Callable[[], None]:
    """Eight independent engine runs sharded over two worker processes —
    times the repro.parallel dispatch+merge overhead end to end."""
    seeds = list(range(8))
    return lambda: parallel_map(_shard_cell, seeds, max_workers=2)


def _bench_serve_session() -> Callable[[], None]:
    """Five virtual-clock minutes of open-loop serving (loadgen
    throughput + admission p99): submit routing, latency sampling and
    per-tick bookkeeping are the hot path."""
    from repro.serve import ServerEngine, ServeSession, poisson_arrivals

    config = EngineConfig(max_nodes=4, saturation_rate_per_node=300.0)
    arrivals = poisson_arrivals(200.0, 300.0, seed=11)

    def run() -> None:
        engine = ServerEngine(engine_config=config, initial_nodes=2, seed=11)
        session = ServeSession(engine, arrivals)
        report = session.run(300.0)
        report.latency_percentile(99.0)

    return run


def _bench_serve_session_telemetry() -> Callable[[], None]:
    """The ``serve_session`` workload with the full observability stack
    on: telemetry registry, per-tick time-series sampling and wall-clock
    perf spans.  Paired with ``serve_session`` by the
    ``--overhead-gate`` to bound what instrumentation costs."""
    from repro.serve import ServerEngine, ServeSession, poisson_arrivals
    from repro.telemetry import Telemetry, TimeSeriesStore
    from repro.telemetry.perf import PerfRecorder, perf_session

    config = EngineConfig(max_nodes=4, saturation_rate_per_node=300.0)
    arrivals = poisson_arrivals(200.0, 300.0, seed=11)

    def run() -> None:
        engine = ServerEngine(
            engine_config=config, initial_nodes=2, seed=11,
            telemetry=Telemetry(),
        )
        with perf_session(PerfRecorder()):
            session = ServeSession(
                engine, arrivals, timeseries=TimeSeriesStore()
            )
            report = session.run(300.0)
        report.latency_percentile(99.0)

    return run


def _bench_tenant_session() -> Callable[[], None]:
    """Ten virtual minutes of three-tenant serving: composite arrival
    merge, per-tenant quota admission, labelled counters and per-tenant
    SLO classification on top of the single-tenant serve hot path."""
    from repro.serve import ServeSession, ServerEngine
    from repro.tenancy import (
        TenantAdmission,
        TenantRegistry,
        TenantSpec,
        composite_arrivals,
    )

    config = EngineConfig(max_nodes=4, saturation_rate_per_node=300.0)
    registry = TenantRegistry(
        tenants=[
            TenantSpec(name="checkout", profile="poisson:rate=90", weight=3),
            TenantSpec(name="search", profile="poisson:rate=70", weight=2),
            TenantSpec(
                name="batch", profile="poisson:rate=40", weight=1, quota_rps=30.0
            ),
        ]
    )
    arrivals, indices = composite_arrivals(registry, 600.0, seed=11)

    def run() -> None:
        engine = ServerEngine(
            engine_config=config,
            initial_nodes=2,
            seed=11,
            tenancy=TenantAdmission(registry),
        )
        session = ServeSession(
            engine, arrivals, tenant_indices=indices,
            tenant_names=registry.names(),
        )
        report = session.run(600.0)
        if not report.tenants_consistent():  # pragma: no cover - tenancy bug
            raise RuntimeError("per-tenant counters diverged from fleet totals")

    return run


KERNELS: Dict[str, Callable[[], Callable[[], None]]] = {
    "planner_best_moves": _bench_planner_best_moves,
    "spar_fit": _bench_spar_fit,
    "spar_predict": _bench_spar_predict,
    "schedule_construction": _bench_schedule_construction,
    "engine_1000_steps": _bench_engine_1000_steps,
    "engine_fleet_steps": _bench_engine_fleet_steps,
    "engine_run_steady_hour": _bench_engine_run_steady_hour,
    "latency_sampler": _bench_latency_sampler,
    "serve_session": _bench_serve_session,
    "serve_session_telemetry": _bench_serve_session_telemetry,
    "tenant_session": _bench_tenant_session,
    "parallel_shard_runs": _bench_parallel_shard_runs,
}

#: Samples per kernel.  Cheap kernels take more samples for a stable
#: median; the slow end-to-end ones take fewer so a full run stays
#: manageable.  Each kernel's actual count is recorded next to its
#: samples in the results JSON (the baseline used to claim one global
#: count that the slow kernels didn't honour).
KERNEL_REPEATS: Dict[str, int] = {
    "planner_best_moves": 9,
    "spar_fit": 9,
    "spar_predict": 9,
    "schedule_construction": 9,
    "engine_1000_steps": 9,
    "engine_fleet_steps": 5,
    "engine_run_steady_hour": 5,
    "latency_sampler": 9,
    "serve_session": 5,
    "serve_session_telemetry": 5,
    "tenant_session": 3,
    "parallel_shard_runs": 3,
}
_DEFAULT_REPEATS = 5


def time_kernel(fn: Callable[[], None], repeats: int) -> Tuple[int, List[int]]:
    """Median and raw samples of ``fn``'s wall time, in nanoseconds."""
    fn()  # warm-up: JIT-free, but fills caches (numpy, lru_cache)
    samples: List[int] = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        fn()
        samples.append(time.perf_counter_ns() - start)
    return int(statistics.median(samples)), samples


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The benchmark's flags, shared by ``repro-bench`` and ``repro bench``."""
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="samples per kernel (default: per-kernel counts, see "
             "KERNEL_REPEATS)",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=Path("."),
        help="directory for BENCH_<date>.json (default: current directory)",
    )
    parser.add_argument(
        "--only",
        action="append",
        choices=sorted(KERNELS),
        help="run only the named kernel (repeatable)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: one sample per kernel, no baseline file",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the results JSON to this exact path (also in --quick "
             "mode; CI uploads it as the bench-regression artifact)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="compare each kernel's median against this committed "
             "BENCH_*.json; exit 1 if any regresses beyond --tolerance",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="allowed slowdown factor vs the baseline median (default 1.5)",
    )
    parser.add_argument(
        "--overhead-gate",
        action="store_true",
        help="after timing, fail if serve_session_telemetry exceeds "
             "serve_session by more than --overhead-budget (noise-floored "
             "like the regression gate)",
    )
    parser.add_argument(
        "--overhead-budget",
        type=float,
        default=_OVERHEAD_BUDGET,
        help="allowed telemetry-on / telemetry-off median ratio "
             f"(default {_OVERHEAD_BUDGET:g}x; see docs/PERFORMANCE.md)",
    )
    parser.add_argument(
        "--trend",
        action="store_true",
        help="render the per-kernel median trend across committed "
             "BENCH_*.json files in --output-dir and exit (no timing run)",
    )
    parser.add_argument(
        "--profile",
        choices=sorted(KERNELS),
        default=None,
        metavar="KERNEL",
        help="profile one kernel with cProfile and print the hottest "
             "functions by cumulative time (no timing run, no baseline)",
    )
    parser.add_argument(
        "--profile-lines",
        type=int,
        default=25,
        help="rows of pstats output to print with --profile (default 25)",
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Time the hot kernels and write a BENCH_<date>.json baseline.",
    )
    add_arguments(parser)
    try:
        return run(parser.parse_args(argv))
    except ConfigurationError as exc:
        parser.error(str(exc))


def run(args: argparse.Namespace) -> int:
    """Run the benchmark for parsed :func:`add_arguments` flags."""
    if args.tolerance <= 0:
        raise ConfigurationError("--tolerance must be positive")
    if args.overhead_budget <= 1.0:
        raise ConfigurationError("--overhead-budget must be > 1.0")
    if args.trend:
        print(render_trend(args.output_dir))
        return 0
    if args.profile is not None:
        return profile_kernel(args.profile, args.profile_lines)

    kernels = KERNELS
    if args.only:
        kernels = {name: KERNELS[name] for name in args.only}
    if args.overhead_gate:
        for name in ("serve_session", "serve_session_telemetry"):
            if name not in kernels:
                kernels = dict(kernels)
                kernels[name] = KERNELS[name]

    results: Dict[str, Dict[str, object]] = {}
    for name, setup in kernels.items():
        if args.quick:
            repeats = 1
        elif args.repeats is not None:
            repeats = args.repeats
        else:
            repeats = KERNEL_REPEATS.get(name, _DEFAULT_REPEATS)
        median_ns, samples = time_kernel(setup(), repeats)
        results[name] = {
            "median_ns": median_ns,
            "samples_ns": samples,
            "repeats": repeats,
        }
        print(f"{name:30s} {median_ns / 1e6:10.3f} ms median  ({repeats} samples)")

    report = {
        "date": datetime.date.today().isoformat(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": results,
    }
    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    elif not args.quick:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        out_path = args.output_dir / f"BENCH_{report['date']}.json"
        out_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out_path}")

    exit_code = 0
    if args.compare is not None:
        exit_code = compare_to_baseline(results, args.compare, args.tolerance)
    if args.overhead_gate:
        exit_code = max(
            exit_code,
            check_telemetry_overhead(results, budget=args.overhead_budget),
        )
    return exit_code


def profile_kernel(name: str, lines: int = 25) -> int:
    """Run one kernel under cProfile and print the pstats top functions.

    One warm-up call runs outside the profile (matching
    :func:`time_kernel`), so one-time cache fills don't drown the
    steady-state hot path the timings actually measure.
    """
    import cProfile
    import io
    import pstats

    fn = KERNELS[name]()
    fn()  # warm-up, unprofiled
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(lines)
    print(f"profile: {name} (top {lines} by cumulative time)")
    print(stream.getvalue())
    return 0


def _baseline_repeats(entry: Dict[str, object], report: Dict[str, object]) -> int:
    """A baseline kernel's actual sample count.

    Prefers the per-kernel ``repeats`` field; old baselines only had a
    single top-level count that the slow kernels didn't honour, so for
    those the recorded samples are the ground truth.
    """
    if "repeats" in entry:
        return int(entry["repeats"])  # type: ignore[arg-type]
    samples = entry.get("samples_ns")
    if isinstance(samples, list) and samples:
        return len(samples)
    return int(report.get("repeats", 0))  # type: ignore[arg-type]


#: Absolute slowdown below which a ratio violation does not fail the
#: gate: sub-millisecond kernels jitter by more than 1.5x between
#: healthy runs, so the ratio alone would flake on them.
_NOISE_FLOOR_NS = 2_000_000


def compare_to_baseline(
    results: Dict[str, Dict[str, object]],
    baseline_path: Path,
    tolerance: float,
    noise_floor_ns: int = _NOISE_FLOOR_NS,
) -> int:
    """The CI bench-regression gate: fail on medians beyond tolerance.

    A kernel regresses only when its median exceeds the baseline by both
    the relative tolerance *and* the absolute noise floor — a 0.1 ms
    kernel doubling is scheduler noise, a 100 ms kernel doubling is a
    real regression.  Kernels present only on one side are reported but
    do not fail the gate (a new kernel has no baseline yet; a retired
    one has no measurement), so adding a kernel and its baseline can
    land in separate commits without breaking CI.  Sample counts come
    from each kernel's own ``repeats`` record, never a file-wide claim.
    """
    baseline = json.loads(Path(baseline_path).read_text())
    baseline_kernels: Dict[str, Dict[str, object]] = baseline.get("kernels", {})
    regressions: List[str] = []
    print(f"\nbaseline: {baseline_path} (tolerance {tolerance:g}x)")
    for name, result in results.items():
        base = baseline_kernels.get(name)
        if base is None:
            print(f"{name:30s} (no baseline entry; skipped)")
            continue
        base_ns = float(base["median_ns"])
        base_n = _baseline_repeats(base, baseline)
        measured_ns = float(result["median_ns"])  # type: ignore[arg-type]
        ratio = measured_ns / base_ns if base_ns > 0 else float("inf")
        over_ratio = ratio > tolerance
        over_floor = measured_ns - base_ns > noise_floor_ns
        if over_ratio and over_floor:
            verdict = "REGRESSION"
            regressions.append(name)
        elif over_ratio:
            verdict = "ok (within noise floor)"
        else:
            verdict = "ok"
        print(
            f"{name:30s} {measured_ns / 1e6:10.3f} ms vs "
            f"{base_ns / 1e6:10.3f} ms/{base_n}  ({ratio:5.2f}x)  {verdict}"
        )
    for name in sorted(set(baseline_kernels) - set(results)):
        print(f"{name:30s} (in baseline but not measured)")
    if regressions:
        print(f"bench regression in: {', '.join(regressions)}")
        return 1
    print("bench regression gate: all kernels within tolerance")
    return 0


#: Telemetry overhead budget: the fully instrumented serve session
#: (registry + per-tick time-series sampling + wall-clock perf spans)
#: may cost at most this factor over the bare one.  Violations only
#: fail when they also clear the absolute noise floor, mirroring the
#: regression gate (docs/PERFORMANCE.md documents the budget).
_OVERHEAD_BUDGET = 1.35


def check_telemetry_overhead(
    results: Dict[str, Dict[str, object]],
    budget: float = _OVERHEAD_BUDGET,
    noise_floor_ns: int = _NOISE_FLOOR_NS,
) -> int:
    """The telemetry-overhead CI gate over one results dict.

    Compares the ``serve_session_telemetry`` median against
    ``serve_session``; both kernels run the identical workload, so the
    whole difference is instrumentation cost.
    """
    try:
        base_ns = float(results["serve_session"]["median_ns"])  # type: ignore[arg-type]
        tel_ns = float(results["serve_session_telemetry"]["median_ns"])  # type: ignore[arg-type]
    except KeyError:
        print("overhead gate: needs serve_session and serve_session_telemetry")
        return 1
    ratio = tel_ns / base_ns if base_ns > 0 else float("inf")
    over_budget = ratio > budget and (tel_ns - base_ns) > noise_floor_ns
    print(
        f"\ntelemetry overhead: {tel_ns / 1e6:.3f} ms instrumented vs "
        f"{base_ns / 1e6:.3f} ms bare ({ratio:.2f}x, budget {budget:g}x)  "
        f"{'OVER BUDGET' if over_budget else 'ok'}"
    )
    return 1 if over_budget else 0


def render_trend(directory: Path, limit: int = 8) -> str:
    """Per-kernel median trend across committed ``BENCH_*.json`` files.

    Columns are the newest ``limit`` baselines in date order; the delta
    column compares the last two medians available for each kernel, with
    an arrow for direction (``+`` slower, ``-`` faster, ``=`` within 2%).
    """
    paths = sorted(Path(directory).glob("BENCH_*.json"))[-limit:]
    if not paths:
        return f"no BENCH_*.json baselines under {directory}"
    reports: List[Tuple[str, Dict[str, Dict[str, object]]]] = []
    for path in paths:
        data = json.loads(path.read_text())
        reports.append((str(data.get("date", path.stem)), data.get("kernels", {})))
    names: List[str] = []
    for _, kernels in reports:
        for name in kernels:
            if name not in names:
                names.append(name)
    lines = [
        f"{'kernel':30s}"
        + "".join(f"{date:>14s}" for date, _ in reports)
        + f"{'delta':>12s}"
    ]
    for name in names:
        medians: List[Optional[float]] = [
            float(kernels[name]["median_ns"]) / 1e6 if name in kernels else None  # type: ignore[arg-type]
            for _, kernels in reports
        ]
        cells = "".join(
            f"{median:14.3f}" if median is not None else f"{'-':>14s}"
            for median in medians
        )
        present = [m for m in medians if m is not None]
        if len(present) >= 2 and present[-2] > 0:
            change = (present[-1] - present[-2]) / present[-2]
            arrow = "=" if abs(change) <= 0.02 else ("+" if change > 0 else "-")
            delta = f"{change:+9.1%} {arrow}"
        else:
            delta = f"{'new':>11s}"
        lines.append(f"{name:30s}{cells}{delta:>12s}")
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
