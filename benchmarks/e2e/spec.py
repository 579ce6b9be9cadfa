"""Names, units, directions and bounds of the serving-path benchmark.

This table is the single source for ``BENCHMARK.json`` (``run.py
--manifest`` prints it) and for the runner's output, so a metric cannot
be printed under one name and gated under another.  ``BENCHMARK.json``
has a fixed schema, so what it cannot hold is recorded here and spelled
out in README.md: per workload the loop type and load, per metric its
definition, per layer metric its layer and ``moves`` - the prediction
written down *before* measuring: which end-to-end metric it should
move, on which workload (``"-"``: it only describes the benchmark).
"""

from __future__ import annotations

from typing import Dict, List

#: Seconds one driver run measures (sum of the rounds' timed regions):
#: four rounds of at least 5.3 s each on the box this was sized on.
RUN_SECONDS = 21
#: ``--check-repeatability`` follows the driver: ten seeds, twice.
REPEATABILITY_RUNS = 10
REPEATABILITY_SETS = 2
#: http_closed: consecutive requests per measurement window; the median window is reported.
WINDOW_REQUESTS = 250

VIRTUAL = ("serve_steady", "serve_tenants_spike", "fleet_pipe")

WORKLOADS: List[Dict[str, object]] = [
    {
        "name": "serve_steady",
        "why": "Scalar hot path only: loadgen scheduling, engine submit and tick; "
        "every request accepted. Bypasses tenancy, telemetry, control, transport and HTTP.",
        "loop": "open, virtual clock",
        "load": "Poisson 240 req/s x 1700 virtual s per round (~408k requests)",
    },
    {
        "name": "serve_tenants_spike",
        "why": "Production shape: 3 tenants, quota sheds inside submit, labelled counters, "
        "per-tenant SLO marks, per-tick time-series, SPAR refits and planner moves mid-run.",
        "loop": "open, virtual clock",
        "load": "checkout spike 120 req/s x3 + search 90 + batch 50 (quota 35) x 900 virtual s "
        "per round (~280k requests)",
    },
    {
        "name": "fleet_pipe",
        "why": "Edge plus 2 spawned workers over pipes in lock step: per-arrival routing, "
        "JSON encode/decode, outcome fold and the process boundary do most of the work.",
        "loop": "open, lock-step virtual ticks",
        "load": "Poisson 600 req/s x 230 virtual s per round (~138k requests)",
    },
    {
        "name": "http_closed",
        "why": "Only wall-clock, real-socket path: repro serve subprocess, closed loop of "
        "1 connection; accept, parse, submit, one tick, JSON reply, close. Engine work <2%.",
        "loop": "closed, 1 connection, wall clock",
        "load": "POST /txn, Connection: close; 0.5 s warm-up + 5.4 s measured per round",
    },
]

#: The driver refuses a benchmark whose spread (quartile distance / median
#: of ten runs on ten seeds) exceeds a bound, and 0.25 is the largest bound.
#: On the 2-core box this was written on, whose speed wanders by +-6 % over
#: minutes, the noise-filtered wall-time spreads are 6-12 %, with or without
#: noisy neighbours: the issue's 0.1 would be refused, hence 0.25.
#: The other bounds are at least three times the widest spread seen.
END_TO_END: List[Dict[str, object]] = [
    {
        "name": "req_per_s",
        "unit": "1/s",
        "better": "higher",
        "bound": 0.25,
        "what": "terminal requests / wall seconds of the timed region; virtual workloads: "
        "every virtual second timed by its fastest replay; http_closed: the median window",
    },
    {
        "name": "wall_p50_ms",
        "unit": "ms",
        "better": "lower",
        "bound": 0.25,
        "what": "http_closed: client wall latency connect -> last byte; virtual workloads: "
        "wall time to serve one virtual second, which is the timed region cut in pieces and "
        "so moves with req_per_s, not independently; fastest replays / median window",
    },
    {
        "name": "wall_p90_ms",
        "unit": "ms",
        "better": "lower",
        "bound": 0.25,
        "what": "same samples as wall_p50_ms, 90th percentile (p99 is printed, not gated: "
        "on a shared 2-core box it measures the host's stalls)",
    },
    {
        "name": "setup_s",
        "unit": "s",
        "better": "lower",
        "bound": 0.25,
        "what": "round process start -> first request can be sent (imports, arrivals, "
        "engine/fleet construction, worker spawn + hello, server boot); median of the rounds",
    },
    {
        "name": "peak_rss_mb",
        "unit": "MB",
        "better": "lower",
        "bound": 0.1,
        "what": "peak resident memory of the round process plus its workers / HTTP server",
    },
    {
        "name": "served_frac",
        "unit": "frac",
        "better": "higher",
        "bound": 0.01,
        "what": "requests answered 200 / requests sent (sheds, 500s and lost requests lower it)",
    },
    {
        "name": "sim_p99_ms",
        "unit": "ms",
        "better": "lower",
        "bound": 0.15,
        "what": "simulated p99 latency of the served requests, the paper's SLA axis",
    },
    {
        "name": "machine_hours",
        "unit": "machine-h",
        "better": "lower",
        "bound": 0.05,
        "what": "machine-hours of the timed region, the paper's cost axis: ServerEngine."
        "machine_hours on the virtual clock; on http_closed machines x wall hours",
    },
]


def _layer(name: str, unit: str, better: str, layer: str, moves: str) -> Dict[str, str]:
    return {"name": name, "unit": unit, "better": better, "layer": layer, "moves": moves}


_HOT = "req_per_s on serve_steady (diluted on serve_tenants_spike, fleet_pipe; none on http_closed)"
_TEN = "req_per_s on serve_tenants_spike (zero calls on serve_steady)"
_FLEET = "req_per_s on fleet_pipe only"
_HTTP = "wall_p50_ms, wall_p90_ms, req_per_s on http_closed only"

PER_LAYER: List[Dict[str, str]] = [
    _layer("serve.loadgen.arrivals", "count", "higher", "serve.loadgen", _HOT),
    _layer("serve.session.self_s", "s", "lower", "serve.session", _HOT),
    _layer("serve.loadgen.fold_calls", "count", "lower", "serve.loadgen", _HOT),
    _layer("serve.loadgen.fold_s", "s", "lower", "serve.loadgen", _HOT),
    _layer("serve.engine.submit_calls", "count", "lower", "serve.engine", _HOT),
    _layer("serve.engine.submit_self_s", "s", "lower", "serve.engine", _HOT),
    _layer("serve.engine.tick_calls", "count", "lower", "serve.engine", _HOT),
    _layer("serve.engine.tick_self_s", "s", "lower", "serve.engine", _HOT),
    _layer("serve.engine.shed_frac", "frac", "lower", "serve.engine", _HOT),
    _layer("serve.admission.decide_calls", "count", "lower", "serve.admission", _HOT),
    _layer("serve.admission.decide_s", "s", "lower", "serve.admission", _HOT),
    _layer("engine.simulator.step_calls", "count", "lower", "engine.simulator", _HOT),
    _layer("engine.simulator.step_s", "s", "lower", "engine.simulator", _HOT),
    _layer("tenancy.quota_admit_calls", "count", "lower", "tenancy", _TEN),
    _layer("tenancy.quota_admit_s", "s", "lower", "tenancy", _TEN),
    _layer("tenancy.quota_shed", "count", "lower", "tenancy", "served_frac on serve_tenants_spike"),
    _layer("telemetry.slo_calls", "count", "lower", "telemetry.slo", _TEN),
    _layer("telemetry.slo_s", "s", "lower", "telemetry.slo", _TEN),
    _layer("telemetry.metric_lookup_calls", "count", "lower", "telemetry", _TEN),
    _layer("telemetry.metric_lookup_s", "s", "lower", "telemetry", _TEN),
    _layer("telemetry.timeseries_sample_calls", "count", "lower", "telemetry.timeseries", _TEN),
    _layer("telemetry.timeseries_sample_s", "s", "lower", "telemetry.timeseries", _TEN),
    _layer("serve.control.on_slot_calls", "count", "lower", "serve.control", _TEN),
    _layer("serve.control.on_slot_self_s", "s", "lower", "serve.control", _TEN),
    _layer("core.planner.best_moves_calls", "count", "lower", "core.planner", _TEN),
    _layer("core.planner.best_moves_s", "s", "lower", "core.planner", _TEN),
    _layer("prediction.spar.fit_calls", "count", "lower", "prediction.spar", _TEN),
    _layer("prediction.spar.fit_s", "s", "lower", "prediction.spar", _TEN),
    _layer("prediction.spar.predict_calls", "count", "lower", "prediction.spar", _TEN),
    _layer("prediction.spar.predict_s", "s", "lower", "prediction.spar", _TEN),
    _layer(
        "serve.control.moves_completed",
        "count",
        "higher",
        "serve.control",
        "machine_hours, sim_p99_ms on serve_tenants_spike",
    ),
    _layer("serve.edge.tick_calls", "count", "lower", "serve.edge", _FLEET),
    _layer("serve.edge.self_s", "s", "lower", "serve.edge", _FLEET),
    _layer("serve.edge.cpu_s", "s", "lower", "serve.edge", _FLEET),
    _layer("serve.worker.post_s", "s", "lower", "serve.worker", _FLEET),
    _layer("serve.worker.collect_wait_s", "s", "lower", "serve.worker", _FLEET),
    _layer("serve.worker.cpu_s", "s", "lower", "serve.worker", _FLEET),
    _layer("serve.worker.spawn_s", "s", "lower", "serve.worker", "setup_s on fleet_pipe"),
    _layer("serve.transport.encode_calls", "count", "lower", "serve.transport", _FLEET),
    _layer("serve.transport.encode_s", "s", "lower", "serve.transport", _FLEET),
    _layer("serve.transport.decode_s", "s", "lower", "serve.transport", _FLEET),
    _layer("serve.transport.bytes_out", "B", "lower", "serve.transport", _FLEET),
    _layer("serve.transport.bytes_in", "B", "lower", "serve.transport", _FLEET),
    _layer("serve.transport.bytes_per_req", "B", "lower", "serve.transport", _FLEET),
    _layer("serve.http.connect_ms_p50", "ms", "lower", "serve.http", _HTTP),
    _layer("serve.http.ttfb_ms_p50", "ms", "lower", "serve.http", _HTTP),
    _layer("serve.http.read_close_ms_p50", "ms", "lower", "serve.http", _HTTP),
    _layer("serve.http.server_cpu_ms_per_req", "ms", "lower", "serve.http", _HTTP),
    _layer("serve.http.client_cpu_ms_per_req", "ms", "lower", "serve.http", "-"),
    _layer("serve.http.ticks_per_req", "count", "lower", "serve.http", _HTTP),
    _layer("bench.trace_overhead_frac", "frac", "lower", "bench", "-"),
    _layer("bench.unaccounted_frac", "frac", "lower", "bench", "-"),
]

#: Span name and field behind each span-derived layer metric.  ``calls``
#: counts every wrapped call, nested ones included; ``incl_s`` is the
#: time inside the outermost span of that name; ``self_s`` subtracts
#: what child spans cover.
SPAN_METRICS: Dict[str, tuple] = {
    "serve.session.self_s": ("serve.session.run", "self_s"),
    "serve.loadgen.fold_calls": ("serve.loadgen.fold", "calls"),
    "serve.loadgen.fold_s": ("serve.loadgen.fold", "incl_s"),
    "serve.engine.submit_calls": ("serve.engine.submit", "calls"),
    "serve.engine.submit_self_s": ("serve.engine.submit", "self_s"),
    "serve.engine.tick_calls": ("serve.engine.tick", "calls"),
    "serve.engine.tick_self_s": ("serve.engine.tick", "self_s"),
    "serve.admission.decide_calls": ("serve.admission.decide", "calls"),
    "serve.admission.decide_s": ("serve.admission.decide", "incl_s"),
    "engine.simulator.step_calls": ("engine.simulator.step", "calls"),
    "engine.simulator.step_s": ("engine.simulator.step", "incl_s"),
    "tenancy.quota_admit_calls": ("tenancy.quota_admit", "calls"),
    "tenancy.quota_admit_s": ("tenancy.quota_admit", "incl_s"),
    "telemetry.slo_calls": ("telemetry.slo", "calls"),
    "telemetry.slo_s": ("telemetry.slo", "incl_s"),
    "telemetry.metric_lookup_calls": ("telemetry.metric_lookup", "calls"),
    "telemetry.metric_lookup_s": ("telemetry.metric_lookup", "incl_s"),
    "telemetry.timeseries_sample_calls": ("telemetry.timeseries_sample", "calls"),
    "telemetry.timeseries_sample_s": ("telemetry.timeseries_sample", "incl_s"),
    "serve.control.on_slot_calls": ("serve.control.on_slot", "calls"),
    "serve.control.on_slot_self_s": ("serve.control.on_slot", "self_s"),
    "core.planner.best_moves_calls": ("core.planner.best_moves", "calls"),
    "core.planner.best_moves_s": ("core.planner.best_moves", "incl_s"),
    "prediction.spar.fit_calls": ("prediction.spar.fit", "calls"),
    "prediction.spar.fit_s": ("prediction.spar.fit", "incl_s"),
    "prediction.spar.predict_calls": ("prediction.spar.predict", "calls"),
    "prediction.spar.predict_s": ("prediction.spar.predict", "incl_s"),
    "serve.edge.self_s": ("serve.edge.run", "self_s"),
    "serve.worker.post_s": ("serve.worker.post", "incl_s"),
    "serve.worker.collect_wait_s": ("serve.worker.collect", "self_s"),
    "serve.transport.encode_calls": ("serve.transport.encode", "calls"),
    "serve.transport.encode_s": ("serve.transport.encode", "incl_s"),
    "serve.transport.decode_s": ("serve.transport.decode", "incl_s"),
}

#: Layers serve_steady must not enter: their span metrics read zero there.
BYPASSED_ON_STEADY = (
    "tenancy.",
    "telemetry.",
    "serve.control.",
    "core.planner.",
    "prediction.spar.",
    "serve.edge.",
    "serve.worker.",
    "serve.transport.",
)


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w["name"], "why": w["why"]} for w in WORKLOADS],
        "end_to_end": [
            {key: m[key] for key in ("name", "unit", "better", "bound")} for m in END_TO_END
        ],
        "per_layer": [{key: m[key] for key in ("name", "unit", "better")} for m in PER_LAYER],
    }
