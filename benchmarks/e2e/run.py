#!/usr/bin/env python3
"""Serving-path benchmark: four workloads, end-to-end and per-layer metrics.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N] [--seconds S]
                                  [--trace 0|1] [--quick] [--out FILE]
    python3 benchmarks/e2e/run.py --check-repeatability

Every round of a workload runs in a fresh child process (imports,
``lru_cache``d planner tables and peak RSS do not leak between rounds)
that owns one CPU; rounds repeat until their timed regions add up to
``--seconds``.  Wall times are taken from the rounds so that the host's
noise stays out (``_fold_replays``, ``_fold_windows``).  Each metric is
printed by name with its unit, the output checks run on every round,
and the last line of a workload is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any check fails.  ``--trace 1`` runs one untraced
reference round, then traced rounds, and reports the per-layer metrics
instead.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np
import spec

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")

#: One invocation must end within the driver's 180 s.  The clock starts
#: once, in ``main``: a round still running at the limit is killed, and no
#: round starts that could not finish before it.
_INVOCATION_LIMIT_S = 170.0


# ----------------------------------------------------------------------
# One round, inside the child process
# ----------------------------------------------------------------------
def _round_main(args: argparse.Namespace) -> int:
    sys.path.insert(0, SRC)
    # The round, and every worker or server it starts, shares one CPU: the
    # box has few cores and other tenants, so whatever needs two at once
    # times the scheduler.  The other CPUs are left to everything else.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from tracing import Tracer
    from workloads import WORKLOAD_FUNCTIONS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    result = WORKLOAD_FUNCTIONS[args.workload[0]](
        args.seed, args.quick, tracer, lambda: time.monotonic() - args.spawned_at
    )
    if tracer is not None and args.spans_out:
        tracer.dump(args.spans_out)
    print(json.dumps(result))
    return 0


def _launch_round(
    workload: str, seed: int, traced: bool, args: argparse.Namespace, deadline: float
) -> Dict:
    """Run one round in a fresh process group; reap the whole group if it fails."""
    command = [sys.executable, os.path.join(HERE, "run.py"), "--round", "--workload", workload]
    command += ["--seed", str(seed), "--trace", str(int(traced))]
    command += ["--spawned-at", repr(time.monotonic())]
    if args.quick:
        command.append("--quick")
    if traced and args.spans_out:
        command += ["--spans-out", args.spans_out]
    child = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, err = child.communicate(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired:
        out, err = "", f"round still running at the {_INVOCATION_LIMIT_S:.0f} s limit"
    finally:
        if child.returncode != 0:
            # Timed out, interrupted or crashed: the round may have left its
            # workers or the HTTP server behind; they share its process group.
            try:
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
    if child.returncode != 0 or not out.strip():
        tail = "\n".join(err.strip().splitlines()[-12:])
        raise RuntimeError(f"{workload} round failed (exit {child.returncode}):\n{tail}")
    return json.loads(out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# One workload: rounds, aggregation, checks
# ----------------------------------------------------------------------
def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _spread_text(values: List[float]) -> str:
    return f"rounds min/med/max {min(values):.6g}/{_median(values):.6g}/{max(values):.6g}"


def _fold_replays(rounds: List[Dict]) -> Dict[str, float]:
    """Wall-time metrics of a virtual-clock workload, with the host's noise filtered out.

    All rounds of a run replay the same seed, so virtual second ``i`` is the
    same work in each of them, and whatever else the host is doing can only
    add to its wall time.  Each virtual second is therefore timed by its
    fastest replay; no second is left out, so rare work (GC, a SPAR fit, a
    planner run) still counts.
    """
    fastest = np.min([one["unit_ms"] for one in rounds], axis=0)
    return {
        "req_per_s": rounds[0]["sent"] / (float(fastest.sum()) / 1000.0),
        "wall_p50_ms": float(np.percentile(fastest, 50.0)),
        "wall_p90_ms": float(np.percentile(fastest, 90.0)),
        "wall_p99_ms": float(np.percentile(fastest, 99.0)),
    }


def _fold_windows(rounds: List[Dict]) -> Dict[str, float]:
    """Wall-time metrics of the wall-clock workload: the median measurement window.

    No two rounds do the same thing at the same instant here, so each
    round's requests are cut into windows of ``spec.WINDOW_REQUESTS`` and the
    median window's rate, p50 and p90 are reported: a stall of the
    host spoils the windows it falls in, not the result.
    """
    rate, p50, p90 = np.array([w for one in rounds for w in one["windows"]]).T
    pooled = np.concatenate([one["unit_ms"] for one in rounds])
    return {
        "req_per_s": float(np.median(rate)),
        "wall_p50_ms": float(np.median(p50)),
        "wall_p90_ms": float(np.median(p90)),
        "wall_p99_ms": float(np.percentile(pooled, 99.0)),
    }


def run_workload(
    workload: str, seed: int, args: argparse.Namespace, deadline: float
) -> Dict[str, object]:
    """Run the rounds of one workload and fold them into one result."""
    trace = bool(args.trace)
    started = time.monotonic()
    reference = [_launch_round(workload, seed, False, args, deadline)] if trace else []
    rounds: List[Dict] = []
    longest = 0.0
    while True:  # at least one round, traced if asked, whatever the reference took
        began = time.monotonic()
        rounds.append(_launch_round(workload, seed, trace, args, deadline))
        longest = max(longest, time.monotonic() - began)
        if sum(one["timed_s"] for one in reference + rounds) >= args.seconds:
            break
        if time.monotonic() + 1.5 * longest > deadline:
            break

    every = reference + rounds
    checks: Dict[str, bool] = {}
    for one in every:
        for name, passed in one["checks"].items():
            checks[name] = checks.get(name, True) and bool(passed)
    if workload in spec.VIRTUAL:
        # Same seed, same inputs: only wall time may differ between rounds,
        # traced or not.
        checks["result_digest_repeats"] = len({one["digest"] for one in every}) == 1
        for field in ("sent", "ok", "shed", "failed", "sim_p99_ms", "machine_hours"):
            checks[f"{field}_repeats"] = len({one[field] for one in every}) == 1
        if trace:
            counts = [
                {k: v for k, v in one["layer"].items() if k.endswith("_calls")} for one in rounds
            ]
            checks["layer_calls_repeat"] = all(c == counts[0] for c in counts)

    attempted = sum(one["sent"] for one in every)
    failed = sum(one["failed"] for one in every)
    checks["no_failed_requests"] = failed == 0
    rates = [one["sent"] / one["timed_s"] for one in rounds]
    result: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "attempted": attempted,
        "sent": rounds[0]["sent"],
        "ok": rounds[0]["ok"],
        "shed": rounds[0]["shed"],
        "failed": failed,
        "digest": rounds[0]["digest"],
        "checks": checks,
        "correct": all(checks.values()),
    }

    units = {m["name"]: m["unit"] for m in spec.END_TO_END + spec.PER_LAYER}
    print(f"== {workload}  seed {seed}  trace {int(trace)}  rounds {len(rounds)}")
    if sum(one["timed_s"] for one in every) < args.seconds:
        print(f"  out of time: measured less than the {args.seconds:g} s asked for")
    if trace:
        values = {
            name: _median([one["layer"][name] for one in rounds]) for name in rounds[0]["layer"]
        }
        values["bench.trace_overhead_frac"] = (
            reference[0]["sent"] / reference[0]["timed_s"] / _median(rates) - 1.0
        )
        missing = sorted({name for one in rounds for name in one["missing"]})
        result["missing"] = missing
        for name, value in values.items():
            note = "  MISSING (wrapped name no longer exists)" if name in missing else ""
            print(f"  {name:<36} {value:>14.6g} {units[name]}{note}")
    else:
        if workload in spec.VIRTUAL:
            wall = _fold_replays(rounds)
            samples = f"{len(rounds[0]['unit_ms'])} virtual s, fastest of {len(rounds)} replays"
        else:
            wall = _fold_windows(rounds)
            windows = sum(len(one["windows"]) for one in rounds)
            samples = f"median of {windows} windows of {spec.WINDOW_REQUESTS} requests"
        wall_p99_ms = wall.pop("wall_p99_ms")
        values = {
            **wall,
            "setup_s": _median([one["setup_s"] for one in rounds]),
            "peak_rss_mb": _median([one["peak_rss_mb"] for one in rounds]),
            "served_frac": _median([one["ok"] / one["sent"] for one in rounds]),
            "sim_p99_ms": _median([one["sim_p99_ms"] for one in rounds]),
            "machine_hours": _median([one["machine_hours"] for one in rounds]),
        }
        notes = {
            "req_per_s": f"{samples}; raw {_spread_text(rates)}",
            "wall_p50_ms": samples,
            "wall_p90_ms": samples,
            "setup_s": _spread_text([one["setup_s"] for one in rounds]),
            "peak_rss_mb": _spread_text([one["peak_rss_mb"] for one in rounds]),
        }
        for name, value in values.items():
            print(f"  {name:<36} {value:>14.6g} {units[name]:<9} {notes.get(name, '')}")
        # The issue's names for two metrics the contract cannot gate (one reads
        # 0, one spreads wider than any allowed bound): printed, not in the result.
        for name, value, unit in (
            ("wall_p99_ms", wall_p99_ms, "ms"),
            ("failed_frac", 1.0 - float(values["served_frac"]), "frac"),
        ):
            print(f"  {name:<36} {value:>14.6g} {unit:<9} printed only, not gated")
    sent, ok, shed = result["sent"], result["ok"], result["shed"]
    print(f"  per round: sent {sent}  ok {ok}  shed {shed}  |  failed in total {failed}")
    if result["digest"]:
        print(f"  result_digest {result['digest']}")
    for name, passed in checks.items():
        if not passed:
            print(f"  CHECK FAILED: {name}")
    elapsed = time.monotonic() - started
    print(f"  checks: {sum(checks.values())}/{len(checks)} passed  |  run took {elapsed:.1f} s")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in values.items()
    }
    return result


# ----------------------------------------------------------------------
# Repeatability: what the driver does, twice
# ----------------------------------------------------------------------
def check_repeatability(workloads: List[str], args: argparse.Namespace) -> int:
    """Two sets of ten runs on ten seeds; compare spread and drift to the bounds."""
    seeds = [args.seed + offset for offset in range(spec.REPEATABILITY_RUNS)]
    sets: List[Dict[tuple, Dict[str, float]]] = []
    digests: List[Dict[tuple, str]] = []
    correct = True
    for _ in range(spec.REPEATABILITY_SETS):
        values: Dict[tuple, Dict[str, float]] = {}
        seen: Dict[tuple, str] = {}
        for seed in seeds:
            for workload in workloads:
                # Each run is what the driver would make in an invocation of its own.
                deadline = time.monotonic() + _INVOCATION_LIMIT_S
                result = run_workload(workload, seed, args, deadline)
                correct = correct and bool(result["correct"])
                values[workload, seed] = {k: v["value"] for k, v in result["metrics"].items()}
                seen[workload, seed] = str(result["digest"])
        sets.append(values)
        digests.append(seen)

    failures: List[str] = []
    header = f"{'workload':<20} {'metric':<14} set {'min':>10} {'q1':>10} {'median':>10}"
    print(header + f" {'q3':>10} {'max':>10} {'spread':>7} {'bound':>6}")
    for workload in workloads:
        for metric in spec.END_TO_END:
            name, bound = str(metric["name"]), float(metric["bound"])
            medians = []
            for index, values in enumerate(sets):
                column = [values[workload, seed][name] for seed in seeds]
                q1, q2, q3 = statistics.quantiles(column, n=4)
                spread = (q3 - q1) / q2
                medians.append(q2)
                verdict = ""
                if name != "setup_s" and spread > bound:
                    verdict = "FAIL spread > bound"
                    failures.append(f"{workload} {name}: spread {spread:.3f} > bound {bound}")
                elif name != "setup_s" and spread > bound / 3.0:
                    verdict = "wide (> bound/3)"
                print(
                    f"{workload:<20} {name:<14} {index + 1:>3} {min(column):>10.5g} {q1:>10.5g} "
                    f"{q2:>10.5g} {q3:>10.5g} {max(column):>10.5g} {spread:>7.4f} {bound:>6} "
                    f"{verdict}"
                )
            for later in medians[1:]:
                drift = (later - medians[0]) / medians[0]
                worse = -drift if metric["better"] == "higher" else drift
                if worse > bound:
                    failures.append(f"{workload} {name}: median drifted {worse:+.3f} > {bound}")
        if workload in spec.VIRTUAL:
            for later in digests[1:]:
                if any(later[workload, seed] != digests[0][workload, seed] for seed in seeds):
                    failures.append(f"{workload}: result_digest differs between sets")
    for line in failures:
        print("REPEATABILITY FAILED:", line)
    print("repeatability:", "FAIL" if failures or not correct else "ok")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seeds": seeds, "sets": [_keyed(values) for values in sets]}, handle)
    return 1 if failures or not correct else 0


def _keyed(values: Dict[tuple, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    return {f"{workload}/{seed}": metrics for (workload, seed), metrics in values.items()}


# ----------------------------------------------------------------------
def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    names = [str(w["name"]) for w in spec.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names, help="default: all four")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--quick", action="store_true", help="smoke-test sizes")
    parser.add_argument("--out", help="write the full results as JSON")
    parser.add_argument("--spans-out", help="with --trace 1: write the last round's spans as JSON")
    parser.add_argument("--check-repeatability", action="store_true")
    parser.add_argument("--manifest", action="store_true", help="print BENCHMARK.json and exit")
    parser.add_argument("--round", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.manifest:
        print(json.dumps(spec.manifest(), indent=2))
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the program under test is missing: no {SRC}/repro", file=sys.stderr)
        return 2
    if args.round:
        return _round_main(args)
    workloads = args.workload or [str(w["name"]) for w in spec.WORKLOADS]
    if args.check_repeatability:
        return check_repeatability(workloads, args)
    deadline = time.monotonic() + _INVOCATION_LIMIT_S
    results = []
    for workload in workloads:
        try:
            result = run_workload(workload, args.seed, args, deadline)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        results.append(result)
        keys = ("correct", "attempted", "failed", "metrics")
        print(json.dumps({key: result[key] for key in keys}), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(results, handle, indent=1)
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
