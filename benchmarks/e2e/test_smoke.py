"""Smoke test of the serving-path benchmark (not part of tier-1).

Run it explicitly: ``python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spec  # noqa: E402
import workloads  # noqa: E402

RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
WORKLOADS = [str(w["name"]) for w in spec.WORKLOADS]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _leftovers() -> list:
    """Round processes, workers or HTTP servers of this benchmark still running."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                words = handle.read().split(b"\0")
        except OSError:
            continue
        is_round = b"--round" in words and any(w.endswith(b"e2e/run.py") for w in words)
        is_server = b"repro.cli" in words and b"serve" in words and b"virtual" in words
        if is_round or is_server:
            found.append((pid, words))
    return found + multiprocessing.active_children()


def _results(stdout: str) -> dict:
    """The JSON result line of each workload, keyed by the header above it."""
    results, current = {}, None
    for line in stdout.splitlines():
        if line.startswith("== "):
            current = line.split()[1]
        elif line.startswith("{"):
            results[current] = json.loads(line)
    return results


def test_manifest_is_the_committed_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.manifest()


def test_names_and_limits():
    manifest = spec.manifest()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert set(spec.SPAN_METRICS) <= {m["name"] for m in spec.PER_LAYER}


def test_quick_run_is_fast_correct_and_reaps_its_children():
    started = time.monotonic()
    done = subprocess.run(RUN + ["--quick", "--seconds", "0.1"], capture_output=True, text=True)
    assert time.monotonic() - started < 20.0
    assert done.returncode == 0, done.stdout + done.stderr
    results = _results(done.stdout)
    assert list(results) == WORKLOADS
    expected = {m["name"]: m["unit"] for m in spec.END_TO_END}
    for result in results.values():
        assert set(result) == RESULT_KEYS
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert _leftovers() == []


def test_quick_traced_run_reports_every_layer_metric():
    done = subprocess.run(
        RUN + ["--quick", "--seconds", "0.1", "--trace", "1"], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "MISSING" not in done.stdout
    results = _results(done.stdout)
    expected = {m["name"]: m["unit"] for m in spec.PER_LAYER}
    for result in results.values():
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    steady = results["serve_steady"]["metrics"]
    assert steady["serve.engine.submit_calls"]["value"] == steady["serve.loadgen.arrivals"]["value"]
    assert steady["tenancy.quota_admit_calls"]["value"] == 0
    assert results["serve_tenants_spike"]["metrics"]["core.planner.best_moves_calls"]["value"] > 0
    assert results["fleet_pipe"]["metrics"]["serve.transport.bytes_per_req"]["value"] > 0
    assert results["http_closed"]["metrics"]["serve.http.ticks_per_req"]["value"] > 0
    assert _leftovers() == []


@pytest.mark.parametrize("workload", ["fleet_pipe", "http_closed"])
def test_a_failing_round_reaps_workers_and_server(workload):
    def fail_once_everything_is_up() -> float:
        raise RuntimeError("injected failure")

    with pytest.raises(RuntimeError, match="injected failure"):
        workloads.WORKLOAD_FUNCTIONS[workload](11, True, None, fail_once_everything_is_up)
    assert _leftovers() == []


def test_without_the_program_the_runner_fails_without_a_result(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "serve_steady", "--seconds", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
