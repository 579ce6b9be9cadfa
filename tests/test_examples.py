"""Smoke tests: the quick example scripts must run cleanly end to end.

Only the fast examples run here (the capacity-simulation and engine-day
examples take a minute or more each; the benchmark suite covers their
underlying experiments at full scale).
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    process = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    return process.stdout


class TestQuickstart:
    def test_runs_and_reports(self):
        out = run_example("quickstart.py")
        assert "Optimal plan" in out
        assert "scale-out" in out
        assert "Migration schedule" in out
        # The plan is built on a smoothed forecast; the raw noisy load
        # may poke above max capacity for an interval or two at most.
        line = next(
            l for l in out.splitlines()
            if "Intervals with load above max effective capacity" in l
        )
        assert int(line.rsplit(":", 1)[1]) <= 3


class TestBenchmarkReplay:
    def test_runs_and_conserves_stock(self):
        out = run_example("benchmark_replay.py")
        assert "stock-conservation violations: 0" in out
        assert "lost: 0" in out
        assert "max/min = 1.0" in out


@pytest.mark.parametrize(
    "script", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.name
)
def test_example_imports_resolve(script):
    """The slow examples are never executed here, so a rename under
    ``repro`` could strand them: every ``from repro... import name`` /
    ``import repro...`` they contain must still resolve."""
    tree = ast.parse(script.read_text(encoding="utf-8"), filename=str(script))
    checked = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):  # then it must be a submodule
                    try:
                        importlib.import_module(f"{node.module}.{alias.name}")
                    except ImportError:
                        pytest.fail(
                            f"{script.name}:{node.lineno}: "
                            f"{node.module} has no {alias.name}"
                        )
                checked += 1
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
                    checked += 1
    assert checked, f"{script.name} imports nothing from repro"


class TestAllExamplesExist:
    def test_expected_scripts_present(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "b2w_retail_day.py",
            "black_friday_planning.py",
            "forecasting_workloads.py",
            "benchmark_replay.py",
            "composite_provisioning.py",
        } <= names
