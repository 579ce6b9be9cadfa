"""Public-API contract tests.

Pin the package's re-exports so downstream users' imports never break
silently, verify every ``__all__`` entry actually resolves, and keep
every public name under ``src/`` called by something other than a test.
"""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: Where callers live: everything that runs, except the tests.
CALLER_DIRS = ("src", "examples", "scripts", "benchmarks")
CALLER_FILES = ("Makefile", ".github/workflows/ci.yml")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Public names only tests call, each with the reason it stays.
KEEPERS = {
    "validate_edge_coloring": "the checker tests run bipartite_edge_coloring's output through",
    "plan_cost_lower_bound": "oracle of the planner property test",
    "machines_at": "how the planner scenario tests read a MovePlan's machine series",
    "coefficients": "docs/SYMBOLS.md maps the paper's a_k / b_j to it",
    "RangePartitioner": "the second partitioner through which tests drive Cluster's "
    "partitioner hook and the Section 8.1 hash-vs-range contrast",
}


def _public_definitions():
    """``{name: ["path:line", ...]}`` for every public top-level def or
    class and every public method of a top-level class under ``src/``."""
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        where = path.relative_to(ROOT)
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            members = [node]
            if isinstance(node, ast.ClassDef):
                members += [
                    item
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
            for member in members:
                if not member.name.startswith("_"):
                    found.setdefault(member.name, []).append(f"{where}:{member.lineno}")
    return found


def _skipped_strings(tree):
    """Docstrings and ``__all__`` entries: naming a function there is not
    calling it."""
    skipped = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr):
            skipped.add(id(body[0].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            skipped.update(id(n) for n in ast.walk(node.value))
    return skipped


def _referenced_names():
    """Every identifier the running code names: ``Name`` and ``Attribute``
    nodes, words of non-doc string constants (``TARGETS``-style
    ``module:attr`` specs), shell scripts, the Makefile and CI."""
    names = set()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text())
            skipped = _skipped_strings(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and id(node) not in skipped
                ):
                    names.update(_WORD.findall(node.value))
        for path in sorted((ROOT / top).rglob("*.sh")):
            names.update(_WORD.findall(path.read_text()))
    for rel in CALLER_FILES:
        names.update(_WORD.findall((ROOT / rel).read_text()))
    return names


def test_every_public_name_has_a_caller():
    referenced = _referenced_names()
    definitions = _public_definitions()
    orphans = {
        name: sites
        for name, sites in sorted(definitions.items())
        if name not in referenced and name not in KEEPERS
    }
    assert not orphans, (
        "public names only tests call (delete them, or add a reason to KEEPERS): "
        f"{orphans}"
    )
    stale = sorted(name for name in KEEPERS if name not in definitions or name in referenced)
    assert not stale, f"KEEPERS entries that are gone or now have a caller: {stale}"

#: Every package under ``src/repro``.
PACKAGES = sorted(
    ".".join(path.parent.relative_to(ROOT / "src").parts)
    for path in (ROOT / "src" / "repro").rglob("__init__.py")
)


class TestAllResolvable:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_exist(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            # An entry may name a submodule (``from repro.experiments import fig9``).
            assert hasattr(module, name) or importlib.util.find_spec(
                f"{package}.{name}"
            ), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_duplicate_exports(self, package):
        module = importlib.import_module(package)
        exported = list(getattr(module, "__all__", []))
        assert len(exported) == len(set(exported))


class TestHeadlineImports:
    def test_quickstart_surface(self):
        from repro import (
            LoadTrace,
            Planner,
            SPARPredictor,
            SystemParameters,
            build_move_schedule,
            generate_b2w_trace,
        )

        assert callable(build_move_schedule)
        assert callable(generate_b2w_trace)
        assert Planner and SPARPredictor and SystemParameters and LoadTrace

    def test_version_present(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_error_hierarchy(self):
        import repro

        for name in (
            "ConfigurationError",
            "InfeasiblePlanError",
            "PredictionError",
            "MigrationError",
            "EngineError",
            "TransactionAborted",
        ):
            error_cls = getattr(repro, name)
            assert issubclass(error_cls, repro.ReproError)

    def test_paper_constants_surface(self):
        from repro import PAPER_PARAMETERS

        assert PAPER_PARAMETERS.q == pytest.approx(284.7)
        assert PAPER_PARAMETERS.d_seconds == 4646.0

    def test_extension_surfaces(self):
        from repro.engine import HotSpotRebalancer, RangePartitioner
        from repro.prediction import OnlinePredictor
        from repro.core.controller import ManualOverrideController, ProvisioningWindow

        assert HotSpotRebalancer and RangePartitioner
        assert OnlinePredictor and ManualOverrideController and ProvisioningWindow

    def test_reason_codes_have_one_definition(self):
        from repro.serve import admission, edge, engine, loadgen

        assert admission.REASONS[admission.BROWNOUT] == "brownout"
        for module in (edge, engine, loadgen):
            assert module.REASONS is admission.REASONS
