"""Public-API contract tests.

Pin the package's re-exports so downstream users' imports never break
silently, and verify every ``__all__`` entry actually resolves.
"""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.prediction",
    "repro.workloads",
    "repro.engine",
    "repro.b2w",
    "repro.strategies",
    "repro.simulation",
    "repro.metrics",
]


class TestAllResolvable:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_entries_exist(self, package):
        module = importlib.import_module(package)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package}.{name} missing"

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
        from repro.strategies import ManualOverrideStrategy, ProvisioningWindow

        assert HotSpotRebalancer and RangePartitioner
        assert OnlinePredictor and ManualOverrideStrategy and ProvisioningWindow

    def test_reason_codes_have_one_definition(self):
        from repro.serve import admission, edge, engine, loadgen

        assert admission.REASONS[admission.BROWNOUT] == "brownout"
        for module in (edge, engine, loadgen):
            assert module.REASONS is admission.REASONS
