"""repro.faults — deterministic fault injection for chaos experiments.

See :mod:`repro.faults.plan` for the fault model and
:mod:`repro.faults.injector` for the run-time cursor + stats ledger.
``docs/ROBUSTNESS.md`` documents recovery semantics end to end.
"""

from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import (
    FaultEvent,
    FaultPlan,
    MigrationStall,
    NodeCrash,
    NodeStraggler,
    TransferFailure,
    parse_fault_spec,
)
from repro.faults.runtime import fault_plan_session, new_default_injector

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "MigrationStall",
    "NodeCrash",
    "NodeStraggler",
    "TransferFailure",
    "fault_plan_session",
    "new_default_injector",
    "parse_fault_spec",
]
