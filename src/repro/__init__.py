"""repro — a reproduction of P-Store (predictive provisioning for elastic
shared-nothing OLTP databases).

Public API highlights:

* ``repro.core`` — the planner (Algorithms 1-3), migration model
  (Equations 2-7), move scheduler (Table 1), the Predictive Controller's
  policy and the reactive, day/night and manual-floor controllers.
* ``repro.prediction`` — SPAR and comparator forecasters.
* ``repro.workloads`` — B2W-like and Wikipedia-like trace generators.
* ``repro.engine`` — a simulated H-Store-like partitioned OLTP engine
  with Squall-like live migration.
* ``repro.b2w`` — the B2W retail benchmark (Figure 14 / Table 4).
* ``repro.simulation`` — the long-horizon capacity simulator of
  Section 8.3, which runs the engine's elasticity controllers.

Quickstart::

    from repro import Planner, SystemParameters, SPARPredictor
    from repro.workloads import generate_b2w_trace

    params = SystemParameters(interval_seconds=300)
    trace = generate_b2w_trace(num_days=7).resample(300)
    planner = Planner(params)
    plan = planner.best_moves(trace.per_second()[:13], initial_machines=4)
    print(plan.coalesced())
"""

from repro.core import (
    Move,
    MovePlan,
    MoveSchedule,
    PAPER_PARAMETERS,
    Planner,
    SystemParameters,
    build_move_schedule,
    effective_capacity,
)
from repro.errors import (
    ConfigurationError,
    EngineError,
    FaultInjectionError,
    InfeasiblePlanError,
    MigrationError,
    NodeFailedError,
    PredictionError,
    ReproError,
    TransactionAborted,
)
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultStats,
    MigrationStall,
    NodeCrash,
    NodeStraggler,
    TransferFailure,
    parse_fault_spec,
)
from repro.prediction import (
    ARMAPredictor,
    ARPredictor,
    OraclePredictor,
    SPARPredictor,
)
from repro.workloads import LoadTrace, generate_b2w_trace

__version__ = "1.0.0"

__all__ = [
    "ARMAPredictor",
    "ARPredictor",
    "ConfigurationError",
    "EngineError",
    "FaultInjectionError",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "InfeasiblePlanError",
    "LoadTrace",
    "MigrationError",
    "MigrationStall",
    "Move",
    "MovePlan",
    "MoveSchedule",
    "NodeCrash",
    "NodeFailedError",
    "NodeStraggler",
    "OraclePredictor",
    "PAPER_PARAMETERS",
    "Planner",
    "PredictionError",
    "ReproError",
    "SPARPredictor",
    "SystemParameters",
    "TransactionAborted",
    "TransferFailure",
    "build_move_schedule",
    "effective_capacity",
    "generate_b2w_trace",
    "parse_fault_spec",
    "__version__",
]
