"""P-Store's core contribution: the predictive-elasticity algorithm.

* :mod:`repro.core.params` — empirical model parameters (Q, Q-hat, D, P).
* :mod:`repro.core.capacity` — the migration/capacity model (Eqs. 2-7,
  Algorithm 4).
* :mod:`repro.core.planner` — the dynamic-programming planner
  (Algorithms 1-3).
* :mod:`repro.core.schedule` — round-based migration schedules
  (Section 4.4.1, Table 1).
* :mod:`repro.core.partition_plan` — bucket-level partition plans.
* :mod:`repro.core.policy` — the Predictive Controller's decision rule
  (Section 6); the loop around it is
  :class:`repro.serve.control.OnlineControlLoop`.
* :mod:`repro.core.controller` — the reactive and Simple (day/night)
  baseline controllers and the manual-provisioning overlay.
"""

from repro.core.capacity import (
    average_machines_allocated,
    cluster_capacity,
    effective_capacity,
    fraction_of_database_moved,
    max_parallel_transfers,
    minimum_forecast_window_seconds,
    move_cost,
    move_time_intervals,
    move_time_seconds,
)
from repro.core.controller import (
    ControllerDecision,
    ManualOverrideController,
    ProvisioningWindow,
    ReactiveController,
    SimpleController,
    SPIKE_POLICY_BOOST,
    SPIKE_POLICY_NORMAL_RATE,
)
from repro.core.params import PAPER_PARAMETERS, SystemParameters
from repro.core.policy import Decision, PredictivePolicy
from repro.core.partition_plan import BucketTransfer, PartitionPlan, plan_move
from repro.core.planner import Move, MovePlan, Planner, plan_cost_lower_bound
from repro.core.schedule import MoveSchedule, Round, Transfer, build_move_schedule

__all__ = [
    "BucketTransfer",
    "ControllerDecision",
    "Decision",
    "ManualOverrideController",
    "Move",
    "PredictivePolicy",
    "ProvisioningWindow",
    "ReactiveController",
    "SimpleController",
    "SPIKE_POLICY_BOOST",
    "SPIKE_POLICY_NORMAL_RATE",
    "MovePlan",
    "MoveSchedule",
    "PAPER_PARAMETERS",
    "PartitionPlan",
    "Planner",
    "Round",
    "SystemParameters",
    "Transfer",
    "average_machines_allocated",
    "build_move_schedule",
    "cluster_capacity",
    "effective_capacity",
    "fraction_of_database_moved",
    "max_parallel_transfers",
    "minimum_forecast_window_seconds",
    "move_cost",
    "move_time_intervals",
    "move_time_seconds",
    "plan_cost_lower_bound",
    "plan_move",
]
