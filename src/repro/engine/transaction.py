"""Transactions and stored procedures for the simulated engine.

H-Store executes transactions as pre-declared stored procedures routed to
a single partition by their partitioning key (the workloads P-Store
targets have few distributed transactions; the B2W benchmark has none).
A procedure body receives the owning :class:`Partition` plus its
parameters and runs to completion serially — the H-Store execution model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.engine.hashing import Key
from repro.engine.partition import Partition
from repro.errors import EngineError

ProcedureBody = Callable[[Partition, Dict[str, Any]], Any]


class TxnStatus(enum.Enum):
    """Outcome of a transaction execution."""

    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass(frozen=True)
class Procedure:
    """A named, single-partition stored procedure."""

    name: str
    body: ProcedureBody
    read_only: bool = False


@dataclass
class Transaction:
    """One invocation of a stored procedure.

    Attributes:
        procedure: Name of the registered procedure.
        key: Partitioning key that routes the transaction.
        params: Procedure parameters.
    """

    procedure: str
    key: Key
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TxnResult:
    """Result of executing a transaction."""

    status: TxnStatus
    value: Any = None
    abort_reason: str = ""
    partition_id: int = -1

    @property
    def committed(self) -> bool:
        return self.status is TxnStatus.COMMITTED


class ProcedureRegistry:
    """Registry of stored procedures, keyed by name."""

    def __init__(self) -> None:
        self._procedures: Dict[str, Procedure] = {}

    def register(self, procedure: Procedure) -> None:
        if procedure.name in self._procedures:
            raise EngineError(f"procedure {procedure.name!r} already registered")
        self._procedures[procedure.name] = procedure

    def get(self, name: str) -> Procedure:
        try:
            return self._procedures[name]
        except KeyError:
            raise EngineError(f"unknown procedure {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._procedures

    def names(self) -> "list[str]":
        return sorted(self._procedures)
