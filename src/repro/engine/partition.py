"""A logical data partition: the unit of storage, execution and migration.

Each partition owns the rows of every table whose partitioning key hashes
into one of the partition's buckets.  Storage is organized
``table -> key -> row``; access statistics feed the uniformity analysis of
Section 8.1 and the monitoring subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.engine.table import DatabaseSchema, Row
from repro.errors import EngineError


@dataclass
class PartitionStats:
    """Running counters for one partition."""

    accesses: int = 0
    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.accesses = 0
        self.reads = 0
        self.writes = 0


class Partition:
    """In-memory storage for one partition.

    Attributes:
        partition_id: Globally unique id.
        node_id: The node currently hosting this partition.
        schema: Shared database schema (for row-size accounting).
    """

    def __init__(self, partition_id: int, node_id: int, schema: DatabaseSchema) -> None:
        self.partition_id = partition_id
        self.node_id = node_id
        self.schema = schema
        self._data: Dict[str, Dict[Any, Row]] = {name: {} for name in schema.names()}
        self.stats = PartitionStats()

    # ------------------------------------------------------------------
    # Row operations (all single-partition)
    # ------------------------------------------------------------------
    def get(self, table: str, key: Any) -> Optional[Row]:
        self.stats.accesses += 1
        self.stats.reads += 1
        return self._table(table).get(key)

    def put(self, table: str, key: Any, row: Row) -> None:
        self.stats.accesses += 1
        self.stats.writes += 1
        self._table(table)[key] = row

    def delete(self, table: str, key: Any) -> bool:
        self.stats.accesses += 1
        self.stats.writes += 1
        return self._table(table).pop(key, None) is not None

    def contains(self, table: str, key: Any) -> bool:
        return key in self._table(table)

    def _table(self, table: str) -> Dict[Any, Row]:
        try:
            return self._data[table]
        except KeyError:
            raise EngineError(
                f"unknown table {table!r} on partition {self.partition_id}"
            ) from None

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    def row_count(self, table: Optional[str] = None) -> int:
        if table is not None:
            return len(self._table(table))
        return sum(len(rows) for rows in self._data.values())

    def data_kb(self) -> float:
        """Estimated resident size, from per-table row footprints."""
        total = 0.0
        for name, rows in self._data.items():
            total += len(rows) * self.schema[name].row_kb
        return total

    # ------------------------------------------------------------------
    # Migration support
    # ------------------------------------------------------------------
    def extract_rows(self, table: str, keys: "list[Any]") -> Dict[Any, Row]:
        """Remove and return the given rows (sender side of a migration)."""
        store = self._table(table)
        out: Dict[Any, Row] = {}
        for key in keys:
            if key in store:
                out[key] = store.pop(key)
        return out

    def install_rows(self, table: str, rows: Dict[Any, Row]) -> None:
        """Install migrated rows (receiver side)."""
        self._table(table).update(rows)

    def all_keys(self, table: str) -> "list[Any]":
        return list(self._table(table).keys())
