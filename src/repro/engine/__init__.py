"""Simulated H-Store-like shared-nothing OLTP engine.

The substrate substitute for the paper's H-Store + Squall testbed (see
DESIGN.md): partitioned in-memory storage, single-partition transaction
execution, chunked live migration, and a queueing-based latency model
driven by a time-stepped simulator.
"""

from repro.engine.cluster import Cluster
from repro.engine.executor import Executor, ExecutorStats
from repro.engine.hashing import hash_key, key_to_bucket, murmur2
from repro.engine.migration import Migration, MigrationConfig, MigrationStep
from repro.engine.monitor import LoadMonitor
from repro.engine.node import Node
from repro.engine.partition import Partition, PartitionStats
from repro.engine.partitioning import (
    HashPartitioner,
    Partitioner,
    RangePartitioner,
)
from repro.engine.queueing import (
    LatencyComponents,
    fluid_queue_step,
    latency_components,
    mixture_mean,
    mixture_quantiles,
)
from repro.engine.simulator import (
    ElasticityController,
    EngineConfig,
    EngineSimulator,
    RunResult,
    SkewEvent,
)
from repro.engine.skew import (
    HotSpotRebalancer,
    RebalanceAction,
    SkewDetectorConfig,
)
from repro.engine.table import DatabaseSchema, TableSchema
from repro.engine.transaction import (
    Procedure,
    ProcedureRegistry,
    Transaction,
    TxnResult,
    TxnStatus,
)

__all__ = [
    "Cluster",
    "DatabaseSchema",
    "ElasticityController",
    "EngineConfig",
    "EngineSimulator",
    "Executor",
    "ExecutorStats",
    "HashPartitioner",
    "HotSpotRebalancer",
    "LatencyComponents",
    "Partitioner",
    "RangePartitioner",
    "RebalanceAction",
    "SkewDetectorConfig",
    "LoadMonitor",
    "Migration",
    "MigrationConfig",
    "MigrationStep",
    "Node",
    "Partition",
    "PartitionStats",
    "Procedure",
    "ProcedureRegistry",
    "RunResult",
    "SkewEvent",
    "TableSchema",
    "Transaction",
    "TxnResult",
    "TxnStatus",
    "fluid_queue_step",
    "hash_key",
    "key_to_bucket",
    "latency_components",
    "mixture_mean",
    "mixture_quantiles",
    "murmur2",
]
