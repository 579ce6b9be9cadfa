"""Migration under injected faults: retry backoff, permanent failure,
stalls, and the conservation property — no fault schedule may lose data
(docs/ROBUSTNESS.md)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.cluster import Cluster
from repro.engine.migration import Migration, MigrationConfig
from repro.engine.table import DatabaseSchema, TableSchema
from repro.errors import MigrationError

DB_KB = 1106.0 * 1024.0
sizes = st.integers(min_value=1, max_value=10)


def make_cluster(initial: int) -> Cluster:
    schema = DatabaseSchema().add(TableSchema(name="T", key_column="k"))
    return Cluster(
        schema, initial_nodes=initial, partitions_per_node=2,
        num_buckets=120, max_nodes=12,
    )


def data_kb(cluster: Cluster) -> float:
    return sum(node.data_kb() for node in cluster.nodes)


def fill(cluster: Cluster, rows: int) -> None:
    for i in range(rows):
        key = f"row-{i}"
        cluster.route(key).put("T", key, {"k": key})


# ----------------------------------------------------------------------
# Retry with capped exponential backoff
# ----------------------------------------------------------------------

def test_retry_delays_increase_exponentially():
    cluster = make_cluster(2)
    config = MigrationConfig(max_retries=3, backoff_base_s=2.0, backoff_cap_s=30.0)
    migration = Migration(cluster, 4, DB_KB, config)

    delays = [migration.inject_transfer_failure() for _ in range(3)]
    assert delays == [2.0, 4.0, 8.0]
    assert delays == sorted(delays)
    assert delays == [config.retry_delay_s(i) for i in (1, 2, 3)]
    assert migration._pause_remaining > 0
    assert migration.retries == 3 and migration.chunk_failures == 3


def test_backoff_is_capped():
    config = MigrationConfig(max_retries=10, backoff_base_s=2.0, backoff_cap_s=10.0)
    assert config.retry_delay_s(1) == 2.0
    assert config.retry_delay_s(3) == 8.0
    assert config.retry_delay_s(4) == 10.0   # would be 16 uncapped
    assert config.retry_delay_s(9) == 10.0


def test_max_retries_exhaustion_fails_permanently():
    cluster = make_cluster(2)
    config = MigrationConfig(max_retries=3)
    migration = Migration(cluster, 4, DB_KB, config)
    for _ in range(3):
        migration.inject_transfer_failure()
    with pytest.raises(MigrationError):
        migration.inject_transfer_failure()
    assert migration.failed_permanently
    assert migration.chunk_failures == 4


def test_failure_streak_resets_once_backoff_drains():
    cluster = make_cluster(2)
    config = MigrationConfig(max_retries=1, backoff_base_s=2.0, backoff_cap_s=30.0)
    migration = Migration(cluster, 4, DB_KB, config)
    assert migration.inject_transfer_failure() == 2.0
    migration.step(5.0)  # drains the backoff; the retried chunk lands
    assert migration._pause_remaining == 0
    # A later, unrelated failure starts a fresh streak at the base delay.
    assert migration.inject_transfer_failure() == 2.0


def test_stall_pauses_progress_then_reenqueues():
    cluster = make_cluster(2)
    migration = Migration(cluster, 4, DB_KB)
    migration.step(1.0)
    frac = migration.fraction_completed
    migration.inject_stall(50.0)
    assert migration._pause_remaining > 0 and migration.stalls == 1
    step = migration.step(50.0)
    # The whole step was eaten by the stall window: zero progress and no
    # chunk pauses hit the partitions while transfers are suspended.
    assert migration.fraction_completed == pytest.approx(frac)
    assert not step.blocked
    assert migration.take_recovered_stalls() == 1
    assert migration.take_recovered_stalls() == 0  # consumed
    assert migration._pause_remaining == 0
    while not migration.completed:
        migration.step(1e6)
    assert cluster.num_active_nodes == 4


def test_dead_round_endpoint_raises_migration_error():
    """A transfer whose endpoint crashed surfaces MigrationError — never
    a KeyError or bare assert — so the control loop can abort cleanly."""
    cluster = make_cluster(3)
    migration = Migration(cluster, 5, DB_KB)
    cluster.fail_node(migration._phys[0])  # an active sender of round 0
    with pytest.raises(MigrationError):
        migration.step(1.0)


def test_deallocated_receiver_raises_migration_error():
    cluster = make_cluster(2)
    migration = Migration(cluster, 3, DB_KB)
    # Deactivate the just-allocated receiver behind the migration's back.
    cluster.set_active(migration._phys[2], False)
    with pytest.raises(MigrationError):
        while not migration.completed:
            migration.step(1e6)


# ----------------------------------------------------------------------
# Conservation property: no fault schedule loses data
# ----------------------------------------------------------------------

fault_schedule = st.lists(
    st.tuples(st.integers(0, 30), st.sampled_from(["fail", "stall"])),
    max_size=8,
)


@given(before=sizes, after=sizes, rows=st.integers(10, 80),
       schedule=fault_schedule)
@settings(max_examples=30, deadline=None)
def test_migrated_data_conserved_under_any_fault_schedule(
    before, after, rows, schedule
):
    """Total rows and data kB are conserved across any injected
    failure/stall schedule, and the migration still terminates with the
    target allocation and balanced plan."""
    if before == after:
        return
    cluster = make_cluster(before)
    fill(cluster, rows)
    total_kb = data_kb(cluster)
    # Generous retry budget: this property is about conservation, not
    # about permanent failure (tested separately).
    config = MigrationConfig(
        max_retries=1000, backoff_base_s=0.25, backoff_cap_s=1.0
    )
    migration = Migration(cluster, after, DB_KB, config)
    due = sorted(schedule)
    dt = max(migration.round_seconds / 3.0, 1.0)

    steps = 0
    while not migration.completed:
        while due and due[0][0] <= steps:
            _, kind = due.pop(0)
            if kind == "fail":
                migration.inject_transfer_failure()
            else:
                migration.inject_stall(0.5)
            assert cluster.total_rows() == rows
        migration.step(dt)
        steps += 1
        assert steps < 10_000

    assert cluster.total_rows() == rows
    assert data_kb(cluster) == pytest.approx(total_kb)
    assert cluster.num_active_nodes == after
    for i in range(rows):
        key = f"row-{i}"
        assert cluster.route(key).get("T", key) == {"k": key}
    assert sum(cluster.data_fractions().values()) == pytest.approx(1.0)
