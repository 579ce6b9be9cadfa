"""Tests for the round-based migration scheduler (Section 4.4.1, Table 1)."""

import pytest

import repro.core.capacity as cap
from repro.core.params import SystemParameters
from repro.core.schedule import (
    MoveSchedule,
    Round,
    Transfer,
    build_move_schedule,
    naive_block_round_count,
)
from repro.errors import ConfigurationError


class TestTable1:
    """The paper's 3 -> 14 example."""

    @pytest.fixture
    def schedule(self) -> MoveSchedule:
        return build_move_schedule(3, 14)

    def test_eleven_rounds(self, schedule):
        assert schedule.num_rounds == 11

    def test_phase_structure(self, schedule):
        phases = [rnd.phase for rnd in schedule.rounds]
        assert phases == [1] * 6 + [2] * 2 + [3] * 3

    def test_naive_needs_twelve(self):
        assert naive_block_round_count(3, 14) == 12

    def test_first_round_matches_paper(self, schedule):
        # Table 1, phase 1 step 1 first round: 1->4, 2->5, 3->6 (1-based).
        first = {(t.sender, t.receiver) for t in schedule.rounds[0].transfers}
        assert first == {(0, 3), (1, 4), (2, 5)}

    def test_every_pair_exactly_once(self, schedule):
        pairs = [(t.sender, t.receiver) for rnd in schedule.rounds for t in rnd.transfers]
        assert len(pairs) == 3 * 11
        assert len(set(pairs)) == len(pairs)

    def test_allocation_curve(self, schedule):
        allocations = [rnd.machines_allocated for rnd in schedule.rounds]
        assert allocations == [6, 6, 6, 9, 9, 9, 12, 12, 14, 14, 14]

    def test_average_machines_matches_algorithm4(self, schedule):
        assert schedule.average_machines_allocated() == pytest.approx(
            cap.average_machines_allocated(3, 14)
        )

    def test_senders_fully_utilized(self, schedule):
        # Every round keeps all 3 senders busy (the point of phase 3).
        for rnd in schedule.rounds:
            assert len(rnd.transfers) == 3

    def test_as_table_mentions_phases(self, schedule):
        text = schedule.as_table()
        assert "Phase 1" in text and "Phase 3" in text
        assert "1 → 4" in text


class TestCases:
    def test_noop(self):
        schedule = build_move_schedule(5, 5)
        assert schedule.is_noop
        assert schedule.num_rounds == 0
        assert schedule.average_machines_allocated() == 5.0

    def test_case1_small_scale_out(self):
        # 3 -> 5: delta=2 <= 3 senders; 3 rounds of 2 parallel transfers.
        schedule = build_move_schedule(3, 5)
        assert schedule.num_rounds == 3
        for rnd in schedule.rounds:
            assert len(rnd.transfers) == 2
            assert rnd.machines_allocated == 5

    def test_case2_block_multiple(self):
        # 3 -> 9: delta=6=2x3 -> 6 rounds, blocks allocated just in time.
        schedule = build_move_schedule(3, 9)
        assert schedule.num_rounds == 6
        allocations = [rnd.machines_allocated for rnd in schedule.rounds]
        assert allocations == [6, 6, 6, 9, 9, 9]

    def test_single_machine_growth(self):
        schedule = build_move_schedule(1, 2)
        assert schedule.num_rounds == 1
        assert schedule.rounds[0].transfers == (Transfer(0, 1),)

    def test_scale_in_mirrors_scale_out(self):
        out = build_move_schedule(3, 14)
        into = build_move_schedule(14, 3)
        assert into.num_rounds == out.num_rounds
        # Allocation curve is the time reverse.
        assert [r.machines_allocated for r in into.rounds] == list(
            reversed([r.machines_allocated for r in out.rounds])
        )
        # Transfers are role-swapped: survivors receive from departing.
        for rnd in into.rounds:
            for transfer in rnd.transfers:
                assert transfer.receiver < 3
                assert 3 <= transfer.sender < 14

    def test_validation_passes_broad_grid(self):
        for before in range(1, 11):
            for after in range(1, 11):
                if before != after:
                    build_move_schedule(before, after).validate()

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            build_move_schedule(0, 3)
        with pytest.raises(ConfigurationError):
            build_move_schedule(3, 5, partitions_per_node=0)


class TestTiming:
    def test_total_matches_equation3(self, single_partition_params):
        for before, after in ((3, 5), (3, 9), (3, 14), (14, 3), (2, 7), (1, 2)):
            schedule = build_move_schedule(before, after, 1)
            assert schedule.total_seconds(single_partition_params) == pytest.approx(
                cap.move_time_seconds(before, after, single_partition_params)
            )

    def test_partitions_speed_up_rounds(self):
        p1 = SystemParameters(partitions_per_node=1)
        p6 = SystemParameters(partitions_per_node=6)
        s1 = build_move_schedule(3, 9, 1)
        s6 = build_move_schedule(3, 9, 6)
        assert s6.num_rounds == s1.num_rounds
        assert s6.total_seconds(p6) == pytest.approx(s1.total_seconds(p1) / 6)

    def test_fraction_completed_linear(self):
        schedule = build_move_schedule(3, 14)
        fractions = [
            schedule.fraction_completed_after(i) for i in range(schedule.num_rounds)
        ]
        assert fractions[0] == pytest.approx(1 / 11)
        assert fractions[-1] == pytest.approx(1.0)
        diffs = {round(b - a, 9) for a, b in zip(fractions, fractions[1:])}
        assert len(diffs) == 1  # equal data per round


class TestValidateCatchesCorruption:
    def test_duplicate_transfer_rejected(self):
        schedule = build_move_schedule(2, 4)
        first = schedule.rounds[0]
        schedule.rounds[0] = Round(
            first.index,
            first.transfers + (first.transfers[0],),
            first.machines_allocated,
            first.phase,
        )
        with pytest.raises(ConfigurationError):
            schedule.validate()

    def test_missing_round_rejected(self):
        schedule = build_move_schedule(2, 4)
        schedule.rounds = schedule.rounds[:-1]
        with pytest.raises(ConfigurationError):
            schedule.validate()

    def test_machine_used_twice_in_round_rejected(self):
        schedule = build_move_schedule(3, 5)
        first = schedule.rounds[0]
        bad = first.transfers[:1] + (
            Transfer(first.transfers[0].sender, first.transfers[1].receiver),
        ) + first.transfers[2:]
        schedule.rounds[0] = Round(0, bad, first.machines_allocated, first.phase)
        with pytest.raises(ConfigurationError):
            schedule.validate()

    def test_noop_with_rounds_rejected(self):
        schedule = MoveSchedule(3, 3)
        schedule.rounds = [Round(0, (Transfer(0, 1),), 3, 1)]
        with pytest.raises(ConfigurationError):
            schedule.validate()
