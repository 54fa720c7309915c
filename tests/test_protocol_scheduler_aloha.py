"""Unit tests for the group scheduler and Aloha association extension."""

import pytest

from repro.errors import ProtocolError
from repro.protocol.aloha import (
    AlohaAssociation,
    expected_rounds_upper_bound,
)
from repro.protocol.scheduler import GroupScheduler


class TestGroupScheduler:
    def test_single_group_all_transmit(self):
        scheduler = GroupScheduler(max_group_size=8)
        for device_id in range(4):
            scheduler.add_device(device_id, snr_db=10.0)
        assert sorted(scheduler.next_round()) == [0, 1, 2, 3]

    def test_oversize_population_splits(self):
        scheduler = GroupScheduler(max_group_size=4)
        for device_id in range(10):
            scheduler.add_device(device_id, snr_db=10.0)
        assert scheduler.n_groups == 3

    def test_round_robin_covers_everyone(self):
        scheduler = GroupScheduler(max_group_size=4)
        for device_id in range(8):
            scheduler.add_device(device_id, snr_db=10.0)
        seen = set()
        for _ in range(scheduler.n_groups):
            seen.update(scheduler.next_round())
        assert seen == set(range(8))

    def test_snr_span_grouping(self):
        scheduler = GroupScheduler(max_group_size=16, group_span_db=20.0)
        scheduler.add_device(0, snr_db=0.0)
        scheduler.add_device(1, snr_db=50.0)
        assert scheduler.n_groups == 2
        assert scheduler.group_of(0) != scheduler.group_of(1)

    def test_duty_cycle_skips_rounds(self):
        scheduler = GroupScheduler(max_group_size=8)
        scheduler.add_device(0, snr_db=10.0, duty_cycle_rounds=2)
        first = scheduler.next_round()
        second = scheduler.next_round()
        third = scheduler.next_round()
        # Every-other-round duty cycle: exactly one of two consecutive
        # rounds includes the device.
        transmissions = [0 in r for r in (first, second, third)]
        assert transmissions.count(True) >= 1
        assert not all(transmissions)

    def test_remove_device(self):
        scheduler = GroupScheduler(max_group_size=8)
        scheduler.add_device(0, snr_db=10.0)
        scheduler.remove_device(0)
        assert scheduler.next_round() == []

    def test_duplicate_add_rejected(self):
        scheduler = GroupScheduler(max_group_size=8)
        scheduler.add_device(0, snr_db=10.0)
        with pytest.raises(ProtocolError):
            scheduler.add_device(0, snr_db=10.0)

    def test_unknown_remove_rejected(self):
        with pytest.raises(ProtocolError):
            GroupScheduler(max_group_size=8).remove_device(5)

    def test_invalid_params(self):
        with pytest.raises(ProtocolError):
            GroupScheduler(max_group_size=0)
        scheduler = GroupScheduler(max_group_size=4)
        with pytest.raises(ProtocolError):
            scheduler.add_device(0, snr_db=0.0, duty_cycle_rounds=0)
        # Misaligned ids/SNRs are rejected before the roster changes.
        with pytest.raises(ProtocolError, match="aligned"):
            scheduler.bulk_add([1, 2, 3], [-10.0, -20.0])
        assert scheduler.groups == []
        scheduler.bulk_add([1, 2, 3], [-10.0, -20.0, -30.0])
        assert scheduler.groups == [[1, 2, 3]]

    def test_empty_round(self):
        assert GroupScheduler(max_group_size=4).next_round() == []


class TestAloha:
    def test_single_device_immediate(self, rng):
        stats = AlohaAssociation(1, rng=rng).run()
        assert stats.n_succeeded == 1
        assert stats.completion_round() == 1

    def test_all_devices_eventually_join(self, rng):
        aloha = AlohaAssociation(20, rng=rng)
        stats = aloha.run(max_rounds=5000)
        assert stats.n_succeeded == 20
        assert aloha.n_pending == 0

    def test_collisions_happen_with_contention(self, rng):
        stats = AlohaAssociation(20, rng=rng).run(max_rounds=5000)
        assert stats.collisions > 0

    def test_completion_within_bound(self, rng):
        stats = AlohaAssociation(30, rng=rng).run(max_rounds=10000)
        assert stats.completion_round() < expected_rounds_upper_bound(30) * 5

    def test_backoff_window_grows(self, rng):
        from repro.protocol.aloha import BackoffState

        state = BackoffState()
        state.on_collision(64, rng)
        assert state.window == 2
        state.on_collision(64, rng)
        assert state.window == 4
        for _ in range(10):
            state.on_collision(64, rng)
        assert state.window == 64  # clamped

    def test_invalid_params(self, rng):
        with pytest.raises(ProtocolError):
            AlohaAssociation(0, rng=rng)
        with pytest.raises(ProtocolError):
            AlohaAssociation(5, max_window=1, rng=rng)
        with pytest.raises(ProtocolError):
            expected_rounds_upper_bound(0)
