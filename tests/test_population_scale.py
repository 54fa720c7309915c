"""Population-scale equivalence suite.

Pins the tentpole invariants of the flat-array population layer:

* the flat (struct-of-arrays) :class:`AllocationTable`,
  :class:`AssociationController` and :class:`GroupScheduler` make
  *bit-identical* decisions to the per-device-object reference
  implementations in ``tests/oracles/object_protocol.py``, across
  spreading factors and device counts up to 256, over randomised
  add / SNR-update / remove / bulk operation sequences;
* the hybrid fidelity split is a seeded pure function (same population
  + same seed -> same routing, same metrics) and its closed-form legs
  stay within a statistical-equivalence gate of the all-Monte-Carlo
  reference at 10^4 devices;
* the per-config slot geometry (``_data_slots`` / ``association_shifts``
  / ``spread_slot_indices``) is cached, not recomputed per call;
* :func:`office_population`'s vectorised link law matches the scalar
  :class:`LinkBudget` arithmetic elementwise.
"""

import numpy as np
import pytest

from oracles.object_protocol import (
    ObjectAllocationTable,
    ObjectAssociationController,
    ObjectGroupScheduler,
)
from repro.channel.deployment import Deployment
from repro.channel.link import LinkBudget
from repro.core.allocation import (
    AllocationTable,
    _data_slots,
    association_shifts,
    power_aware_allocation,
)
from repro.core.config import NetScatterConfig
from repro.errors import AllocationError, AssociationError, ProtocolError
from repro.protocol.ap import AccessPoint
from repro.protocol.association import AssociationController
from repro.protocol.population import (
    FidelityRule,
    Population,
    hybrid_population_round,
    office_population,
    spread_slot_indices,
    split_fidelity,
    assign_cluster,
)
from repro.protocol.scheduler import GroupScheduler

SPREADING_FACTORS = (7, 9, 12)
DEVICE_COUNTS = (1, 2, 3, 17, 64, 256)


def _config(sf: int) -> NetScatterConfig:
    return NetScatterConfig(spreading_factor=sf, n_association_shifts=0)


def _assoc_config(sf: int) -> NetScatterConfig:
    return NetScatterConfig(spreading_factor=sf)


def _table_state(table: AllocationTable):
    return (table.assignments(), table.reassignments)


class TestAllocationBackendEquivalence:
    """Flat vs object AllocationTable: identical decision sequences."""

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    @pytest.mark.parametrize("n", DEVICE_COUNTS)
    def test_serial_adds_bit_identical(self, sf, n):
        config = _config(sf)
        if n > len(_data_slots(config)):
            pytest.skip("count exceeds this SF's capacity")
        rng = np.random.default_rng(1000 + sf * 7 + n)
        snrs = rng.uniform(-45.0, 10.0, size=n)
        flat = AllocationTable(config)
        legacy = ObjectAllocationTable(config)
        for device_id, snr in enumerate(snrs):
            res_flat = flat.add_device(device_id, float(snr))
            res_obj = legacy.add_device(device_id, float(snr))
            assert res_flat == res_obj
            assert _table_state(flat) == _table_state(legacy)
        flat.validate()
        legacy.validate()

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_mixed_operation_sequence_bit_identical(self, sf):
        config = _config(sf)
        rng = np.random.default_rng(4242 + sf)
        flat = AllocationTable(config)
        legacy = ObjectAllocationTable(config)
        live = []
        next_id = 0
        for _ in range(300):
            op = rng.random()
            if (op < 0.55 or not live) and len(live) >= flat.capacity:
                op = 0.7  # table full: fall through to an SNR update
            if op < 0.55 or not live:
                snr = float(rng.uniform(-45.0, 10.0))
                assert flat.add_device(next_id, snr) == legacy.add_device(
                    next_id, snr
                )
                live.append(next_id)
                next_id += 1
            elif op < 0.8:
                victim = int(live[int(rng.integers(len(live)))])
                snr = float(rng.uniform(-45.0, 10.0))
                assert flat.update_snr(victim, snr) == legacy.update_snr(
                    victim, snr
                )
            else:
                victim = live.pop(int(rng.integers(len(live))))
                flat.remove_device(int(victim))
                legacy.remove_device(int(victim))
            assert _table_state(flat) == _table_state(legacy)
        flat.validate()
        legacy.validate()
        exp_flat = flat.worst_case_exposure_db()
        exp_obj = legacy.worst_case_exposure_db()
        if exp_flat is None:
            assert exp_obj is None
        else:
            assert exp_flat == pytest.approx(exp_obj, abs=1e-9)

    @pytest.mark.parametrize("sf", SPREADING_FACTORS)
    def test_bulk_add_matches_on_both_backends(self, sf):
        config = _config(sf)
        rng = np.random.default_rng(77 + sf)
        n = min(128, len(_data_slots(config)))
        ids = list(range(n))
        snrs = rng.uniform(-40.0, 5.0, size=n)
        flat = AllocationTable(config)
        legacy = ObjectAllocationTable(config)
        shifts_flat, re_flat = flat.bulk_add(ids, snrs)
        shifts_obj, re_obj = legacy.bulk_add(ids, snrs)
        assert shifts_flat.tolist() == shifts_obj.tolist()
        assert re_flat == re_obj
        assert _table_state(flat) == _table_state(legacy)
        # ... and the bulk result equals the one-shot allocation map.
        one_shot = power_aware_allocation(snrs, config)
        assert flat.assignments() == one_shot

    def test_error_parity(self):
        config = _config(9)
        for backend in (AllocationTable, ObjectAllocationTable):
            table = backend(config)
            table.add_device(1, -10.0)
            with pytest.raises(AllocationError, match="already allocated"):
                table.add_device(1, -12.0)
            with pytest.raises(AllocationError, match="not allocated"):
                table.shift_of(99)
            with pytest.raises(AllocationError, match="not allocated"):
                table.remove_device(99)


class TestAssociationBackendEquivalence:
    BACKENDS = {
        "flat": AssociationController,
        "object": ObjectAssociationController,
    }

    # SF 12 is excluded: its shift range exceeds the grant message's
    # 8-bit SKIP-grid field — a message-format constraint that hits
    # both backends identically and is tested in the messages suite.
    @pytest.mark.parametrize("sf", (7, 9))
    def test_grant_ack_lifecycle_bit_identical(self, sf):
        config = _assoc_config(sf)
        rng = np.random.default_rng(500 + sf)
        flat = AssociationController(config)
        legacy = ObjectAssociationController(config)
        for device_id in range(48):
            snr = float(rng.uniform(-45.0, 5.0))
            g_flat, r_flat = flat.handle_request(device_id, snr)
            g_obj, r_obj = legacy.handle_request(device_id, snr)
            assert (g_flat, r_flat) == (g_obj, r_obj)
            if device_id % 3 == 0:
                # Lost grant: the duplicate request repeats it.
                again_flat, _ = flat.handle_request(device_id, snr)
                again_obj, _ = legacy.handle_request(device_id, snr)
                assert again_flat == again_obj
            assert flat.pending_grants() == legacy.pending_grants()
            assert flat.handle_ack(device_id) == legacy.handle_ack(device_id)
            assert flat.n_members == legacy.n_members
            assert flat.assignments() == legacy.assignments()

    def test_grant_abandoned_after_max_repeats_on_both(self):
        config = _assoc_config(9)
        for make in self.BACKENDS.values():
            ctrl = make(config)
            ctrl.handle_request(7, -20.0)
            for _ in range(AssociationController.MAX_GRANT_REPEATS - 1):
                ctrl.handle_request(7, -20.0)
            with pytest.raises(
                AssociationError, match="never acknowledged"
            ):
                ctrl.handle_request(7, -20.0)
            # The slot was freed: the device can start over.
            ctrl.handle_request(7, -20.0)
            ctrl.handle_ack(7)
            assert ctrl.n_members == 1

    def test_granted_shift_frozen_across_repack(self):
        """A later admit may re-pack the ring, but the pending grant
        keeps repeating the originally granted shift on both backends."""
        config = _assoc_config(9)
        grants = {}
        for backend, make in self.BACKENDS.items():
            ctrl = make(config)
            first, _ = ctrl.handle_request(1, -30.0)
            # A stronger newcomer re-packs the ring under device 1.
            ctrl.handle_request(2, -5.0)
            ctrl.handle_ack(2)
            repeat, _ = ctrl.handle_request(1, -30.0)
            assert repeat.cyclic_shift == first.cyclic_shift
            grants[backend] = repeat.cyclic_shift
        assert grants["flat"] == grants["object"]

    def test_unexpected_ack_parity(self):
        config = _assoc_config(9)
        for make in self.BACKENDS.values():
            ctrl = make(config)
            with pytest.raises(AssociationError, match="unexpected ACK"):
                ctrl.handle_ack(3)
            ctrl.handle_request(3, -20.0)
            ctrl.handle_ack(3)
            with pytest.raises(AssociationError, match="unexpected ACK"):
                ctrl.handle_ack(3)

    def test_bulk_associate_equivalent_across_backends(self):
        config = _assoc_config(9)
        rng = np.random.default_rng(9)
        ids = list(range(200))
        snrs = rng.uniform(-45.0, 5.0, size=len(ids))
        flat = AssociationController(config)
        legacy = ObjectAssociationController(config)
        s_flat, r_flat = flat.bulk_associate(ids, snrs)
        s_obj, r_obj = legacy.bulk_associate(ids, snrs)
        assert s_flat.tolist() == s_obj.tolist()
        assert r_flat == r_obj
        assert flat.n_members == legacy.n_members == len(ids)
        assert flat.assignments() == legacy.assignments()
        assert flat.pending_grants() == [] == legacy.pending_grants()


class TestSchedulerBackendEquivalence:
    @pytest.mark.parametrize("max_group", (4, 64, 256))
    def test_round_robin_sequences_bit_identical(self, max_group):
        rng = np.random.default_rng(31 + max_group)
        flat = GroupScheduler(max_group_size=max_group)
        legacy = ObjectGroupScheduler(max_group_size=max_group)
        for device_id in range(97):
            snr = float(rng.uniform(-60.0, 0.0))
            duty = int(rng.integers(1, 4))
            flat.add_device(device_id, snr, duty)
            legacy.add_device(device_id, snr, duty)
        assert flat.groups == legacy.groups
        for device_id in range(97):
            assert flat.group_of(device_id) == legacy.group_of(device_id)
        for round_index in range(60):
            assert flat.next_round() == legacy.next_round(), round_index
        # Churn: removals keep the two in lockstep.
        for victim in (5, 50, 90):
            flat.remove_device(victim)
            legacy.remove_device(victim)
        assert flat.groups == legacy.groups
        for round_index in range(30):
            assert flat.next_round() == legacy.next_round(), round_index

    def test_bulk_add_matches_serial_grouping(self):
        rng = np.random.default_rng(8)
        snrs = rng.uniform(-60.0, 0.0, size=120)
        serial = GroupScheduler(max_group_size=16)
        bulk = GroupScheduler(max_group_size=16)
        for device_id, snr in enumerate(snrs):
            serial.add_device(device_id, float(snr))
        bulk.bulk_add(range(len(snrs)), snrs)
        assert serial.groups == bulk.groups

    def test_error_parity(self):
        for backend in (GroupScheduler, ObjectGroupScheduler):
            sched = backend(max_group_size=8)
            sched.add_device(1, -10.0)
            with pytest.raises(ProtocolError, match="already scheduled"):
                sched.add_device(1, -12.0)
            with pytest.raises(ProtocolError, match="not scheduled"):
                sched.remove_device(2)
            with pytest.raises(ProtocolError, match="duty cycle"):
                sched.add_device(3, -10.0, duty_cycle_rounds=0)


def _object_access_point(config):
    """An AccessPoint whose association and scheduler are the oracles."""
    ap = AccessPoint(config)
    ap._association = ObjectAssociationController(config)
    ap._scheduler = ObjectGroupScheduler(max_group_size=config.max_devices)
    return ap


class TestAccessPointBackends:
    def test_association_flow_identical(self):
        config = NetScatterConfig()
        rng = np.random.default_rng(12)
        snrs = rng.uniform(-40.0, 0.0, size=64)
        flat = AccessPoint(config)
        legacy = _object_access_point(config)
        for device_id, snr in enumerate(snrs):
            assert flat.run_association(
                device_id, float(snr)
            ) == legacy.run_association(device_id, float(snr))
        assert flat.assignments() == legacy.assignments()
        assert flat.stats == legacy.stats
        assert flat.scheduler.groups == legacy.scheduler.groups

    def test_bulk_associate_charges_serial_stats(self):
        config = NetScatterConfig()
        rng = np.random.default_rng(13)
        snrs = rng.uniform(-40.0, 0.0, size=32)
        serial = AccessPoint(config)
        bulk = AccessPoint(config)
        for device_id, snr in enumerate(snrs):
            serial.run_association(device_id, float(snr))
        shifts = bulk.bulk_associate(range(len(snrs)), snrs)
        assert bulk.assignments() == serial.assignments()
        assert [
            bulk.assignments()[i] for i in range(len(snrs))
        ] == shifts.tolist()
        assert bulk.stats.queries_sent == serial.stats.queries_sent
        assert (
            bulk.stats.downlink_bits_sent
            == serial.stats.downlink_bits_sent
        )
        assert (
            bulk.stats.associations_completed
            == serial.stats.associations_completed
        )


class TestSlotGeometryCaching:
    """Satellite fix: per-config geometry is computed once, not per call."""

    def test_data_slots_cached_per_config(self):
        from repro.core.allocation import _data_slots_cached

        config = NetScatterConfig(spreading_factor=10)
        _data_slots_cached.cache_clear()
        a = _data_slots(config)
        before = _data_slots_cached.cache_info()
        b = _data_slots(config)
        after = _data_slots_cached.cache_info()
        assert a == b
        assert after.hits == before.hits + 1
        assert after.misses == before.misses
        # Fresh list each call: caller mutation cannot poison the cache.
        a.append(-1)
        assert _data_slots(config) == b

    def test_association_shifts_cached_per_config(self):
        from repro.core.allocation import _association_shifts_cached

        config = NetScatterConfig(spreading_factor=10)
        _association_shifts_cached.cache_clear()
        a = association_shifts(config)
        b = association_shifts(config)
        info = _association_shifts_cached.cache_info()
        assert a == b
        assert info.misses == 1
        assert info.hits >= 1

    def test_spread_slot_indices_cached_and_read_only(self):
        spread_slot_indices.cache_clear()
        a = spread_slot_indices(37, 255)
        b = spread_slot_indices(37, 255)
        assert a is b  # identical cached object
        assert not a.flags.writeable
        info = spread_slot_indices.cache_info()
        assert info.hits >= 1


class TestOfficePopulationLinkLaw:
    def test_matches_scalar_link_budget_elementwise(self):
        """The vectorised law equals the scalar LinkBudget arithmetic.

        Positions are replayed from the same seeded generator the
        population drew from, then each device's SNR is recomputed with
        the per-device scalar path (the paper_deployment code path).
        """
        from repro.channel.deployment import _count_walls
        from repro.utils.rng import make_rng

        budget = LinkBudget(path_loss_exponent=2.0, wall_loss_db=2.0)
        pop = office_population(64, rng=3)
        xy = make_rng(3).uniform(
            [0.0, 0.0], [40.0, 20.0], size=(64, 2)
        )
        ap = (20.0, 10.0)
        for row in range(pop.n_devices):
            x, y = float(xy[row, 0]), float(xy[row, 1])
            distance = max(float(np.hypot(x - ap[0], y - ap[1])), 4.0)
            walls = _count_walls(ap, (x, y), 8.0)
            expected = budget.uplink_snr_db(distance, walls)
            assert pop.snr_db[row] == pytest.approx(expected, abs=1e-9)

    def test_snr_scale_shifts_uniformly(self):
        base = office_population(32, rng=5)
        scaled = office_population(32, rng=5, snr_scale_db=-20.0)
        np.testing.assert_allclose(
            scaled.snr_db, base.snr_db - 20.0, atol=1e-12
        )


class TestFidelitySplit:
    def test_split_is_seeded_and_deterministic(self):
        pop = office_population(2048, rng=7, snr_scale_db=-30.0)
        groups = assign_cluster(pop.snr_db, _config(9))
        rule = FidelityRule()
        a = split_fidelity(pop.snr_db, groups, rule, seed=99)
        b = split_fidelity(pop.snr_db, groups, rule, seed=99)
        assert a.monte_carlo.tolist() == b.monte_carlo.tolist()
        assert a.reasons == b.reasons
        assert a.group_seeds.tolist() == b.group_seeds.tolist()
        c = split_fidelity(pop.snr_db, groups, rule, seed=100)
        # A different seed may reroute audit groups but never the
        # validity-floor routing.
        floor = [
            i
            for i, r in enumerate(a.reasons)
            if r == "validity_floor"
        ]
        for i in floor:
            assert c.monte_carlo[i]

    def test_force_monte_carlo_routes_everything(self):
        pop = office_population(512, rng=7, snr_scale_db=-30.0)
        groups = assign_cluster(pop.snr_db, _config(9))
        split = split_fidelity(
            pop.snr_db, groups, FidelityRule(), seed=1,
            force_monte_carlo=True,
        )
        assert bool(np.all(split.monte_carlo))

    def test_hybrid_round_deterministic(self):
        pop = office_population(4096, rng=17, snr_scale_db=-30.0)
        a = hybrid_population_round(pop, seed=5)
        b = hybrid_population_round(pop, seed=5)
        assert a.delivery_ratio == b.delivery_ratio
        assert a.bit_error_rate == b.bit_error_rate
        assert a.reasons == b.reasons

    def test_hybrid_matches_monte_carlo_at_scale(self):
        """The statistical-equivalence gate at 10^4 devices.

        The hybrid and all-Monte-Carlo runs share group seeds, so the
        Monte-Carlo legs are common and the gate isolates the
        closed-form legs' aggregate error, which the calibration bounds
        at ~0.02 delivery (see docs/SCALING.md).
        """
        pop = office_population(10_000, rng=3, snr_scale_db=-30.0)
        hybrid = hybrid_population_round(pop, seed=11)
        reference = hybrid_population_round(
            pop, seed=11, force_monte_carlo=True
        )
        assert hybrid.n_closed_form_groups > 0
        assert hybrid.delivery_ratio == pytest.approx(
            reference.delivery_ratio, abs=0.03
        )
        assert hybrid.bit_error_rate == pytest.approx(
            reference.bit_error_rate, abs=0.02
        )


class TestPopulationBulkAdd:
    """Rejected bulk adds leave the population exactly as it was."""

    @staticmethod
    def _state(pop):
        return (
            pop.n_devices,
            pop.device_id.tolist(),
            pop.snr_db.tolist(),
            [pop.row_of(d) for d in pop.device_id.tolist()],
        )

    def test_duplicate_within_batch_on_empty_population(self):
        pop = Population()
        with pytest.raises(AllocationError, match="duplicate"):
            pop.bulk_add([4, 5, 4], [-1.0, -2.0, -3.0])
        assert self._state(pop) == (0, [], [], [])
        assert 5 not in pop

    def test_duplicates_rejected_before_any_change(self):
        pop = Population()
        pop.bulk_add([1, 2, 3], [-10.0, -11.0, -12.0])
        before = self._state(pop)
        with pytest.raises(AllocationError, match="device 2 already"):
            pop.bulk_add([4, 2, 5], [-1.0, -2.0, -3.0])
        with pytest.raises(AllocationError, match="duplicate"):
            pop.bulk_add([6, 6], [-1.0, -2.0])
        assert self._state(pop) == before
        assert 4 not in pop and 6 not in pop
        assert pop.bulk_add([4, 5], [-1.0, -2.0]).tolist() == [3, 4]
        assert pop.row_of(5) == 4


class TestPopulationEngineBridge:
    def test_simulator_accepts_population(self):
        from repro.protocol.network import NetworkSimulator

        pop = Population()
        pop.bulk_add(range(8), np.linspace(-14.0, -4.0, 8))
        sim = NetworkSimulator(pop, power_control=False, rng=3)
        metrics = sim.run_rounds(2)
        assert metrics.n_devices == 8

    def test_population_matches_from_snrs_deployment(self):
        from repro.protocol.network import NetworkSimulator

        snrs = np.linspace(-14.0, -4.0, 8)
        pop = Population()
        pop.bulk_add(range(8), snrs)
        via_pop = NetworkSimulator(
            pop, power_control=False, rng=3
        ).run_rounds(3)
        via_dep = NetworkSimulator(
            Deployment.from_snrs(snrs), power_control=False, rng=3
        ).run_rounds(3)
        assert via_pop.bit_error_rate == via_dep.bit_error_rate
        assert via_pop.delivery_ratio == via_dep.delivery_ratio
