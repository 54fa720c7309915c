"""Per-device-object reference for allocation, association and scheduling.

One Python object per device: an :class:`AllocationEntry` in the
allocation table, a :class:`PendingAssociation` in the association
controller, a :class:`ScheduledDevice` in the scheduler. This is the
executable specification of Sections 3.2.3, 3.3.2 and 3.3.3 written as
plain dictionary walks. ``src/`` implements the same steps once, over
the flat :class:`repro.protocol.population.Population` columns, and
``tests/test_population_scale.py`` pins the two bit-identical.

Each class mirrors the public surface of its ``src/`` counterpart
(same method names, return values and error messages) so the suite can
drive both through identical operation sequences.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocation import _data_slots, cyclic_bin_distance
from repro.core.config import NetScatterConfig
from repro.core.power_control import snr_groups
from repro.errors import AllocationError, AssociationError, ProtocolError
from repro.protocol.messages import AssociationResponse
from repro.protocol.population import spread_slot_indices


@dataclass
class AllocationEntry:
    """One device's standing in the allocation table."""

    device_id: int
    shift: int
    snr_db: float


class ObjectAllocationTable:
    """Incremental power-aware allocation over per-device entries."""

    def __init__(self, config: NetScatterConfig) -> None:
        self._config = config
        self._slots = _data_slots(config)
        self.reassignments = 0
        self._entries: Dict[int, AllocationEntry] = {}

    @property
    def config(self) -> NetScatterConfig:
        return self._config

    @property
    def n_devices(self) -> int:
        return len(self._entries)

    @property
    def capacity(self) -> int:
        return len(self._slots)

    def assignments(self) -> Dict[int, int]:
        return {e.device_id: e.shift for e in self._entries.values()}

    def snr_of(self, device_id: int) -> float:
        return self._entry(device_id).snr_db

    def shift_of(self, device_id: int) -> int:
        return self._entry(device_id).shift

    def _entry(self, device_id: int) -> AllocationEntry:
        if device_id not in self._entries:
            raise AllocationError(f"device {device_id} is not allocated")
        return self._entries[device_id]

    def _ranked_ids(self) -> List[int]:
        """Device ids in descending-SNR order (the canonical ring order)."""
        return sorted(
            self._entries,
            key=lambda d: self._entries[d].snr_db,
            reverse=True,
        )

    def _spread_assignment(self) -> Dict[int, int]:
        """The canonical spread placement for the current population."""
        ranked = self._ranked_ids()
        indices = spread_slot_indices(len(ranked), len(self._slots)).tolist()
        return {
            device_id: self._slots[indices[rank]]
            for rank, device_id in enumerate(ranked)
        }

    def _apply_spread(self) -> bool:
        """Move every device to its spread slot; True if anyone moved
        (a fresh admit's ``-1`` taking its first slot does not count)."""
        target = self._spread_assignment()
        moved = False
        for device_id, shift in target.items():
            entry = self._entries[device_id]
            if entry.shift != shift:
                moved = moved or entry.shift != -1
                entry.shift = shift
        return moved

    def add_device(self, device_id: int, snr_db: float) -> Tuple[int, bool]:
        if device_id in self._entries:
            raise AllocationError(f"device {device_id} already allocated")
        if self.n_devices >= self.capacity:
            raise AllocationError(
                f"network full: {self.capacity} slots in use"
            )
        self._entries[device_id] = AllocationEntry(
            device_id=device_id, shift=-1, snr_db=float(snr_db)
        )
        moved_others = self._apply_spread()
        if moved_others:
            self.reassignments += 1
        return self._entries[device_id].shift, moved_others

    def bulk_add(
        self, device_ids: Sequence[int], snrs_db: Sequence[float]
    ) -> Tuple[np.ndarray, bool]:
        ids = [int(d) for d in device_ids]
        if self.n_devices + len(ids) > self.capacity:
            raise AllocationError(
                f"network full: {self.capacity} slots in use"
            )
        for device_id in ids:
            if device_id in self._entries:
                raise AllocationError(
                    f"device {device_id} already allocated"
                )
        if len(set(ids)) != len(ids):
            raise AllocationError("duplicate device ids in bulk add")
        for device_id, snr_db in zip(ids, snrs_db):
            self._entries[device_id] = AllocationEntry(
                device_id=device_id, shift=-1, snr_db=float(snr_db)
            )
        moved_others = self._apply_spread()
        if moved_others:
            self.reassignments += 1
        shifts = np.array(
            [self._entries[d].shift for d in ids], dtype=np.int64
        )
        return shifts, moved_others

    def remove_device(self, device_id: int) -> None:
        self._entry(device_id)
        del self._entries[device_id]
        if self._entries:
            self._apply_spread()

    def update_snr(self, device_id: int, snr_db: float) -> bool:
        entry = self._entry(device_id)
        old_rank = self._ranked_ids().index(device_id)
        entry.snr_db = float(snr_db)
        new_rank = self._ranked_ids().index(device_id)
        if new_rank != old_rank:
            self._apply_spread()
            self.reassignments += 1
            return True
        return False

    def validate(self) -> None:
        seen = set()
        for entry in self._entries.values():
            if entry.shift % self._config.skip != 0:
                raise AllocationError(
                    f"shift {entry.shift} breaks SKIP alignment"
                )
            if entry.shift in seen:
                raise AllocationError(f"shift {entry.shift} double-booked")
            seen.add(entry.shift)
            if entry.shift not in self._slots:
                raise AllocationError(
                    f"shift {entry.shift} is reserved or out of range"
                )
        expected = self._spread_assignment()
        for device_id, entry in self._entries.items():
            if entry.shift != expected[device_id]:
                raise AllocationError(
                    "ring order does not match SNR order "
                    f"(device {device_id})"
                )

    def min_distance_between(self, device_a: int, device_b: int) -> float:
        return cyclic_bin_distance(
            self.shift_of(device_a),
            self.shift_of(device_b),
            self._config.n_bins,
        )

    def worst_case_exposure_db(
        self, side_lobe_profile=None
    ) -> Optional[float]:
        """Worst (power delta + side-lobe level) over ordered pairs."""
        from repro.phy.spectrum import side_lobe_profile as make_profile

        if self.n_devices < 2:
            return None
        if side_lobe_profile is None:
            side_lobe_profile = make_profile(
                self._config.chirp_params, self._config.zero_pad_factor
            )
        entries = list(self._entries.values())
        snrs = np.array([e.snr_db for e in entries], dtype=float)
        shifts = np.array([e.shift for e in entries], dtype=float)
        delta_db = snrs[:, None] - snrs[None, :]
        raw = np.abs(shifts[:, None] - shifts[None, :]) % self._config.n_bins
        distance = np.minimum(raw, self._config.n_bins - raw)
        zp = side_lobe_profile.zero_pad_factor
        idx = (
            np.round(distance * zp).astype(np.int64)
            % side_lobe_profile.n_bins
        )
        lobe_db = side_lobe_profile.power_db[idx]
        margin = np.where(delta_db > 0, delta_db + lobe_db, -np.inf)
        worst = float(np.max(margin))
        return worst if np.isfinite(worst) else None


class AssociationPhase(enum.Enum):
    """AP-side lifecycle of one joining device."""

    REQUESTED = "requested"
    GRANTED = "granted"
    CONFIRMED = "confirmed"


@dataclass
class PendingAssociation:
    """AP-side record of an in-flight association."""

    device_id: int
    snr_db: float
    phase: AssociationPhase = AssociationPhase.REQUESTED
    granted_shift: Optional[int] = None
    grant_repeats: int = 0


class ObjectAssociationController:
    """Association state machine over per-device pending records.

    The grant is frozen at grant time: later re-packs may move the
    device's data shift, but a repeated grant keeps the original value.
    """

    MAX_GRANT_REPEATS = 5

    def __init__(self, config: NetScatterConfig) -> None:
        self._config = config
        self._table = ObjectAllocationTable(config)
        self._pending: Dict[int, PendingAssociation] = {}

    @property
    def table(self) -> ObjectAllocationTable:
        return self._table

    def handle_request(
        self, device_id: int, measured_snr_db: float
    ) -> Tuple[AssociationResponse, bool]:
        if device_id in self._pending:
            pending = self._pending[device_id]
            if pending.phase == AssociationPhase.GRANTED:
                # Duplicate request: the grant was lost; repeat it.
                return self._grant_message(pending), False
            raise AssociationError(
                f"device {device_id} already mid-association"
            )
        shift, reassigned = self._table.add_device(device_id, measured_snr_db)
        pending = PendingAssociation(
            device_id=device_id,
            snr_db=measured_snr_db,
            phase=AssociationPhase.GRANTED,
            granted_shift=shift,
        )
        self._pending[device_id] = pending
        return self._grant_message(pending), reassigned

    def _grant_message(self, pending: PendingAssociation) -> AssociationResponse:
        pending.grant_repeats += 1
        if pending.grant_repeats > self.MAX_GRANT_REPEATS:
            # Abandon the join attempt; free the slot.
            self._table.remove_device(pending.device_id)
            del self._pending[pending.device_id]
            raise AssociationError(
                f"device {pending.device_id} never acknowledged its grant"
            )
        return AssociationResponse(
            network_id=pending.device_id % 256,
            cyclic_shift=pending.granted_shift // self._config.skip,
        )

    def handle_ack(self, device_id: int) -> int:
        pending = self._pending.get(device_id)
        if pending is None or pending.phase != AssociationPhase.GRANTED:
            raise AssociationError(
                f"unexpected ACK from device {device_id}"
            )
        pending.phase = AssociationPhase.CONFIRMED
        del self._pending[device_id]
        return pending.granted_shift

    def bulk_associate(
        self, device_ids: Sequence[int], snrs_db: Sequence[float]
    ) -> Tuple[np.ndarray, bool]:
        return self._table.bulk_add(device_ids, snrs_db)

    def handle_reassociation(
        self, device_id: int, new_snr_db: float
    ) -> bool:
        return self._table.update_snr(device_id, new_snr_db)

    def pending_grants(self) -> List[AssociationResponse]:
        return [
            AssociationResponse(
                network_id=p.device_id % 256,
                cyclic_shift=p.granted_shift // self._config.skip,
            )
            for p in self._pending.values()
            if p.phase == AssociationPhase.GRANTED
        ]

    def assignments(self) -> Dict[int, int]:
        return self._table.assignments()

    @property
    def n_members(self) -> int:
        return self._table.n_devices - len(self._pending)


@dataclass
class ScheduledDevice:
    """Scheduler-side view of one device."""

    device_id: int
    snr_db: float
    duty_cycle_rounds: int = 1
    rounds_since_tx: int = 0

    def due(self) -> bool:
        """Whether the device's duty cycle makes it due this round."""
        return self.rounds_since_tx + 1 >= self.duty_cycle_rounds


class ObjectGroupScheduler:
    """Round-robin scheduler over SNR-grouped per-device records."""

    def __init__(
        self, max_group_size: int, group_span_db: float = 35.0
    ) -> None:
        if max_group_size < 1:
            raise ProtocolError("max_group_size must be >= 1")
        self._max_group_size = int(max_group_size)
        self._group_span_db = float(group_span_db)
        self._next_group = 0
        self._devices: Dict[int, ScheduledDevice] = {}
        self._groups: List[List[int]] = []

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    @property
    def groups(self) -> List[List[int]]:
        return [list(g) for g in self._groups]

    def add_device(
        self, device_id: int, snr_db: float, duty_cycle_rounds: int = 1
    ) -> None:
        if device_id in self._devices:
            raise ProtocolError(f"device {device_id} already scheduled")
        if duty_cycle_rounds < 1:
            raise ProtocolError("duty cycle must be >= 1 round")
        self._devices[device_id] = ScheduledDevice(
            device_id=device_id,
            snr_db=float(snr_db),
            duty_cycle_rounds=int(duty_cycle_rounds),
        )
        self._rebuild_groups()

    def bulk_add(
        self,
        device_ids: Sequence[int],
        snrs_db: Sequence[float],
        duty_cycle_rounds: int = 1,
    ) -> None:
        if duty_cycle_rounds < 1:
            raise ProtocolError("duty cycle must be >= 1 round")
        ids = [int(d) for d in device_ids]
        if len(set(ids)) != len(ids):
            raise ProtocolError("duplicate device ids in bulk add")
        for device_id in ids:
            if device_id in self._devices:
                raise ProtocolError(f"device {device_id} already scheduled")
        for device_id, snr_db in zip(ids, snrs_db):
            self._devices[device_id] = ScheduledDevice(
                device_id=device_id,
                snr_db=float(snr_db),
                duty_cycle_rounds=int(duty_cycle_rounds),
            )
        self._rebuild_groups()

    def remove_device(self, device_id: int) -> None:
        if device_id not in self._devices:
            raise ProtocolError(f"device {device_id} is not scheduled")
        del self._devices[device_id]
        self._rebuild_groups()

    def _rebuild_groups(self) -> None:
        """Group by SNR span, then split oversized groups."""
        if not self._devices:
            self._groups = []
            return
        ids = list(self._devices)
        snrs = [self._devices[d].snr_db for d in ids]
        groups: List[List[int]] = []
        for group in snr_groups(snrs, self._group_span_db):
            members = [ids[i] for i in group]
            for start in range(0, len(members), self._max_group_size):
                groups.append(members[start : start + self._max_group_size])
        self._groups = groups
        self._next_group %= max(1, len(self._groups))

    def next_round(self) -> List[int]:
        if not self._groups:
            return []
        group = self._groups[self._next_group]
        self._next_group = (self._next_group + 1) % len(self._groups)
        transmitting: List[int] = []
        for device_id in group:
            device = self._devices[device_id]
            if device.due():
                transmitting.append(device_id)
                device.rounds_since_tx = 0
            else:
                device.rounds_since_tx += 1
        # Devices outside the scheduled group also age their duty cycle.
        for device_id, device in self._devices.items():
            if device_id not in group:
                device.rounds_since_tx += 1
        return transmitting

    def group_of(self, device_id: int) -> int:
        for index, group in enumerate(self._groups):
            if device_id in group:
                return index
        raise ProtocolError(f"device {device_id} is not scheduled")
