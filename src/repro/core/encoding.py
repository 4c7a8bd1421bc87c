"""Qubit-to-ququart placement tracking and state packing.

The compiler keeps a :class:`Placement` — an injective map from logical
circuit qubits to :class:`~repro.core.physical.Slot` locations — and updates
it as SWAPs and ENC operations move data around.  This module also provides
the state-packing helpers used to verify compiled circuits: a logical qubit
statevector can be embedded into the physical mixed-radix register according
to a placement, and extracted back.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.core.physical import Slot
from repro.qudit.unitaries import qubit_slots

__all__ = ["Placement", "embed_logical_state", "extract_logical_state"]


class Placement:
    """Injective mapping from logical qubits to physical slots."""

    def __init__(self, assignment: Mapping[int, Slot] | None = None):
        self._slot_of: dict[int, Slot] = {}
        self._qubit_at: dict[Slot, int] = {}
        if assignment:
            for qubit, slot in assignment.items():
                self.assign(qubit, slot)

    # -- construction -----------------------------------------------------------
    def assign(self, qubit: int, slot: Slot) -> None:
        """Place ``qubit`` at ``slot`` (the slot must be free)."""
        if qubit in self._slot_of:
            raise ValueError(f"qubit {qubit} is already placed at {self._slot_of[qubit]}")
        if slot in self._qubit_at:
            raise ValueError(f"slot {slot} already holds qubit {self._qubit_at[slot]}")
        self._slot_of[qubit] = slot
        self._qubit_at[slot] = qubit

    @classmethod
    def one_per_device(cls, num_qubits: int, devices: Sequence[int] | None = None) -> "Placement":
        """Place each qubit alone on a device (in slot 1, the qubit-state slot)."""
        devices = list(devices) if devices is not None else list(range(num_qubits))
        if len(devices) < num_qubits:
            raise ValueError("not enough devices for one qubit per device")
        return cls({q: Slot(devices[q], 1) for q in range(num_qubits)})

    @classmethod
    def two_per_device(cls, num_qubits: int, devices: Sequence[int] | None = None) -> "Placement":
        """Pack qubits two per ququart: qubit 2k -> slot 0, 2k+1 -> slot 1."""
        num_devices_needed = (num_qubits + 1) // 2
        devices = list(devices) if devices is not None else list(range(num_devices_needed))
        if len(devices) < num_devices_needed:
            raise ValueError("not enough devices to pack two qubits per device")
        assignment = {}
        for qubit in range(num_qubits):
            device = devices[qubit // 2]
            # A lone qubit (odd tail) sits in slot 1, the qubit-state slot.
            slot = qubit % 2 if qubit // 2 < num_qubits // 2 or num_qubits % 2 == 0 else 1
            assignment[qubit] = Slot(device, slot)
        return cls(assignment)

    # -- queries ------------------------------------------------------------------
    def slot_of(self, qubit: int) -> Slot:
        """Return the slot holding the given logical qubit."""
        return self._slot_of[qubit]

    def device_of(self, qubit: int) -> int:
        """Return the physical device holding the given logical qubit."""
        return self._slot_of[qubit].device

    def qubit_at(self, slot: Slot) -> int | None:
        """Return the logical qubit stored at a slot, or None if free."""
        return self._qubit_at.get(slot)

    def is_free(self, slot: Slot) -> bool:
        return slot not in self._qubit_at

    def qubits(self) -> list[int]:
        return sorted(self._slot_of)

    def devices_in_use(self) -> set[int]:
        return {slot.device for slot in self._slot_of.values()}

    def qubits_on_device(self, device: int) -> list[int]:
        """Return the logical qubits stored on a device, sorted by slot."""
        found = (self._qubit_at.get(Slot(device, 0)), self._qubit_at.get(Slot(device, 1)))
        return [qubit for qubit in found if qubit is not None]

    def is_encoded(self, device: int) -> bool:
        """Return True if the device currently stores two logical qubits."""
        return len(self.qubits_on_device(device)) == 2

    def occupancy(self, device: int) -> int:
        """Return how many logical qubits the device stores (0, 1 or 2)."""
        return len(self.qubits_on_device(device))

    def as_dict(self) -> dict[int, Slot]:
        return dict(self._slot_of)

    # -- updates ---------------------------------------------------------------------
    def move(self, qubit: int, new_slot: Slot) -> None:
        """Move a qubit to a free slot."""
        if new_slot in self._qubit_at:
            raise ValueError(f"slot {new_slot} is occupied by qubit {self._qubit_at[new_slot]}")
        old = self._slot_of.pop(qubit)
        del self._qubit_at[old]
        self._slot_of[qubit] = new_slot
        self._qubit_at[new_slot] = qubit

    def swap_slots(self, slot_a: Slot, slot_b: Slot) -> None:
        """Exchange the contents of two slots (either may be free)."""
        qubit_a = self._qubit_at.pop(slot_a, None)
        qubit_b = self._qubit_at.pop(slot_b, None)
        if qubit_a is not None:
            self._slot_of[qubit_a] = slot_b
            self._qubit_at[slot_b] = qubit_a
        if qubit_b is not None:
            self._slot_of[qubit_b] = slot_a
            self._qubit_at[slot_a] = qubit_b

    def copy(self) -> "Placement":
        return Placement(self._slot_of)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self._slot_of == other._slot_of

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        entries = ", ".join(
            f"q{qubit}->d{slot.device}.{slot.slot}" for qubit, slot in sorted(self._slot_of.items())
        )
        return f"Placement({entries})"


def _slot_order(device_dims: Sequence[int]) -> list[Slot]:
    """Return the physical slot order used when flattening the register.

    Devices are enumerated in order; a 4-level device contributes slot 0 then
    slot 1, a 2-level device contributes a single slot recorded as slot 1 to
    match the compiler's "bare qubit lives in slot 1" convention.
    """
    order: list[Slot] = []
    for device, dim in enumerate(device_dims):
        if dim == 4:
            order.append(Slot(device, 0))
            order.append(Slot(device, 1))
        elif dim == 2:
            order.append(Slot(device, 1))
        else:
            raise ValueError("device dimensions must be 2 or 4")
    return order


def embed_logical_state(
    logical_state: np.ndarray,
    placement: Placement,
    device_dims: Sequence[int],
) -> np.ndarray:
    """Embed an ``n``-qubit statevector into the physical register.

    Slots that hold no logical qubit are set to ``|0>``.  The returned vector
    has dimension ``prod(device_dims)``.
    """
    logical_state = np.asarray(logical_state, dtype=np.complex128).reshape(-1)
    num_qubits = int(np.log2(logical_state.size))
    if 2**num_qubits != logical_state.size:
        raise ValueError("logical state length must be a power of two")
    order = _slot_order(device_dims)
    slot_position = {slot: position for position, slot in enumerate(order)}

    axis_of_slot: list[int] = []
    used_axes = set()
    for slot in order:
        qubit = placement.qubit_at(slot)
        if qubit is None:
            axis_of_slot.append(-1)
        else:
            if qubit >= num_qubits:
                raise ValueError(f"placement mentions qubit {qubit} beyond the state size")
            axis_of_slot.append(qubit)
            used_axes.add(qubit)
    if len(used_axes) != num_qubits:
        raise ValueError("placement does not cover every logical qubit")

    num_free = sum(1 for axis in axis_of_slot if axis < 0)
    extended = logical_state.reshape((2,) * num_qubits)
    if num_free:
        free_part = np.zeros((2,) * num_free, dtype=np.complex128)
        free_part[(0,) * num_free] = 1.0
        extended = np.tensordot(extended, free_part, axes=0)
    # Axis k of `extended` is logical qubit k for k < n, free slot k - n after.
    next_free = num_qubits
    source_axes = []
    for axis in axis_of_slot:
        if axis >= 0:
            source_axes.append(axis)
        else:
            source_axes.append(next_free)
            next_free += 1
    permuted = np.transpose(extended, source_axes) if extended.ndim else extended
    return permuted.reshape(-1)


def extract_logical_state(
    physical_state: np.ndarray,
    placement: Placement,
    device_dims: Sequence[int],
    atol: float = 1e-9,
) -> np.ndarray:
    """Extract the logical qubit statevector from a physical register state.

    The slots not referenced by the placement must be (numerically) in
    ``|0>``; a ``ValueError`` is raised otherwise because the extraction of a
    pure logical state would not be well defined.
    """
    physical_state = np.asarray(physical_state, dtype=np.complex128).reshape(-1)
    order = _slot_order(device_dims)
    expected = 2 ** len(order)
    if physical_state.size != expected:
        raise ValueError(
            f"physical state has {physical_state.size} amplitudes, expected {expected}"
        )
    qubits = placement.qubits()
    num_qubits = len(qubits)
    if qubits != list(range(num_qubits)):
        raise ValueError("placement must cover qubits 0..n-1 exactly")

    tensor = physical_state.reshape((2,) * len(order))
    # Destination axis order: logical qubits 0..n-1 first, free slots after.
    logical_axes = [None] * num_qubits
    free_axes = []
    for position, slot in enumerate(order):
        qubit = placement.qubit_at(slot)
        if qubit is None:
            free_axes.append(position)
        else:
            logical_axes[qubit] = position
    permuted = np.transpose(tensor, [axis for axis in logical_axes] + free_axes)
    matrix = permuted.reshape(2**num_qubits, -1)
    residual = np.linalg.norm(matrix[:, 1:])
    if residual > atol:
        raise ValueError(
            f"free slots are not in |0> (residual norm {residual:.2e}); "
            "cannot extract a pure logical state"
        )
    return matrix[:, 0].copy()
