"""Physical (post-compilation) circuit representation.

The compiler lowers a logical :class:`~repro.circuits.circuit.QuantumCircuit`
into a :class:`PhysicalCircuit`: a sequence of :class:`PhysicalOp` records,
each of which names the physical devices it drives, the encoded qubit slots
it logically acts on, its calibrated duration and its error rate.  This is
the object consumed by the EPS estimators (:mod:`repro.core.metrics`) and by
the trajectory simulator (:mod:`repro.noise.trajectory`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.circuits.dag import ScheduledGate, schedule_asap
from repro.circuits.library import gate_unitary
from repro.core.gateset import GateClass
from repro.qudit.unitaries import embed_qubit_unitary

__all__ = ["PhysicalCircuit", "PhysicalOp", "Slot"]


@dataclass(frozen=True, order=True)
class Slot:
    """A logical qubit location: encoded slot ``slot`` of physical ``device``.

    Devices operated as bare qubits store their qubit in slot 1 (the
    low-order encoded bit, i.e. levels |0> and |1>); slot 0 is only populated
    when two qubits are encoded in the device.
    """

    device: int
    slot: int

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ValueError("device index must be non-negative")
        if self.slot not in (0, 1):
            raise ValueError("slot must be 0 or 1")


@dataclass(frozen=True)
class PhysicalOp:
    """One hardware operation emitted by the compiler.

    Attributes
    ----------
    label:
        Human-readable name, usually the Table 1/2 label (``"CCZ01q"``,
        ``"CX2"``, ``"ENC"``, ...).
    logical_name:
        Name of the logical qubit gate whose unitary this pulse implements
        (``"CCZ"``, ``"CX"``, ``"SWAP"``...); ``"ENC"`` is implemented as a
        SWAP between the bare qubit and the host ququart's free slot.
    devices:
        Physical device indices driven by the pulse, in tensor order.
    operand_slots:
        For each operand of the logical gate, ``(position_in_devices, slot)``.
    duration_ns:
        Calibrated pulse duration.
    error_rate:
        Probability that the pulse draws an error in the stochastic model.
    gate_class:
        Physical classification (determines error handling and statistics).
    logical_qubits:
        The circuit qubits involved, for bookkeeping (-1 marks a slot whose
        content is not a live circuit qubit, e.g. routing junk).
    params:
        Rotation angles of parameterized logical gates.
    sets_mode:
        Device-mode changes taking effect when the op completes, as
        ``(device, max_level)`` pairs where ``max_level`` is the highest
        energy level the device may populate afterwards (0, 1, 2 or 3); used
        by the coherence-EPS estimator of Section 6.3.
    """

    label: str
    logical_name: str
    devices: tuple[int, ...]
    operand_slots: tuple[tuple[int, int], ...]
    duration_ns: float
    error_rate: float
    gate_class: GateClass
    logical_qubits: tuple[int, ...] = ()
    params: tuple[float, ...] = ()
    sets_mode: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len(set(self.devices)) != len(self.devices):
            raise ValueError(f"duplicate devices in op {self.label}: {self.devices}")
        if self.duration_ns < 0:
            raise ValueError("duration must be non-negative")
        if not 0.0 <= self.error_rate < 1.0:
            raise ValueError("error_rate must be in [0, 1)")
        for position, slot in self.operand_slots:
            if not 0 <= position < len(self.devices):
                raise ValueError(
                    f"operand position {position} out of range for op {self.label}"
                )
            if slot not in (0, 1):
                raise ValueError("operand slot must be 0 or 1")

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def logical_unitary(self) -> np.ndarray:
        """Return the logical qubit unitary this op implements.

        ENC and its inverse ENC† are distinct ops for accounting purposes
        (``logical_name`` keeps them apart), but both are implemented as a
        SWAP between the bare qubit and the host ququart's free slot, and a
        SWAP is its own inverse.
        """
        if self.logical_name.upper() in ("ENC", "ENC_DG"):
            return gate_unitary("SWAP")
        return gate_unitary(self.logical_name, self.params)

    def embedded_unitary(self, device_dims: Sequence[int]) -> np.ndarray:
        """Return the unitary on the op's devices, given their dimensions.

        ``device_dims`` are the dimensions of ``self.devices`` in order (e.g.
        ``(4, 2)`` for a ququart-qubit pair).  The result is memoized for the
        whole process and read-only: ops with byte-equal logical unitaries on
        the same slots and dimensions share one array.
        """
        if len(device_dims) != len(self.devices):
            raise ValueError("device_dims must match the op's device count")
        # For 2-level devices the only slot is logical slot 1 in the compiler's
        # convention; remap it to the embedding's slot 0.
        remapped = tuple(
            (position, 0 if device_dims[position] == 2 else slot)
            for position, slot in self.operand_slots
        )
        logical = self.logical_unitary()
        # Keyed on the bytes, not on ``params``: RZ(0.0) and RZ(-0.0) compare
        # equal but differ in the sign of an imaginary zero.
        return _embedded_unitary(
            logical.dtype.str, logical.shape, logical.tobytes(), remapped, tuple(device_dims)
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        devices = ",".join(str(d) for d in self.devices)
        return f"{self.label}[{devices}] ({self.duration_ns:.0f} ns)"


@lru_cache(maxsize=1024)
def _embedded_unitary(
    dtype: str,
    shape: tuple[int, ...],
    data: bytes,
    operand_slots: tuple[tuple[int, int], ...],
    device_dims: tuple[int, ...],
) -> np.ndarray:
    """The memo behind :meth:`PhysicalOp.embedded_unitary` (read-only arrays)."""
    logical = np.frombuffer(data, dtype=dtype).reshape(shape)
    unitary = embed_qubit_unitary(logical, operand_slots, device_dims)
    unitary.flags.writeable = False
    return unitary


class PhysicalCircuit:
    """A scheduled sequence of :class:`PhysicalOp` on a physical register."""

    def __init__(
        self,
        num_devices: int,
        device_dims: Sequence[int] | int = 4,
        num_logical_qubits: int | None = None,
        name: str = "physical",
    ):
        if num_devices < 1:
            raise ValueError("need at least one device")
        if isinstance(device_dims, int):
            dims = (device_dims,) * num_devices
        else:
            dims = tuple(device_dims)
        if len(dims) != num_devices:
            raise ValueError("device_dims length must equal num_devices")
        if any(d not in (2, 4) for d in dims):
            raise ValueError("device dimensions must be 2 or 4")
        self.num_devices = int(num_devices)
        self.device_dims = dims
        self.num_logical_qubits = num_logical_qubits
        self.name = name
        self._ops: list[PhysicalOp] = []
        #: Memoized ASAP schedule; invalidated whenever an op is appended.
        self._schedule_cache: list[ScheduledGate[PhysicalOp]] | None = None
        #: Bumped on every append; lets external caches (compiled trajectory
        #: programs) detect that the op stream changed.
        self.version = 0
        #: Maximum energy level of each device at time zero, keyed by device
        #: index (devices not listed start at level 0, i.e. empty).
        self.initial_modes: dict[int, int] = {}
        #: Placements recorded by the compiler (set externally).
        self.initial_placement = None
        self.final_placement = None

    # -- construction -----------------------------------------------------------
    def append(self, op: PhysicalOp) -> "PhysicalCircuit":
        for device in op.devices:
            if not 0 <= device < self.num_devices:
                raise ValueError(
                    f"op {op.label} addresses device {device} but the circuit has "
                    f"{self.num_devices} devices"
                )
        for position, slot in op.operand_slots:
            if self.device_dims[op.devices[position]] == 2 and slot != 1:
                # Compiler convention: a bare qubit's content lives in slot 1.
                raise ValueError(
                    f"op {op.label} addresses slot {slot} of a 2-level device"
                )
        self._ops.append(op)
        self._schedule_cache = None
        self.version += 1
        return self

    def extend(self, ops: Iterable[PhysicalOp]) -> "PhysicalCircuit":
        for op in ops:
            self.append(op)
        return self

    # -- queries -----------------------------------------------------------------
    @property
    def ops(self) -> tuple[PhysicalOp, ...]:
        return tuple(self._ops)

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[PhysicalOp]:
        return iter(self._ops)

    def dims_of_op(self, op: PhysicalOp) -> tuple[int, ...]:
        """Return the dimensions of the devices an op acts on, in op order."""
        return tuple(self.device_dims[d] for d in op.devices)

    def op_unitary(self, op: PhysicalOp) -> np.ndarray:
        """Return the embedded unitary of an op on its devices.

        The array comes from :meth:`PhysicalOp.embedded_unitary`'s
        process-wide memo, so it is read-only and shared between callers,
        trajectories and circuits.
        """
        return op.embedded_unitary(self.dims_of_op(op))

    def count_by_class(self) -> Counter:
        """Return a Counter of ops per :class:`GateClass`."""
        return Counter(op.gate_class for op in self._ops)

    def count_by_label(self) -> Counter:
        """Return a Counter of ops per label."""
        return Counter(op.label for op in self._ops)

    def num_two_device_ops(self) -> int:
        """Return the number of ops driving two or more devices."""
        return sum(1 for op in self._ops if op.num_devices >= 2)

    def schedule(self) -> list[ScheduledGate[PhysicalOp]]:
        """Return the ASAP schedule of the ops (one device does one op at a time).

        The schedule is memoized until the next :meth:`append`; callers get a
        fresh list but must not mutate the (frozen) entries.
        """
        if self._schedule_cache is None:
            self._schedule_cache = schedule_asap(
                self._ops,
                operands=lambda op: op.devices,
                duration=lambda op: op.duration_ns,
            )
        return list(self._schedule_cache)

    def total_duration_ns(self) -> float:
        """Return the makespan of the ASAP schedule."""
        schedule = self.schedule()
        return max((item.end for item in schedule), default=0.0)

    def gate_success_product(self) -> float:
        """Return the product of per-op success probabilities (gate EPS)."""
        product = 1.0
        for op in self._ops:
            product *= 1.0 - op.error_rate
        return product

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PhysicalCircuit(name={self.name!r}, devices={self.num_devices}, "
            f"ops={len(self._ops)}, duration={self.total_duration_ns():.0f} ns)"
        )
