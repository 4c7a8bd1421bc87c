"""Physical-operation emission.

The :class:`OpEmitter` is the single place where logical operations are
turned into :class:`~repro.core.physical.PhysicalOp` records: it inspects the
current :class:`~repro.core.encoding.Placement` to decide whether an
operation is an internal, qubit-only, mixed-radix or full-ququart pulse,
looks up the calibrated duration in the :class:`~repro.core.gateset.GateSet`,
and keeps the placement consistent for data-moving operations (routing SWAPs
and ENC/ENC†).
"""

from __future__ import annotations

from typing import Sequence

from repro.circuits.gate import Gate
from repro.core.encoding import Placement
from repro.core.gateset import GateClass, GateSet
from repro.core.physical import PhysicalCircuit, PhysicalOp, Slot

__all__ = ["OpEmitter"]


class CompilationError(RuntimeError):
    """Raised when the compiler cannot lower an operation.

    The error carries the offending gate (or op label) and the pipeline pass
    that raised it, so sweep failures are attributable to one (gate, pass)
    pair instead of a bare string.  Both are filled in lazily: the innermost
    raise site attaches whatever context it has, and the pipeline driver
    tops up the pass name as the error propagates (:meth:`attach` never
    overwrites context that is already present).
    """

    def __init__(self, message: str, *, gate: object | None = None, pass_name: str | None = None):
        super().__init__(message)
        self.gate = gate
        self.pass_name = pass_name

    def attach(self, gate: object | None = None, pass_name: str | None = None) -> "CompilationError":
        """Fill in missing gate/pass context; returns self for re-raising."""
        if self.gate is None and gate is not None:
            self.gate = gate
        if self.pass_name is None and pass_name is not None:
            self.pass_name = pass_name
        return self

    def __str__(self) -> str:
        context = []
        if self.gate is not None:
            context.append(f"gate={self.gate}")
        if self.pass_name is not None:
            context.append(f"pass={self.pass_name}")
        base = super().__str__()
        return f"{base} [{', '.join(context)}]" if context else base


class OpEmitter:
    """Emit physical operations while tracking qubit placement."""

    def __init__(
        self,
        gate_set: GateSet,
        placement: Placement,
        physical: PhysicalCircuit,
    ):
        self.gate_set = gate_set
        self.placement = placement
        self.physical = physical

    # -- placement inspection ----------------------------------------------------
    def device_max_level(self, device: int) -> int:
        """Return the highest energy level the device may currently populate."""
        qubits = self.placement.qubits_on_device(device)
        if len(qubits) == 2:
            return 3
        if len(qubits) == 1:
            slot = self.placement.slot_of(qubits[0]).slot
            return 2 if slot == 0 else 1
        return 0

    def device_uses_higher_levels(self, device: int) -> bool:
        """Return True if the device currently stores data in the |2>/|3> levels."""
        return self.device_max_level(device) >= 2

    def _mode_updates(self, devices: Sequence[int]) -> tuple[tuple[int, int], ...]:
        return tuple((device, self.device_max_level(device)) for device in devices)

    # -- emission helpers ----------------------------------------------------------
    def _append(self, op: PhysicalOp) -> PhysicalOp:
        self.physical.append(op)
        return op

    def emit_single(self, gate: Gate) -> PhysicalOp:
        """Emit a single-qubit gate at the qubit's current location."""
        qubit = gate.qubits[0]
        slot = self.placement.slot_of(qubit)
        occupancy = self.placement.occupancy(slot.device)
        encoded = occupancy == 2 or slot.slot == 0
        duration, gate_class = self.gate_set.single_qubit(encoded=encoded, slot=slot.slot)
        label = gate.name if not encoded else f"{gate.name}[{slot.slot}]"
        op = PhysicalOp(
            label=label,
            logical_name=gate.name,
            devices=(slot.device,),
            operand_slots=((0, slot.slot),),
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=(qubit,),
            params=gate.params,
            sets_mode=self._mode_updates((slot.device,)),
        )
        return self._append(op)

    def emit_two(self, gate: Gate) -> PhysicalOp:
        """Emit a two-qubit logical gate; the operands must already be adjacent."""
        first, second = gate.qubits
        slot_a = self.placement.slot_of(first)
        slot_b = self.placement.slot_of(second)
        if slot_a.device == slot_b.device:
            return self._emit_internal_two(gate, slot_a, slot_b)
        high_a = self.device_uses_higher_levels(slot_a.device)
        high_b = self.device_uses_higher_levels(slot_b.device)
        if not high_a and not high_b:
            duration, gate_class = self.gate_set.qubit_two_qubit(gate.name)
            label = f"{gate.name}2"
        elif high_a != high_b:
            ququart_slot = slot_a.slot if high_a else slot_b.slot
            ququart_is_control = high_a  # operand 0 is the control for CX-like gates
            duration, gate_class = self.gate_set.mixed_radix_two_qubit(
                gate.name, ququart_slot, ququart_is_control
            )
            label = f"{gate.name}-mr{ququart_slot}"
        else:
            duration, gate_class = self.gate_set.full_ququart_two_qubit(
                gate.name, slot_a.slot, slot_b.slot
            )
            label = f"{gate.name}{slot_a.slot}{slot_b.slot}"
        op = PhysicalOp(
            label=label,
            logical_name=gate.name,
            devices=(slot_a.device, slot_b.device),
            operand_slots=((0, slot_a.slot), (1, slot_b.slot)),
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=(first, second),
            params=gate.params,
            sets_mode=self._mode_updates((slot_a.device, slot_b.device)),
        )
        return self._append(op)

    def _emit_internal_two(self, gate: Gate, slot_a: Slot, slot_b: Slot) -> PhysicalOp:
        if gate.name == "CX":
            duration, gate_class = self.gate_set.internal_cx(slot_b.slot)
        else:
            duration, gate_class = self.gate_set.internal_two_qubit(gate.name)
        op = PhysicalOp(
            label=f"{gate.name}-in",
            logical_name=gate.name,
            devices=(slot_a.device,),
            operand_slots=((0, slot_a.slot), (0, slot_b.slot)),
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=gate.qubits,
            params=gate.params,
            sets_mode=self._mode_updates((slot_a.device,)),
        )
        return self._append(op)

    # -- data movement ----------------------------------------------------------------
    def routing_swap_pulse(self, slot_a: Slot, slot_b: Slot) -> tuple[float, GateClass, str]:
        """Return (duration, class, label) of the SWAP a routing move would emit.

        Shared between :meth:`emit_routing_swap` and the router's cost model
        (duration-aware tie-breaks and slot-orientation decisions), so the
        router can never optimize against a different pulse than the one
        that would actually be emitted.
        """
        if slot_a.device == slot_b.device:
            duration, gate_class = self.gate_set.internal_two_qubit("SWAP")
            return duration, gate_class, "SWAP-in"
        high_a = self.device_uses_higher_levels(slot_a.device)
        high_b = self.device_uses_higher_levels(slot_b.device)
        if not high_a and not high_b:
            duration, gate_class = self.gate_set.qubit_two_qubit("SWAP")
            return duration, gate_class, "SWAP2"
        if high_a != high_b:
            ququart_slot = slot_a.slot if high_a else slot_b.slot
            duration, gate_class = self.gate_set.mixed_radix_two_qubit("SWAP", ququart_slot, True)
            return duration, gate_class, f"SWAPq{ququart_slot}"
        duration, gate_class = self.gate_set.full_ququart_two_qubit(
            "SWAP", slot_a.slot, slot_b.slot
        )
        low, high = min(slot_a.slot, slot_b.slot), max(slot_a.slot, slot_b.slot)
        return duration, gate_class, f"SWAP{low}{high}"

    def emit_routing_swap(self, slot_a: Slot, slot_b: Slot) -> PhysicalOp:
        """Emit a SWAP that moves data between two slots and update the placement."""
        qubit_a = self.placement.qubit_at(slot_a)
        qubit_b = self.placement.qubit_at(slot_b)
        if qubit_a is None and qubit_b is None:
            raise CompilationError(
                "refusing to emit a SWAP between two empty slots",
                gate=f"SWAP {slot_a} <-> {slot_b}",
            )

        duration, gate_class, label = self.routing_swap_pulse(slot_a, slot_b)
        if slot_a.device == slot_b.device:
            devices: tuple[int, ...] = (slot_a.device,)
            operand_slots = ((0, slot_a.slot), (0, slot_b.slot))
        else:
            devices = (slot_a.device, slot_b.device)
            operand_slots = ((0, slot_a.slot), (1, slot_b.slot))

        # The placement changes before the mode annotation so the recorded
        # modes describe the register *after* the move completes.
        self.placement.swap_slots(slot_a, slot_b)
        op = PhysicalOp(
            label=label,
            logical_name="SWAP",
            devices=devices,
            operand_slots=operand_slots,
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=(
                qubit_a if qubit_a is not None else -1,
                qubit_b if qubit_b is not None else -1,
            ),
            sets_mode=self._mode_updates(devices),
        )
        return self._append(op)

    def emit_encode(self, moving_qubit: int, host_device: int) -> PhysicalOp:
        """Emit ENC: pack ``moving_qubit`` into slot 0 of ``host_device``."""
        source = self.placement.slot_of(moving_qubit)
        destination = Slot(host_device, 0)
        if source.device == host_device:
            raise CompilationError(
                "ENC source and host must be different devices",
                gate=f"ENC q{moving_qubit} -> d{host_device}",
            )
        if not self.placement.is_free(destination):
            raise CompilationError(
                f"cannot encode into device {host_device}: slot 0 is occupied",
                gate=f"ENC q{moving_qubit} -> d{host_device}",
            )
        duration, gate_class = self.gate_set.encode()
        self.placement.move(moving_qubit, destination)
        op = PhysicalOp(
            label="ENC",
            logical_name="ENC",
            devices=(host_device, source.device),
            operand_slots=((0, 0), (1, source.slot)),
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=(moving_qubit,),
            sets_mode=self._mode_updates((host_device, source.device)),
        )
        return self._append(op)

    def emit_decode(self, moving_qubit: int, destination: Slot) -> PhysicalOp:
        """Emit ENC†: move ``moving_qubit`` back out of its host ququart."""
        source = self.placement.slot_of(moving_qubit)
        if source.slot != 0:
            raise CompilationError(
                "decode expects the qubit to sit in slot 0 of its host",
                gate=f"ENC_dg q{moving_qubit} -> {destination}",
            )
        if not self.placement.is_free(destination):
            raise CompilationError(
                f"decode destination {destination} is occupied",
                gate=f"ENC_dg q{moving_qubit} -> {destination}",
            )
        duration, gate_class = self.gate_set.encode()
        self.placement.move(moving_qubit, destination)
        op = PhysicalOp(
            label="ENC_dg",
            logical_name="ENC_dg",
            devices=(source.device, destination.device),
            operand_slots=((0, 0), (1, destination.slot)),
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=(moving_qubit,),
            sets_mode=self._mode_updates((source.device, destination.device)),
        )
        return self._append(op)

    # -- native three-qubit gates -------------------------------------------------------
    def native_three_qubit_duration(self, gate: Gate, slots: Sequence[Slot]) -> float | None:
        """Duration of the native 3q pulse for a (possibly hypothetical) layout.

        ``slots`` are the operand slots in gate order; they may describe a
        layout that differs from the current placement (the router's
        orientation pass evaluates candidate intra-ququart SWAPs this way).
        Returns ``None`` when no Table 2 pulse exists for the layout.
        """
        devices = sorted({slot.device for slot in slots})
        if len(devices) != 2:
            return None
        counts = {d: sum(1 for s in slots if s.device == d) for d in devices}
        pair_device = max(counts, key=lambda d: counts[d])
        lone_device = next(d for d in devices if d != pair_device)
        lone_is_bare = not self.device_uses_higher_levels(lone_device) and (
            self.placement.occupancy(lone_device) <= 1
        )
        try:
            label, regime = self._three_qubit_label(
                gate, list(slots), pair_device, lone_device, lone_is_bare
            )
            if regime == "mixed":
                return self.gate_set.mixed_radix_three_qubit(label)[0]
            return self.gate_set.full_ququart_three_qubit(label)[0]
        except (CompilationError, ValueError, KeyError):
            return None

    def emit_three_qubit_native(self, gate: Gate) -> PhysicalOp:
        """Emit a native three-qubit gate on two devices.

        The three operands must already sit on exactly two adjacent physical
        devices (two of them encoded in the same ququart).  The Table 2
        configuration label is derived from the operands' roles and slots.
        """
        slots = [self.placement.slot_of(q) for q in gate.qubits]
        devices = sorted({slot.device for slot in slots})
        if len(devices) != 2:
            raise CompilationError(
                f"native three-qubit gate needs operands on exactly two devices, "
                f"got {len(devices)}",
                gate=gate,
            )
        counts = {d: sum(1 for s in slots if s.device == d) for d in devices}
        pair_device = max(counts, key=lambda d: counts[d])
        lone_device = next(d for d in devices if d != pair_device)
        if counts[pair_device] != 2:
            raise CompilationError("no co-located operand pair", gate=gate)

        lone_is_bare = not self.device_uses_higher_levels(lone_device) and (
            self.placement.occupancy(lone_device) <= 1
        )
        label, regime = self._three_qubit_label(gate, slots, pair_device, lone_device, lone_is_bare)
        if regime == "mixed":
            duration, gate_class = self.gate_set.mixed_radix_three_qubit(label)
        else:
            duration, gate_class = self.gate_set.full_ququart_three_qubit(label)

        device_order = (pair_device, lone_device)
        position = {pair_device: 0, lone_device: 1}
        operand_slots = tuple((position[s.device], s.slot) for s in slots)
        op = PhysicalOp(
            label=label,
            logical_name=gate.name,
            devices=device_order,
            operand_slots=operand_slots,
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=gate.qubits,
            params=gate.params,
            sets_mode=self._mode_updates(device_order),
        )
        return self._append(op)

    def _three_qubit_label(
        self,
        gate: Gate,
        slots: list[Slot],
        pair_device: int,
        lone_device: int,
        lone_is_bare: bool,
    ) -> tuple[str, str]:
        """Return the Table 2 label and regime ("mixed" or "full") for a 3q gate."""
        name = gate.name
        lone_slot = next(s.slot for s in slots if s.device == lone_device)

        if lone_is_bare:
            if name == "CCZ":
                return "CCZ01q", "mixed"
            if name == "CCX":
                target_slot = slots[2]
                if target_slot.device == lone_device:
                    return "CCX01q", "mixed"
                # Split controls: label depends on which slot stores the target.
                return ("CCXq01", "mixed") if target_slot.slot == 1 else ("CCX1q0", "mixed")
            if name == "CSWAP":
                control_slot = slots[0]
                if control_slot.device == lone_device:
                    return "CSWAPq01", "mixed"
                return ("CSWAP01q", "mixed") if control_slot.slot == 0 else ("CSWAP10q", "mixed")
            raise CompilationError(f"no mixed-radix pulse for gate {name}", gate=gate)

        if name == "CCZ":
            return f"CCZ01,{lone_slot}", "full"
        if name == "CCX":
            control_slots = slots[:2]
            target_slot = slots[2]
            if target_slot.device == lone_device:
                return f"CCX01,{lone_slot}", "full"
            lone_control = next(s for s in control_slots if s.device == lone_device)
            pair_control = next(s for s in control_slots if s.device == pair_device)
            return f"CCX{lone_control.slot},{pair_control.slot}{target_slot.slot}", "full"
        if name == "CSWAP":
            control_slot = slots[0]
            target_slots = slots[1:]
            if control_slot.device == lone_device:
                return f"CSWAP{control_slot.slot},01", "full"
            lone_target = next(s for s in target_slots if s.device == lone_device)
            pair_target = next(s for s in target_slots if s.device == pair_device)
            return (
                f"CSWAP{control_slot.slot}{pair_target.slot},{lone_target.slot}",
                "full",
            )
        raise CompilationError(f"no full-ququart pulse for gate {name}", gate=gate)

    def emit_itoffoli(self, gate: Gate) -> PhysicalOp:
        """Emit the native qubit-only iToffoli pulse (three devices in a line)."""
        slots = [self.placement.slot_of(q) for q in gate.qubits]
        devices = tuple(slot.device for slot in slots)
        if len(set(devices)) != 3:
            raise CompilationError(
                "iToffoli needs its operands on three distinct devices", gate=gate
            )
        duration, gate_class = self.gate_set.itoffoli()
        op = PhysicalOp(
            label="iToffoli",
            logical_name="ITOFFOLI",
            devices=devices,
            operand_slots=tuple((index, slot.slot) for index, slot in enumerate(slots)),
            duration_ns=duration,
            error_rate=self.gate_set.error_rate(gate_class),
            gate_class=gate_class,
            logical_qubits=gate.qubits,
            sets_mode=self._mode_updates(devices),
        )
        return self._append(op)
