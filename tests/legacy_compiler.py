"""Frozen pre-refactor (PR 2) Quantum Waltz compiler — golden reference.

This is a verbatim copy of the monolithic ``repro.core.compiler`` driver as
it stood before the pass-pipeline refactor, kept so the golden-equivalence
suite (``tests/test_golden_equivalence.py``) can assert that the new
``DecomposePass -> PlacePass -> RoutePass -> EmitPass`` pipeline emits
bit-for-bit identical physical circuits.  Its placement and routing come
from the frozen full-scan cost model in ``tests/legacy_routing.py``, not
from ``repro.core.mapping``/``repro.core.routing``, so the suite also pins
every routing SWAP.  Do not "fix" or modernise this file: it must keep
producing exactly the pre-refactor output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from legacy_routing import Router, interaction_weights, place_one_per_device, place_two_per_ququart

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.core import decompositions
from repro.core.emitter import CompilationError, OpEmitter
from repro.core.encoding import Placement
from repro.core.gateset import ErrorModel, GateSet
from repro.core.physical import PhysicalCircuit
from repro.core.strategies import Strategy, ThreeQubitMode
from repro.topology.device import Device

__all__ = ["LegacyCompilationResult", "LegacyQuantumWaltzCompiler", "legacy_compile_circuit"]


@dataclass
class LegacyCompilationResult:
    """Everything produced by one compilation run."""

    logical_circuit: QuantumCircuit
    physical_circuit: PhysicalCircuit
    strategy: Strategy
    device: Device
    initial_placement: Placement
    final_placement: Placement

    @property
    def duration_ns(self) -> float:
        """Total scheduled duration of the compiled circuit."""
        return self.physical_circuit.total_duration_ns()

    @property
    def num_ops(self) -> int:
        return len(self.physical_circuit)

    def op_counts(self):
        """Return a Counter of physical op labels."""
        return self.physical_circuit.count_by_label()


class LegacyQuantumWaltzCompiler:
    """Compile logical circuits onto mixed-radix / ququart hardware."""

    def __init__(self, gate_set: GateSet | None = None, error_model: ErrorModel | None = None):
        if gate_set is not None and error_model is not None:
            gate_set = gate_set.with_error_model(error_model)
        elif gate_set is None:
            gate_set = GateSet(error_model=error_model)
        self.gate_set = gate_set

    # -- public API -------------------------------------------------------------------
    def devices_required(self, circuit: QuantumCircuit, strategy: Strategy) -> int:
        """Return how many physical devices the strategy needs for a circuit."""
        if strategy.spec.qubits_per_device == 2:
            return math.ceil(circuit.num_qubits / 2)
        return circuit.num_qubits

    def compile(
        self,
        circuit: QuantumCircuit,
        strategy: Strategy = Strategy.MIXED_RADIX_CCZ,
        device: Device | None = None,
    ) -> LegacyCompilationResult:
        """Compile ``circuit`` under ``strategy`` onto ``device`` (a mesh by default)."""
        spec = strategy.spec
        needed = self.devices_required(circuit, strategy)
        if device is None:
            device = Device.mesh(needed)
        elif device.num_devices < needed:
            raise CompilationError(
                f"strategy {strategy.name} needs {needed} devices, the device has "
                f"{device.num_devices}"
            )

        weights = interaction_weights(circuit)
        if spec.is_dense and spec.prefer_cswap_targets_together:
            weights = _boost_same_type_pairs(circuit, weights)
        if spec.is_dense:
            placement = place_two_per_ququart(circuit, device, weights)
        else:
            placement = place_one_per_device(circuit, device, weights)

        physical = PhysicalCircuit(
            num_devices=device.num_devices,
            device_dims=spec.device_dim,
            num_logical_qubits=circuit.num_qubits,
            name=f"{circuit.name}-{strategy.name.lower()}",
        )
        physical.initial_placement = placement.copy()

        emitter = OpEmitter(self.gate_set, placement, physical)
        physical.initial_modes = {
            dev: emitter.device_max_level(dev) for dev in range(device.num_devices)
        }
        router = Router(device, emitter, weights, dense=spec.is_dense)

        for gate in circuit.gates:
            self._lower_gate(gate, strategy, emitter, router)

        physical.final_placement = placement.copy()
        return LegacyCompilationResult(
            logical_circuit=circuit,
            physical_circuit=physical,
            strategy=strategy,
            device=device,
            initial_placement=physical.initial_placement,
            final_placement=physical.final_placement,
        )

    # -- gate lowering ---------------------------------------------------------------------
    def _lower_gate(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        if gate.num_qubits == 1:
            emitter.emit_single(gate)
            return
        if gate.num_qubits == 2:
            router.route_pair(*gate.qubits)
            emitter.emit_two(gate)
            return
        self._lower_three_qubit(gate, strategy, emitter, router)

    def _lower_sequence(self, gates, strategy, emitter, router) -> None:
        for gate in gates:
            self._lower_gate(gate, strategy, emitter, router)

    def _lower_three_qubit(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        spec = strategy.spec
        if gate.name == "ITOFFOLI":
            # Only the iToffoli strategy keeps this gate native; elsewhere we
            # lower it through its Toffoli + CS relation.
            if spec.three_qubit_mode is ThreeQubitMode.ITOFFOLI:
                self._lower_itoffoli_native(gate, strategy, emitter, router)
            else:
                c0, c1, t = gate.qubits
                self._lower_sequence(
                    [Gate("CS", (c0, c1)), Gate("CCX", (c0, c1, t))], strategy, emitter, router
                )
            return

        if spec.regime == "qubit":
            if spec.three_qubit_mode is ThreeQubitMode.ITOFFOLI:
                self._lower_three_itoffoli_strategy(gate, strategy, emitter, router)
            else:
                self._lower_three_decomposed(gate, strategy, emitter, router)
            return
        if spec.regime == "mixed":
            self._lower_three_mixed(gate, strategy, emitter, router)
            return
        self._lower_three_full(gate, strategy, emitter, router)

    # -- qubit-only: full decomposition --------------------------------------------------------
    def _lower_three_decomposed(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        if gate.name == "CSWAP":
            control, t0, t1 = gate.qubits
            self._lower_sequence(
                decompositions.cswap_decomposition(control, t0, t1), strategy, emitter, router
            )
            return
        center = router.route_three_sparse(gate.qubits)
        ends = [q for q in gate.qubits if q != center]
        if gate.name == "CCX":
            gates = decompositions.ccx_line_decomposition(*gate.qubits, middle=center)
        elif gate.name == "CCZ":
            gates = decompositions.ccz_phase_polynomial_line(ends[0], center, ends[1])
        else:
            raise CompilationError(f"cannot decompose three-qubit gate {gate.name}")
        self._lower_sequence(gates, strategy, emitter, router)

    # -- qubit-only: native iToffoli pulse ---------------------------------------------------------
    def _lower_three_itoffoli_strategy(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        if gate.name == "CSWAP":
            control, t0, t1 = gate.qubits
            self._lower_sequence(
                decompositions.cswap_decomposition(control, t0, t1), strategy, emitter, router
            )
            return
        if gate.name == "CCZ":
            self._lower_sequence(
                decompositions.ccz_to_ccx_form(*gate.qubits), strategy, emitter, router
            )
            return
        self._lower_itoffoli_native(Gate("CCX", gate.qubits), strategy, emitter, router, is_plain_ccx=True)

    def _lower_itoffoli_native(
        self,
        gate: Gate,
        strategy: Strategy,
        emitter: OpEmitter,
        router: Router,
        is_plain_ccx: bool = False,
    ) -> None:
        """Emit a CCX (or a bare iToffoli) through the native iToffoli pulse.

        The pulse requires the target at the centre of a three-device line;
        when routing leaves a control in the centre, the Hadamard
        re-targeting of Figure 6b is applied.  A plain CCX additionally needs
        the corrective CS† between the controls, which requires an extra
        routing SWAP because the controls sit at the two ends of the line.
        """
        c0, c1, target = gate.qubits
        center = router.route_three_sparse(gate.qubits)

        pre: list[Gate] = []
        post: list[Gate] = []
        if center != target:
            pre, retargeted, post = decompositions.retarget_ccx(c0, c1, target, new_target=center)
            c0, c1, target = retargeted.qubits
        for wrapper in pre:
            emitter.emit_single(wrapper)

        emitter.emit_itoffoli(Gate("ITOFFOLI", (c0, c1, target)))
        if is_plain_ccx or gate.name == "CCX":
            # Corrective CS† between the two controls (they are the line ends).
            router.route_pair(c0, c1)
            emitter.emit_two(Gate("CSDG", (c0, c1)))
        for wrapper in post:
            emitter.emit_single(wrapper)

    # -- intermediate mixed-radix ------------------------------------------------------------------
    def _lower_three_mixed(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        spec = strategy.spec
        if gate.name == "CSWAP" and not spec.native_cswap:
            self._lower_sequence(
                decompositions.cswap_decomposition(*gate.qubits), strategy, emitter, router
            )
            return
        if gate.name == "CCX" and spec.three_qubit_mode is ThreeQubitMode.NATIVE_CCZ:
            target = gate.qubits[2]
            emitter.emit_single(Gate("H", (target,)))
            self._execute_mixed_native(Gate("CCZ", gate.qubits), strategy, emitter, router)
            emitter.emit_single(Gate("H", (target,)))
            return
        self._execute_mixed_native(gate, strategy, emitter, router)

    def _execute_mixed_native(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        """Route, encode, execute and decode a native mixed-radix 3q gate."""
        spec = strategy.spec
        center = router.route_three_sparse(gate.qubits)
        working_gate = gate

        if gate.name == "CCX" and spec.three_qubit_mode is ThreeQubitMode.NATIVE_CCX_RETARGET:
            c0, c1, target = gate.qubits
            if center == target:
                # Retarget so the centre qubit becomes a control: swap roles of
                # the centre (old target) with one of the end controls.
                new_target = next(q for q in (c0, c1) if q != center)
                pre, retargeted, post = decompositions.retarget_ccx(c0, c1, target, new_target=new_target)
                for wrapper in pre:
                    emitter.emit_single(wrapper)
                self._encode_execute_decode(retargeted, center, strategy, emitter)
                for wrapper in post:
                    emitter.emit_single(wrapper)
                return
        self._encode_execute_decode(working_gate, center, strategy, emitter)

    def _choose_partner(self, gate: Gate, center: int) -> int:
        """Pick which end qubit is encoded together with the centre qubit."""
        ends = [q for q in gate.qubits if q != center]
        if gate.name in {"CCX"}:
            controls = gate.qubits[:2]
            target = gate.qubits[2]
            if center in controls:
                other_control = next(c for c in controls if c != center)
                return other_control
            # Centre is the target: encode one of the controls (split config).
            return ends[0]
        if gate.name == "CSWAP":
            control = gate.qubits[0]
            targets = gate.qubits[1:]
            if center in targets:
                other_target = next(t for t in targets if t != center)
                return other_target
            return ends[0]
        # CCZ (and other symmetric gates): any end works.
        return ends[0]

    def _encode_execute_decode(self, gate: Gate, center: int, strategy: Strategy, emitter: OpEmitter) -> None:
        partner = self._choose_partner(gate, center)
        partner_home = emitter.placement.slot_of(partner)
        host_device = emitter.placement.device_of(center)
        emitter.emit_encode(partner, host_device)
        emitter.emit_three_qubit_native(gate)
        emitter.emit_decode(partner, partner_home)

    # -- full ququart -------------------------------------------------------------------------------
    def _lower_three_full(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        spec = strategy.spec
        if gate.name == "CSWAP" and not spec.native_cswap:
            self._lower_sequence(
                decompositions.cswap_decomposition(*gate.qubits), strategy, emitter, router
            )
            return
        if gate.name == "CCX":
            target = gate.qubits[2]
            emitter.emit_single(Gate("H", (target,)))
            self._execute_full_native(Gate("CCZ", gate.qubits), strategy, emitter, router)
            emitter.emit_single(Gate("H", (target,)))
            return
        self._execute_full_native(gate, strategy, emitter, router)

    def _execute_full_native(self, gate: Gate, strategy: Strategy, emitter: OpEmitter, router: Router) -> None:
        router.route_three_dense(gate.qubits, gate=gate)
        emitter.emit_three_qubit_native(gate)


def _boost_same_type_pairs(
    circuit: QuantumCircuit,
    weights: dict[tuple[int, int], float],
    factor: float = 3.0,
) -> dict[tuple[int, int], float]:
    """Bias the placement weights so "like" operands of 3q gates pair up.

    The Figure 9a "targets together" strategy packs the two targets of each
    CSWAP (and, symmetrically, the two controls of each CCX) into the same
    ququart so the fastest Table 2 configuration can be used without extra
    data movement.  This is realised at mapping time by boosting the
    interaction weight of those same-type pairs.

    Each distinct pair is boosted exactly once relative to its base weight.
    Boosting per gate occurrence would compound the factor — a pair shared
    by ``k`` three-qubit gates would blow up as ``O(factor**k)`` and swamp
    the router's disruption tie-break, even though the pair's recurrence is
    already captured by the base interaction weights.
    """
    pairs: set[tuple[int, int]] = set()
    for gate in circuit.gates:
        if gate.name == "CSWAP":
            pairs.add(tuple(sorted(gate.qubits[1:])))
        elif gate.name in {"CCX", "CCZ"}:
            pairs.add(tuple(sorted(gate.qubits[:2])))
    boosted = dict(weights)
    for pair in sorted(pairs):
        boosted[pair] = boosted.get(pair, 0.0) * factor + 1.0
    return boosted


def legacy_compile_circuit(
    circuit: QuantumCircuit,
    strategy: Strategy = Strategy.MIXED_RADIX_CCZ,
    device: Device | None = None,
    error_model: ErrorModel | None = None,
) -> LegacyCompilationResult:
    """Convenience wrapper: compile ``circuit`` with a default compiler."""
    compiler = LegacyQuantumWaltzCompiler(error_model=error_model)
    return compiler.compile(circuit, strategy=strategy, device=device)
