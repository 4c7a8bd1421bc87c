"""Frozen routing and placement cost model: the anchor for the golden suite.

``tests/legacy_compiler.py`` drives the compiler as it stood before the
pass-pipeline refactor.  This module freezes the parts of it that decide
*where* data goes: the interaction weights, the greedy placement
(``_placement_order``, ``place_one_per_device``, ``place_two_per_ququart``)
and the :class:`Router`, in their full-scan form — every candidate SWAP is
scored on distance, disruption and duration; every disruption and placement
sum scans every placed qubit; and :class:`LegacyPlacement` finds a device's
qubits by scanning every occupied slot.

The live modules (``repro.core.mapping``, ``repro.core.routing``,
``Placement.qubits_on_device``) compute the same results from partner lists
and tied candidates only.  The golden suite compares the two bit for bit, so
a change to the live cost model that moves a single SWAP fails it.  The
emitter, the gate set and the decompositions are shared with the live code.
Do not "fix" or modernise this file.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Mapping, Sequence

import networkx as nx

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag
from repro.core.emitter import CompilationError, OpEmitter
from repro.core.encoding import Placement
from repro.core.physical import Slot
from repro.topology.device import Device

__all__ = [
    "LegacyPlacement",
    "Router",
    "interaction_weights",
    "place_one_per_device",
    "place_two_per_ququart",
]


class LegacyPlacement(Placement):
    """A :class:`Placement` that finds a device's qubits by a full slot scan."""

    def qubits_on_device(self, device: int) -> list[int]:
        """Return the logical qubits stored on a device, sorted by slot."""
        found = [
            (slot.slot, qubit)
            for slot, qubit in self._qubit_at.items()
            if slot.device == device
        ]
        return [qubit for _, qubit in sorted(found)]


def interaction_weights(circuit: QuantumCircuit) -> dict[tuple[int, int], float]:
    """Return the lookahead-discounted pairwise interaction weights.

    The result maps unordered qubit pairs (stored as sorted tuples) to their
    weight ``w(i, j)``.
    """
    weights: dict[tuple[int, int], float] = defaultdict(float)
    layers = CircuitDag(circuit).layers()
    for layer_index, layer in enumerate(layers, start=1):
        for node in layer:
            gate = circuit.gates[node]
            for a, b in combinations(sorted(gate.qubits), 2):
                weights[(a, b)] += 1.0 / layer_index
    return dict(weights)


def _pair_weight(weights: Mapping[tuple[int, int], float], a: int, b: int) -> float:
    if a == b:
        return 0.0
    key = (a, b) if a < b else (b, a)
    return weights.get(key, 0.0)


def total_weight(weights: Mapping[tuple[int, int], float], qubit: int, others) -> float:
    """Return the summed weight between ``qubit`` and each qubit in ``others``."""
    return sum(_pair_weight(weights, qubit, other) for other in others)


def central_device(device: Device) -> int:
    """Return the most central physical device (minimum total distance)."""
    distances = device.distance_matrix()
    return min(
        device.coupling_graph.nodes,
        key=lambda node: (sum(distances[node].values()), node),
    )


def _placement_order(num_qubits: int, weights: Mapping[tuple[int, int], float]) -> list[int]:
    """Return the order in which qubits are placed (most-connected first)."""
    all_qubits = list(range(num_qubits))
    remaining = set(all_qubits)
    first = max(all_qubits, key=lambda q: (total_weight(weights, q, all_qubits), -q))
    order = [first]
    remaining.discard(first)
    while remaining:
        nxt = max(
            sorted(remaining),
            key=lambda q: total_weight(weights, q, order),
        )
        order.append(nxt)
        remaining.discard(nxt)
    return order


def place_one_per_device(
    circuit: QuantumCircuit,
    device: Device,
    weights: Mapping[tuple[int, int], float] | None = None,
) -> Placement:
    """Place each circuit qubit alone on a physical device (sparse regimes).

    Qubits sit in slot 1 (the qubit-state slot).  Placement is greedy:
    the most connected qubit goes to the centre, each next qubit to the free
    device minimising its weighted distance to already-placed partners.
    """
    if circuit.num_qubits > device.num_devices:
        raise ValueError(
            f"circuit needs {circuit.num_qubits} devices but the hardware has "
            f"{device.num_devices}"
        )
    weights = weights if weights is not None else interaction_weights(circuit)
    distances = device.distance_matrix()
    order = _placement_order(circuit.num_qubits, weights)

    placement = LegacyPlacement()
    free_devices = set(device.coupling_graph.nodes)
    centre = central_device(device)
    placement.assign(order[0], Slot(centre, 1))
    free_devices.discard(centre)

    for qubit in order[1:]:
        def cost(candidate: int, qubit: int = qubit) -> float:
            return sum(
                _pair_weight(weights, qubit, placed) * distances[candidate][placement.device_of(placed)]
                for placed in placement.qubits()
            )

        best = min(sorted(free_devices), key=lambda d: (cost(d), d))
        placement.assign(qubit, Slot(best, 1))
        free_devices.discard(best)
    return placement


def place_two_per_ququart(
    circuit: QuantumCircuit,
    device: Device,
    weights: Mapping[tuple[int, int], float] | None = None,
) -> Placement:
    """Pack circuit qubits two per ququart (full-ququart regime).

    The greedy procedure mirrors :func:`place_one_per_device` but candidate
    locations are free *slots*; the distance between slots on the same device
    is zero, so strongly interacting qubits naturally pair up inside a
    ququart.
    """
    needed_devices = (circuit.num_qubits + 1) // 2
    if needed_devices > device.num_devices:
        raise ValueError(
            f"circuit needs {needed_devices} ququarts but the hardware has "
            f"{device.num_devices}"
        )
    weights = weights if weights is not None else interaction_weights(circuit)
    distances = device.distance_matrix()
    order = _placement_order(circuit.num_qubits, weights)

    placement = LegacyPlacement()
    free_slots = {
        Slot(node, slot) for node in device.coupling_graph.nodes for slot in (0, 1)
    }
    centre = central_device(device)
    first_slot = Slot(centre, 0)
    placement.assign(order[0], first_slot)
    free_slots.discard(first_slot)

    for qubit in order[1:]:
        def cost(candidate: Slot, qubit: int = qubit) -> float:
            return sum(
                _pair_weight(weights, qubit, placed)
                * distances[candidate.device][placement.device_of(placed)]
                for placed in placement.qubits()
            )

        best = min(sorted(free_slots), key=lambda s: (cost(s), s))
        placement.assign(qubit, best)
        free_slots.discard(best)
    return placement


class Router:
    """Bring gate operands together by emitting routing SWAPs."""

    def __init__(
        self,
        device: Device,
        emitter: OpEmitter,
        weights: Mapping[tuple[int, int], float] | None = None,
        dense: bool = False,
        max_steps_factor: int = 12,
    ):
        self.device = device
        self.emitter = emitter
        self.weights = dict(weights or {})
        self.dense = dense
        self.distances = device.distance_matrix()
        self.max_steps = max_steps_factor * max(device.num_devices, 4)

    # -- helpers ---------------------------------------------------------------------
    @property
    def placement(self) -> Placement:
        return self.emitter.placement

    def _weight(self, a: int, b: int) -> float:
        if a < 0 or b < 0 or a == b:
            return 0.0
        key = (a, b) if a < b else (b, a)
        return self.weights.get(key, 0.0)

    def _device_distance(self, a: int, b: int) -> int:
        return self.distances[a][b]

    def qubit_distance(self, qa: int, qb: int) -> int:
        """Return the physical distance between the devices holding two qubits."""
        return self._device_distance(self.placement.device_of(qa), self.placement.device_of(qb))

    def gate_cost(self, qubits: Sequence[int]) -> int:
        """Return the sum of pairwise device distances between gate operands."""
        return sum(self.qubit_distance(a, b) for a, b in combinations(qubits, 2))

    # -- executability predicates --------------------------------------------------------
    def pair_executable(self, qa: int, qb: int) -> bool:
        """Two-qubit gates need their operands within one physical coupler."""
        return self.qubit_distance(qa, qb) <= 1

    def three_qubit_center(self, qubits: Sequence[int]) -> int | None:
        """Return an operand adjacent to both others (sparse regime), if any."""
        for candidate in qubits:
            others = [q for q in qubits if q != candidate]
            if all(self.qubit_distance(candidate, other) == 1 for other in others):
                return candidate
        return None

    def sparse_three_executable(self, qubits: Sequence[int]) -> bool:
        """Sparse regimes need the three operand devices to form a path."""
        return self.three_qubit_center(qubits) is not None

    def dense_three_executable(self, qubits: Sequence[int]) -> bool:
        """Full-ququart gates need the operands on exactly two adjacent devices."""
        devices = [self.placement.device_of(q) for q in qubits]
        unique = set(devices)
        if len(unique) != 2:
            return False
        a, b = sorted(unique)
        return self.device.are_coupled(a, b)

    def co_located_pair(self, qubits: Sequence[int]) -> tuple[int, int] | None:
        """Return the pair of operands sharing a device, if any."""
        for a, b in combinations(qubits, 2):
            if self.placement.device_of(a) == self.placement.device_of(b):
                return a, b
        return None

    # -- candidate moves -----------------------------------------------------------------
    def _candidate_swaps(self, qubits: Sequence[int]) -> list[tuple[Slot, Slot]]:
        """Enumerate SWAPs of an operand slot with a neighbouring slot.

        Candidates are slots on adjacent devices and, in dense mode, the
        partner slot of the operand's own ququart (an internal SWAP-in pulse
        — an order of magnitude shorter than any inter-device SWAP).  The
        intra-ququart candidates never change device distances, but they
        reorient which encoded slot holds each operand, which decides the
        Table 2 configuration (and duration) of the pending three-qubit
        pulse; :meth:`route_three_dense` selects them when the reorientation
        pays for the extra pulse.
        """
        candidates: list[tuple[Slot, Slot]] = []
        seen: set[tuple[Slot, Slot]] = set()

        def add(slot: Slot, target: Slot) -> None:
            key = (min(slot, target), max(slot, target))
            if key not in seen:
                seen.add(key)
                candidates.append((slot, target))

        for qubit in qubits:
            slot = self.placement.slot_of(qubit)
            if self.dense:
                add(slot, Slot(slot.device, 1 - slot.slot))
            for neighbor in self.device.neighbors(slot.device):
                slots = (Slot(neighbor, 0), Slot(neighbor, 1)) if self.dense else (Slot(neighbor, 1),)
                for target in slots:
                    add(slot, target)
        return candidates

    def _swap_duration(self, slot_a: Slot, slot_b: Slot) -> float:
        """Return the duration of the SWAP pulse a candidate move would emit."""
        return self.emitter.routing_swap_pulse(slot_a, slot_b)[0]

    def _disruption(self, slot_a: Slot, slot_b: Slot) -> float:
        """Return the adaptive-weight disruption of swapping two slots."""
        qubit_a = self.placement.qubit_at(slot_a)
        qubit_b = self.placement.qubit_at(slot_b)
        total = 0.0
        for qubit, old_slot, new_slot in (
            (qubit_a, slot_a, slot_b),
            (qubit_b, slot_b, slot_a),
        ):
            if qubit is None:
                continue
            for other in self.placement.qubits():
                if other in (qubit_a, qubit_b):
                    continue
                weight = self._weight(qubit, other)
                if weight == 0.0:
                    continue
                other_device = self.placement.device_of(other)
                total += weight * (
                    self._device_distance(new_slot.device, other_device)
                    - self._device_distance(old_slot.device, other_device)
                )
        return total

    def _cost_after(self, qubits: Sequence[int], slot_a: Slot, slot_b: Slot) -> int:
        """Return the gate cost if the contents of two slots were swapped."""
        qubit_a = self.placement.qubit_at(slot_a)
        qubit_b = self.placement.qubit_at(slot_b)

        def device_of(q: int) -> int:
            if q == qubit_a:
                return slot_b.device
            if q == qubit_b:
                return slot_a.device
            return self.placement.device_of(q)

        return sum(
            self._device_distance(device_of(a), device_of(b))
            for a, b in combinations(qubits, 2)
        )

    def _apply_best_swap(self, qubits: Sequence[int]) -> None:
        """Emit the most favourable candidate SWAP for the pending gate."""
        current = self.gate_cost(qubits)
        candidates = self._candidate_swaps(qubits)
        if not candidates:
            raise CompilationError("no routing candidates available", pass_name="route")
        scored = []
        for slot_a, slot_b in candidates:
            new_cost = self._cost_after(qubits, slot_a, slot_b)
            scored.append(
                (
                    new_cost,
                    self._disruption(slot_a, slot_b),
                    self._swap_duration(slot_a, slot_b),
                    slot_a,
                    slot_b,
                )
            )
        improving = [item for item in scored if item[0] < current]
        if improving:
            # Distance first, then the paper's disruption tie-break, then the
            # physical duration of the SWAP pulse itself (e.g. prefer SWAP01
            # over SWAP11 when both reach the same placement quality).
            improving.sort(key=lambda item: (item[0], item[1], item[2], item[3], item[4]))
            _, _, _, slot_a, slot_b = improving[0]
        else:
            # No single SWAP reduces the total operand distance (rare corner
            # of the greedy heuristic).  Force progress by moving one operand
            # a step along the shortest path towards its farthest partner.
            slot_a, slot_b = self._forced_path_move(qubits)
        if self.placement.qubit_at(slot_a) is None and self.placement.qubit_at(slot_b) is None:
            raise CompilationError(
                "routing selected a swap between two empty slots", pass_name="route"
            )
        self.emitter.emit_routing_swap(slot_a, slot_b)

    def _forced_path_move(self, qubits: Sequence[int]) -> tuple[Slot, Slot]:
        """Return a SWAP moving an operand one step towards its farthest partner."""
        farthest = max(
            combinations(qubits, 2), key=lambda pair: self.qubit_distance(*pair)
        )
        qa, qb = farthest
        source = self.placement.slot_of(qa)
        path = nx.shortest_path(
            self.device.coupling_graph, source.device, self.placement.device_of(qb)
        )
        next_device = path[1]
        if self.dense:
            # Prefer a slot that does not displace another operand of the gate.
            operand_slots = {self.placement.slot_of(q) for q in qubits}
            options = [Slot(next_device, 0), Slot(next_device, 1)]
            options.sort(key=lambda s: (s in operand_slots, self.placement.qubit_at(s) is not None, s))
            return source, options[0]
        return source, Slot(next_device, 1)

    # -- public routing entry points ----------------------------------------------------------
    def route_pair(self, qa: int, qb: int) -> None:
        """Route until a two-qubit gate between ``qa`` and ``qb`` is executable."""
        steps = 0
        while not self.pair_executable(qa, qb):
            self._apply_best_swap((qa, qb))
            steps += 1
            if steps > self.max_steps:
                raise CompilationError(
                    f"routing of pair ({qa}, {qb}) did not converge in {steps} steps",
                    pass_name="route",
                )

    def route_three_sparse(self, qubits: Sequence[int]) -> int:
        """Route three operands into a path; return the centre operand."""
        steps = 0
        while not self.sparse_three_executable(qubits):
            self._apply_best_swap(qubits)
            steps += 1
            if steps > self.max_steps:
                raise CompilationError(
                    f"routing of operands {tuple(qubits)} did not converge in {steps} steps",
                    pass_name="route",
                )
        center = self.three_qubit_center(qubits)
        assert center is not None
        return center

    def route_three_dense(self, qubits: Sequence[int], gate=None) -> tuple[int, int]:
        """Route three operands onto two adjacent ququarts.

        Returns the co-located operand pair.  When ``gate`` is given, the
        slot orientation is optimised afterwards: if an intra-ququart SWAP-in
        (one of the :meth:`_candidate_swaps` partner-slot moves) buys a
        Table 2 configuration whose duration saving exceeds the SWAP-in
        pulse itself, the cheap internal SWAP is emitted instead of settling
        for the slower three-qubit pulse.
        """
        steps = 0
        while not self.dense_three_executable(qubits):
            self._apply_best_swap(qubits)
            steps += 1
            if steps > self.max_steps:
                raise CompilationError(
                    f"routing of operands {tuple(qubits)} did not converge in {steps} steps",
                    gate=gate,
                    pass_name="route",
                )
        if gate is not None:
            self._orient_dense_three(gate)
        pair = self.co_located_pair(qubits)
        assert pair is not None
        return pair

    # -- dense slot orientation ---------------------------------------------------------
    def _orient_dense_three(self, gate) -> None:
        """Emit an internal SWAP when it buys a strictly cheaper 3q pulse."""
        while True:
            slots = [self.placement.slot_of(q) for q in gate.qubits]
            current = self.emitter.native_three_qubit_duration(gate, slots)
            if current is None:
                return
            best_gain = 0.0
            best_candidate: tuple[Slot, Slot] | None = None
            for slot_a, slot_b in self._candidate_swaps(gate.qubits):
                if slot_a.device != slot_b.device:
                    continue  # orientation only considers intra-ququart moves
                if self.placement.occupancy(slot_a.device) != 2:
                    # Flipping a half-empty device would change which energy
                    # levels hold data (its mode), not just the orientation.
                    continue
                flipped = [
                    Slot(s.device, 1 - s.slot) if s.device == slot_a.device else s
                    for s in slots
                ]
                alternative = self.emitter.native_three_qubit_duration(gate, flipped)
                if alternative is None:
                    continue
                gain = current - alternative - self._swap_duration(slot_a, slot_b)
                if gain > best_gain:
                    best_gain = gain
                    best_candidate = (slot_a, slot_b)
            if best_candidate is None:
                return
            self.emitter.emit_routing_swap(*best_candidate)
