"""Initial qubit placement (Section 5.2).

The mapper assigns circuit qubits to physical locations so that frequently
interacting qubits start close together.  Interaction weights include a
lookahead discount — interactions in later layers contribute less:

    ``w(i, j) = sum_t o(i, j, t) / t``

where ``t`` is the (1-based) layer index of each gate in which qubits ``i``
and ``j`` interact.  The first qubit placed is the one with the largest total
weight; it goes to the centre of the device.  Each following qubit is the
one most connected to the already-placed set and goes to the free location
minimising the weighted distance to its placed partners.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from typing import Mapping

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import CircuitDag
from repro.core.encoding import Placement
from repro.core.physical import Slot
from repro.topology.device import Device

__all__ = [
    "boost_same_type_pairs",
    "interaction_weights",
    "place_one_per_device",
    "place_two_per_ququart",
    "central_device",
]


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


def boost_same_type_pairs(
    circuit: QuantumCircuit,
    weights: Mapping[tuple[int, int], float],
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


def weight_partners(weights: Mapping[tuple[int, int], float]) -> dict[int, list[tuple[int, float]]]:
    """Return each qubit's nonzero-weight partners as ``(partner, weight)``.

    Every list is in ascending partner order.  Only the sorted keys
    ``(a, b)`` with ``0 <= a < b`` count, as those are the keys the pair
    lookups read.  A weighted sum over such a list adds the same nonzero
    terms, in the same order, as a scan over every qubit in ascending order;
    the exact-zero terms the scan also adds never change a float sum, so the
    totals are bit-identical.
    """
    partners: dict[int, list[tuple[int, float]]] = defaultdict(list)
    for (a, b), weight in weights.items():
        if 0 <= a < b and weight != 0.0:
            partners[a].append((b, weight))
            partners[b].append((a, weight))
    for entries in partners.values():
        entries.sort(key=lambda entry: entry[0])
    return dict(partners)


def _placement_order(num_qubits: int, weights: Mapping[tuple[int, int], float]) -> list[int]:
    """Return the order in which qubits are placed (most-connected first)."""
    partners = weight_partners(weights)
    first = max(
        range(num_qubits),
        key=lambda q: (sum(w for other, w in partners.get(q, ()) if other < num_qubits), -q),
    )
    order = [first]
    # Each unplaced qubit's weights to the placed set, in placement order;
    # the dict keeps the unplaced qubits in ascending order.
    to_placed: dict[int, list[float]] = {q: [] for q in range(num_qubits) if q != first}
    while True:
        for other, weight in partners.get(order[-1], ()):
            if other in to_placed:
                to_placed[other].append(weight)
        if not to_placed:
            return order
        nxt = max(to_placed, key=lambda q: sum(to_placed[q]))
        order.append(nxt)
        del to_placed[nxt]


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
    partners = weight_partners(weights)

    placement = Placement()
    free_devices = set(device.coupling_graph.nodes)
    centre = central_device(device)
    placement.assign(order[0], Slot(centre, 1))
    free_devices.discard(centre)
    device_of = {order[0]: centre}  # placed qubit -> device

    for qubit in order[1:]:
        terms = [(w, device_of[other]) for other, w in partners.get(qubit, ()) if other in device_of]

        def cost(candidate: int, terms: list[tuple[float, int]] = terms) -> float:
            return sum(weight * distances[candidate][placed_on] for weight, placed_on in terms)

        best = min(sorted(free_devices), key=lambda d: (cost(d), d))
        placement.assign(qubit, Slot(best, 1))
        free_devices.discard(best)
        device_of[qubit] = best
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
    partners = weight_partners(weights)

    placement = Placement()
    free_slots = {
        Slot(node, slot) for node in device.coupling_graph.nodes for slot in (0, 1)
    }
    centre = central_device(device)
    first_slot = Slot(centre, 0)
    placement.assign(order[0], first_slot)
    free_slots.discard(first_slot)
    device_of = {order[0]: centre}  # placed qubit -> device

    for qubit in order[1:]:
        terms = [(w, device_of[other]) for other, w in partners.get(qubit, ()) if other in device_of]

        def cost(candidate: Slot, terms: list[tuple[float, int]] = terms) -> float:
            return sum(
                weight * distances[candidate.device][placed_on] for weight, placed_on in terms
            )

        best = min(sorted(free_slots), key=lambda s: (cost(s), s))
        placement.assign(qubit, best)
        free_slots.discard(best)
        device_of[qubit] = best.device
    return placement
