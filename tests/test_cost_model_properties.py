"""Property tests: the sparse compiler cost model equals its full-scan form.

``Placement.qubits_on_device`` looks up a device's two slots, placement
sums only over already-placed partners, and the router scores disruption
and duration only for the candidates tied at the best distance.  Each must
give exactly what the frozen full-scan cost model of
``tests/legacy_routing.py`` gives, including on exact ties and explicit zero
weights, where an order or tie-break slip would show.
"""

import legacy_routing
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.core import mapping
from repro.core.emitter import CompilationError, OpEmitter
from repro.core.encoding import Placement
from repro.core.gateset import GateSet
from repro.core.physical import PhysicalCircuit, Slot
from repro.core.routing import Router
from repro.topology.device import Device

# Few distinct values, so totals tie exactly; 0.1/0.2/0.7 make float sums
# depend on their order; 0.0 is an explicit zero-weight key.  1e16 swamps
# the small values, so a running ``+=`` total would differ from ``sum()``,
# which compensates from Python 3.12 on.
WEIGHT_VALUES = (0.0, 0.1, 0.2, 0.7, 1.0 / 3.0, 0.5, 1.0, 3.0, 1e16)


def scan_qubits_on_device(placement: Placement, device: int) -> list[int]:
    """The full-slot-scan definition of ``Placement.qubits_on_device``."""
    found = [(slot.slot, qubit) for qubit, slot in placement.as_dict().items() if slot.device == device]
    return [qubit for _, qubit in sorted(found)]


@st.composite
def weight_maps(draw, num_qubits, extra_qubits=0):
    """Sorted-pair weights over ``num_qubits`` (+ unplaced) qubits, ties and zeros included."""
    pairs = [(a, b) for b in range(num_qubits + extra_qubits) for a in range(b)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))) if pairs else []
    return {pair: draw(st.sampled_from(WEIGHT_VALUES)) for pair in chosen}


class TestQubitsOnDevice:
    @given(num_devices=st.integers(1, 4), data=st.data())
    def test_matches_full_slot_scan(self, num_devices, data):
        slots = [Slot(device, slot) for device in range(num_devices) for slot in (0, 1)]
        placement = Placement()
        for _ in range(data.draw(st.integers(0, 12))):
            kind = data.draw(st.sampled_from(["assign", "move", "swap"]))
            free = [slot for slot in slots if placement.is_free(slot)]
            if kind == "assign" and free:
                qubit = len(placement.qubits())
                placement.assign(qubit, data.draw(st.sampled_from(free)))
            elif kind == "move" and free and placement.qubits():
                qubit = data.draw(st.sampled_from(placement.qubits()))
                placement.move(qubit, data.draw(st.sampled_from(free)))
            elif kind == "swap":
                placement.swap_slots(data.draw(st.sampled_from(slots)), data.draw(st.sampled_from(slots)))
            for device in range(num_devices):
                expected = scan_qubits_on_device(placement, device)
                assert placement.qubits_on_device(device) == expected
                assert placement.occupancy(device) == len(expected)
                assert placement.is_encoded(device) == (len(expected) == 2)


class TestPlacementMatchesFrozen:
    @settings(max_examples=60, deadline=None)
    @given(num_qubits=st.integers(1, 9), data=st.data())
    def test_placement_order(self, num_qubits, data):
        weights = data.draw(weight_maps(num_qubits, extra_qubits=1))
        assert mapping._placement_order(num_qubits, weights) == legacy_routing._placement_order(
            num_qubits, weights
        )

    @settings(max_examples=60, deadline=None)
    @given(num_qubits=st.integers(1, 9), dense=st.booleans(), data=st.data())
    def test_place(self, num_qubits, dense, data):
        weights = data.draw(weight_maps(num_qubits, extra_qubits=1))
        circuit = QuantumCircuit(num_qubits)
        if dense:
            device = Device.mesh((num_qubits + 1) // 2 + data.draw(st.integers(0, 2)))
            live = mapping.place_two_per_ququart(circuit, device, weights)
            frozen = legacy_routing.place_two_per_ququart(circuit, device, weights)
        else:
            device = Device.mesh(num_qubits + data.draw(st.integers(0, 2)))
            live = mapping.place_one_per_device(circuit, device, weights)
            frozen = legacy_routing.place_one_per_device(circuit, device, weights)
        assert live == frozen


class TestRouterMatchesFrozen:
    @settings(max_examples=40, deadline=None)
    @given(num_qubits=st.integers(3, 8), dense=st.booleans(), data=st.data())
    def test_routing_swaps(self, num_qubits, dense, data):
        weights = data.draw(weight_maps(num_qubits))
        num_devices = (num_qubits + 1) // 2 + 1 if dense else num_qubits
        device = Device.mesh(num_devices)
        slots = [Slot(d, s) for d in range(num_devices) for s in ((0, 1) if dense else (1,))]
        chosen = data.draw(st.permutations(slots))[:num_qubits]
        assignment = dict(enumerate(chosen))
        gates = data.draw(
            st.lists(
                st.lists(st.integers(0, num_qubits - 1), min_size=2, max_size=3, unique=True),
                min_size=1,
                max_size=4,
            )
        )

        def run(router_cls, placement):
            physical = PhysicalCircuit(num_devices, device_dims=4, num_logical_qubits=num_qubits)
            router = router_cls(device, OpEmitter(GateSet(), placement, physical), weights, dense=dense)
            try:
                for qubits in gates:
                    if len(qubits) == 2:
                        router.route_pair(*qubits)
                    elif dense:
                        router.route_three_dense(qubits, gate=Gate("CCZ", tuple(qubits)))
                    else:
                        router.route_three_sparse(qubits)
            except CompilationError as error:
                return physical.ops, placement.as_dict(), str(error)
            return physical.ops, placement.as_dict(), None

        live = run(Router, Placement(assignment))
        frozen = run(legacy_routing.Router, legacy_routing.LegacyPlacement(assignment))
        assert live == frozen
