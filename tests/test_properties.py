"""Property-based tests (hypothesis) on the core data structures."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gate import Gate
from repro.core.compiler import compile_circuit
from repro.core.encoding import Placement, embed_logical_state, extract_logical_state
from repro.core.metrics import evaluate_metrics
from repro.core.physical import Slot
from repro.core.strategies import Strategy
from repro.noise.model import NoiseModel
from repro.noise.batched import BatchedTrajectoryEngine
from repro.qudit.random import haar_random_state
from repro.qudit.states import apply_unitary, index_to_levels, levels_to_index, state_dimension
from repro.qudit.unitaries import embed_qubit_unitary, qubit_slots
from repro.circuits.library import gate_unitary


# -- strategies -------------------------------------------------------------------------
dims_strategy = st.lists(st.sampled_from([2, 4]), min_size=1, max_size=4).map(tuple)


@st.composite
def random_circuits(draw, max_qubits=5, max_gates=8):
    """Random logical circuits over the compiler's supported gate set."""
    num_qubits = draw(st.integers(min_value=3, max_value=max_qubits))
    num_gates = draw(st.integers(min_value=1, max_value=max_gates))
    circuit = QuantumCircuit(num_qubits, name="hypothesis")
    one_qubit = ["X", "H", "S", "T", "Z"]
    for _ in range(num_gates):
        arity = draw(st.sampled_from([1, 1, 2, 2, 3]))
        qubits = draw(
            st.lists(
                st.integers(0, num_qubits - 1), min_size=arity, max_size=arity, unique=True
            )
        )
        if arity == 1:
            circuit.add(draw(st.sampled_from(one_qubit)), *qubits)
        elif arity == 2:
            circuit.add(draw(st.sampled_from(["CX", "CZ", "SWAP"])), *qubits)
        else:
            circuit.add(draw(st.sampled_from(["CCX", "CCZ", "CSWAP"])), *qubits)
    return circuit


class TestIndexingProperties:
    @given(dims=dims_strategy, data=st.data())
    def test_index_level_round_trip(self, dims, data):
        index = data.draw(st.integers(0, state_dimension(dims) - 1))
        assert levels_to_index(index_to_levels(index, dims), dims) == index

    @given(dims=dims_strategy)
    def test_state_dimension_is_product(self, dims):
        assert state_dimension(dims) == int(np.prod(dims))


class TestEmbeddingProperties:
    @given(dims=dims_strategy, seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_embedded_gates_are_unitary(self, dims, seed, data):
        slots = qubit_slots(dims)
        arity = data.draw(st.integers(1, min(3, len(slots))))
        indices = data.draw(
            st.lists(st.integers(0, len(slots) - 1), min_size=arity, max_size=arity, unique=True)
        )
        operand_slots = [slots[i] for i in indices]
        from repro.qudit.random import haar_random_unitary

        gate = haar_random_unitary(2**arity, seed)
        embedded = embed_qubit_unitary(gate, operand_slots, dims)
        dim = state_dimension(dims)
        assert np.allclose(embedded @ embedded.conj().T, np.eye(dim), atol=1e-9)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_apply_unitary_preserves_norm(self, seed):
        rng = np.random.default_rng(seed)
        dims = (4, 2, 4)
        state = haar_random_state(dims, rng)
        gate = embed_qubit_unitary(gate_unitary("CX"), [(0, 1), (1, 0)], (4, 2))
        out = apply_unitary(state, gate, (0, 1), dims)
        assert np.isclose(np.linalg.norm(out), 1.0)


class TestPackingProperties:
    @given(seed=st.integers(0, 2**16), num_qubits=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_embed_extract_round_trip(self, seed, num_qubits):
        rng = np.random.default_rng(seed)
        num_devices = num_qubits  # one per device, slot 1
        placement = Placement.one_per_device(num_qubits)
        dims = (4,) * num_devices
        logical = haar_random_state(2**num_qubits, rng)
        physical = embed_logical_state(logical, placement, dims)
        recovered = extract_logical_state(physical, placement, dims)
        assert abs(np.vdot(logical, recovered)) ** 2 > 1.0 - 1e-9


class TestCompilerProperties:
    @given(circuit=random_circuits(), strategy=st.sampled_from(
        [Strategy.QUBIT_ONLY, Strategy.QUBIT_ITOFFOLI, Strategy.MIXED_RADIX_CCZ,
         Strategy.MIXED_RADIX_CCX, Strategy.FULL_QUQUART]
    ))
    @settings(max_examples=20, deadline=None)
    def test_compilation_preserves_semantics(self, circuit, strategy):
        result = compile_circuit(circuit, strategy)
        physical = result.physical_circuit
        engine = BatchedTrajectoryEngine(physical, NoiseModel.noiseless())
        logical_in = haar_random_state(2**circuit.num_qubits, np.random.default_rng(7))
        expected = circuit.apply_to_state(logical_in)
        physical_in = embed_logical_state(logical_in, result.initial_placement, physical.device_dims)
        (physical_out,) = engine.run_ideal(physical_in[None, :])
        recovered = extract_logical_state(physical_out, result.final_placement, physical.device_dims)
        assert abs(np.vdot(expected, recovered)) ** 2 > 1.0 - 1e-9

    @given(circuit=random_circuits(max_qubits=5, max_gates=6))
    @settings(max_examples=15, deadline=None)
    def test_metrics_are_probabilities(self, circuit):
        result = compile_circuit(circuit, Strategy.MIXED_RADIX_CCZ)
        metrics = evaluate_metrics(result.physical_circuit)
        assert 0.0 < metrics.gate_eps <= 1.0
        assert 0.0 < metrics.coherence_eps <= 1.0
        assert metrics.duration_ns >= 0.0
