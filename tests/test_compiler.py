"""Integration tests for the Quantum Waltz compiler.

The central invariant: for every strategy, executing the compiled physical
circuit noise-free on the physical register and decoding through the final
placement must reproduce the logical circuit's output state exactly.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core.compiler import QuantumWaltzCompiler, compile_circuit
from repro.core.emitter import CompilationError
from repro.core.encoding import embed_logical_state, extract_logical_state
from repro.core.gateset import ErrorModel, GateClass
from repro.core.strategies import Strategy
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.model import NoiseModel
from repro.qudit.random import haar_random_state
from repro.topology.device import Device
from repro.workloads import cuccaro_adder, generalized_toffoli, qram_circuit


def assert_compilation_correct(circuit: QuantumCircuit, strategy: Strategy, seed: int = 11) -> None:
    """Check the compiled circuit implements the logical circuit exactly."""
    result = compile_circuit(circuit, strategy)
    physical = result.physical_circuit
    engine = BatchedTrajectoryEngine(physical, NoiseModel.noiseless())
    rng = np.random.default_rng(seed)
    logical_in = haar_random_state(2**circuit.num_qubits, rng)
    expected = circuit.apply_to_state(logical_in)
    physical_in = embed_logical_state(logical_in, result.initial_placement, physical.device_dims)
    (physical_out,) = engine.run_ideal(physical_in[None, :])
    recovered = extract_logical_state(physical_out, result.final_placement, physical.device_dims)
    fidelity = abs(np.vdot(expected, recovered)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-9), f"{strategy.name} broke the circuit"


class TestCompilationCorrectness:
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_mixed_gate_circuit(self, small_toffoli_circuit, strategy):
        assert_compilation_correct(small_toffoli_circuit, strategy)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_single_toffoli(self, tiny_ccx_circuit, strategy):
        assert_compilation_correct(tiny_ccx_circuit, strategy)

    @pytest.mark.parametrize(
        "strategy",
        [Strategy.QUBIT_ONLY, Strategy.QUBIT_ITOFFOLI, Strategy.MIXED_RADIX_CCZ, Strategy.FULL_QUQUART],
    )
    def test_generalized_toffoli_workload(self, strategy):
        assert_compilation_correct(generalized_toffoli(6), strategy)

    @pytest.mark.parametrize(
        "strategy",
        [Strategy.MIXED_RADIX_CCX, Strategy.MIXED_RADIX_H, Strategy.FULL_QUQUART_CSWAP_TARGETS],
    )
    def test_qram_workload(self, strategy):
        assert_compilation_correct(qram_circuit(6), strategy)

    def test_cuccaro_workload_full_ququart(self):
        assert_compilation_correct(cuccaro_adder(6), Strategy.FULL_QUQUART)

    def test_parameterized_rotations(self):
        circuit = QuantumCircuit(4).rx(0.3, 0).ccx(0, 1, 2).rz(1.1, 3).cx(2, 3).u3(0.2, 0.4, 0.6, 1)
        for strategy in (Strategy.QUBIT_ONLY, Strategy.MIXED_RADIX_CCZ, Strategy.FULL_QUQUART):
            assert_compilation_correct(circuit, strategy)


class TestCompilationStructure:
    def test_qubit_only_has_no_higher_level_ops(self, small_toffoli_circuit):
        result = compile_circuit(small_toffoli_circuit, Strategy.QUBIT_ONLY)
        for op in result.physical_circuit.ops:
            assert not op.gate_class.uses_higher_levels

    def test_qubit_only_device_dims_are_two(self, tiny_ccx_circuit):
        result = compile_circuit(tiny_ccx_circuit, Strategy.QUBIT_ONLY)
        assert set(result.physical_circuit.device_dims) == {2}

    def test_mixed_radix_wraps_three_qubit_gates_in_enc(self, tiny_ccx_circuit):
        result = compile_circuit(tiny_ccx_circuit, Strategy.MIXED_RADIX_CCZ)
        counts = result.physical_circuit.count_by_class()
        assert counts[GateClass.ENCODE] == 2
        assert counts[GateClass.MIXED_RADIX_THREE_Q] == 1

    def test_full_ququart_uses_half_the_devices(self):
        circuit = generalized_toffoli(8)
        sparse = compile_circuit(circuit, Strategy.MIXED_RADIX_CCZ)
        dense = compile_circuit(circuit, Strategy.FULL_QUQUART)
        assert dense.physical_circuit.num_devices == 4
        assert sparse.physical_circuit.num_devices == 8

    def test_itoffoli_strategy_uses_native_pulse(self, tiny_ccx_circuit):
        result = compile_circuit(tiny_ccx_circuit, Strategy.QUBIT_ITOFFOLI)
        labels = result.physical_circuit.count_by_label()
        assert labels["iToffoli"] == 1

    def test_qubit_only_toffoli_uses_eight_cx(self, tiny_ccx_circuit):
        result = compile_circuit(tiny_ccx_circuit, Strategy.QUBIT_ONLY)
        labels = result.physical_circuit.count_by_label()
        assert labels["CX2"] == 8

    def test_full_ququart_is_fastest(self, small_toffoli_circuit):
        durations = {
            strategy: compile_circuit(small_toffoli_circuit, strategy).duration_ns
            for strategy in (Strategy.QUBIT_ONLY, Strategy.MIXED_RADIX_CCZ, Strategy.FULL_QUQUART)
        }
        assert durations[Strategy.FULL_QUQUART] < durations[Strategy.QUBIT_ONLY]

    def test_error_model_scales_op_error_rates(self, tiny_ccx_circuit):
        compiler = QuantumWaltzCompiler(error_model=ErrorModel(ququart_error_factor=5.0))
        result = compiler.compile(tiny_ccx_circuit, Strategy.MIXED_RADIX_CCZ)
        three_qubit_ops = [
            op for op in result.physical_circuit.ops
            if op.gate_class is GateClass.MIXED_RADIX_THREE_Q
        ]
        assert three_qubit_ops and all(op.error_rate == pytest.approx(0.05) for op in three_qubit_ops)

    def test_explicit_device_too_small_rejected(self, small_toffoli_circuit):
        with pytest.raises(CompilationError):
            compile_circuit(small_toffoli_circuit, Strategy.QUBIT_ONLY, device=Device.mesh(3))

    def test_devices_required(self, small_toffoli_circuit):
        compiler = QuantumWaltzCompiler()
        assert compiler.devices_required(small_toffoli_circuit, Strategy.QUBIT_ONLY) == 5
        assert compiler.devices_required(small_toffoli_circuit, Strategy.FULL_QUQUART) == 3

    def test_compilation_result_metadata(self, tiny_ccx_circuit):
        result = compile_circuit(tiny_ccx_circuit, Strategy.MIXED_RADIX_CCZ)
        assert result.strategy is Strategy.MIXED_RADIX_CCZ
        assert result.num_ops == len(result.physical_circuit)
        assert result.duration_ns > 0
        assert result.op_counts()


class TestBoostSameTypePairs:
    def test_boost_applied_once_per_pair(self):
        from repro.core.compiler import _boost_same_type_pairs

        circuit = QuantumCircuit(4)
        for _ in range(5):
            circuit.ccx(0, 1, 2)
        weights = {(0, 1): 2.0}
        boosted = _boost_same_type_pairs(circuit, weights, factor=3.0)
        # One boost relative to the base weight, regardless of how many
        # gates share the pair: 2.0 * 3.0 + 1.0, not O(3**5).
        assert boosted[(0, 1)] == pytest.approx(7.0)

    def test_repeated_cswap_targets_do_not_blow_up(self):
        from repro.core.compiler import _boost_same_type_pairs

        circuit = QuantumCircuit(3)
        for _ in range(8):
            circuit.cswap(0, 1, 2)
        boosted = _boost_same_type_pairs(circuit, {(1, 2): 1.0}, factor=3.0)
        assert boosted[(1, 2)] == pytest.approx(4.0)

    def test_unseen_pair_gets_base_boost(self):
        from repro.core.compiler import _boost_same_type_pairs

        from repro.circuits.gate import Gate

        circuit = QuantumCircuit(3)
        circuit.append(Gate("CCZ", (0, 1, 2)))
        boosted = _boost_same_type_pairs(circuit, {}, factor=3.0)
        assert boosted[(0, 1)] == pytest.approx(1.0)

    def test_other_weights_untouched(self):
        from repro.core.compiler import _boost_same_type_pairs

        circuit = QuantumCircuit(4)
        circuit.ccx(0, 1, 2)
        boosted = _boost_same_type_pairs(circuit, {(2, 3): 5.0}, factor=3.0)
        assert boosted[(2, 3)] == 5.0
