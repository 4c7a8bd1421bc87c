"""Unit tests for the physical op / circuit representation."""

import numpy as np
import pytest

from repro.circuits.library import gate_unitary
from repro.core.gateset import GateClass
from repro.core.physical import PhysicalCircuit, PhysicalOp, Slot
from repro.qudit.unitaries import embed_qubit_unitary


def _simple_op(label="CX2", devices=(0, 1), duration=251.0, gate_class=GateClass.QUBIT_TWO_Q):
    return PhysicalOp(
        label=label,
        logical_name="CX",
        devices=devices,
        operand_slots=((0, 1), (1, 1)),
        duration_ns=duration,
        error_rate=0.01,
        gate_class=gate_class,
        logical_qubits=(0, 1),
    )


class TestSlot:
    def test_validation(self):
        with pytest.raises(ValueError):
            Slot(-1, 0)
        with pytest.raises(ValueError):
            Slot(0, 2)

    def test_ordering(self):
        assert Slot(0, 0) < Slot(0, 1) < Slot(1, 0)


class TestPhysicalOp:
    def test_validation(self):
        with pytest.raises(ValueError):
            _simple_op(devices=(0, 0))
        with pytest.raises(ValueError):
            _simple_op(duration=-1.0)

    def test_operand_position_validation(self):
        with pytest.raises(ValueError):
            PhysicalOp(
                label="bad",
                logical_name="CX",
                devices=(0,),
                operand_slots=((1, 0), (0, 1)),
                duration_ns=10.0,
                error_rate=0.0,
                gate_class=GateClass.INTERNAL,
            )

    def test_logical_unitary_of_enc_is_swap(self):
        op = PhysicalOp(
            label="ENC",
            logical_name="ENC",
            devices=(0, 1),
            operand_slots=((0, 0), (1, 1)),
            duration_ns=608.0,
            error_rate=0.01,
            gate_class=GateClass.ENCODE,
        )
        assert np.allclose(op.logical_unitary(), gate_unitary("SWAP"))

    def test_embedded_unitary_shape(self):
        op = _simple_op()
        unitary = op.embedded_unitary((4, 2))
        assert unitary.shape == (8, 8)
        assert np.allclose(unitary @ unitary.conj().T, np.eye(8))

    def test_embedded_unitary_dim_mismatch(self):
        with pytest.raises(ValueError):
            _simple_op().embedded_unitary((4,))


def _rz_op(angle, label="RZ"):
    return PhysicalOp(
        label=label,
        logical_name="RZ",
        devices=(0,),
        operand_slots=((0, 0),),
        duration_ns=0.0,
        error_rate=0.0,
        gate_class=GateClass.INTERNAL,
        params=(angle,),
    )


class TestEmbeddingMemo:
    def test_memo_equals_fresh_embedding_and_is_read_only(self):
        op = _simple_op()
        unitary = op.embedded_unitary((4, 2))
        fresh = embed_qubit_unitary(gate_unitary("CX"), [(0, 1), (1, 0)], (4, 2))
        assert unitary.dtype == fresh.dtype and unitary.shape == fresh.shape
        assert unitary.tobytes() == fresh.tobytes()
        assert not unitary.flags.writeable
        with pytest.raises(ValueError):
            unitary[0, 0] = 0.0

    def test_circuits_with_equal_ops_share_one_array(self):
        first, second = PhysicalCircuit(2, device_dims=(4, 2)), PhysicalCircuit(3, (4, 2, 4))
        op = _simple_op()
        first.append(op)
        second.append(_simple_op(label="other-label"))
        assert first.op_unitary(op) is second.op_unitary(second.ops[0])

    def test_signed_zero_angles_do_not_share_an_entry(self):
        positive, negative = _rz_op(0.0), _rz_op(-0.0)
        assert positive.params == negative.params  # 0.0 == -0.0: equal params
        plus, minus = positive.embedded_unitary((4,)), negative.embedded_unitary((4,))
        assert plus is not minus
        assert plus.tobytes() != minus.tobytes()
        for memo, angle in ((plus, 0.0), (minus, -0.0)):
            fresh = embed_qubit_unitary(gate_unitary("RZ", (angle,)), [(0, 0)], (4,))
            assert memo.tobytes() == fresh.tobytes()


class TestPhysicalCircuit:
    def test_device_dim_validation(self):
        with pytest.raises(ValueError):
            PhysicalCircuit(2, device_dims=(4, 3))
        with pytest.raises(ValueError):
            PhysicalCircuit(2, device_dims=(4,))

    def test_append_validates_devices(self):
        circuit = PhysicalCircuit(2, device_dims=2)
        with pytest.raises(ValueError):
            circuit.append(_simple_op(devices=(0, 5)))

    def test_append_validates_slots_on_qubit_devices(self):
        circuit = PhysicalCircuit(2, device_dims=2)
        bad = PhysicalOp(
            label="bad",
            logical_name="CX",
            devices=(0, 1),
            operand_slots=((0, 0), (1, 1)),
            duration_ns=10.0,
            error_rate=0.0,
            gate_class=GateClass.QUBIT_TWO_Q,
        )
        with pytest.raises(ValueError):
            circuit.append(bad)

    def test_schedule_and_duration(self):
        circuit = PhysicalCircuit(3, device_dims=4)
        circuit.append(_simple_op(devices=(0, 1), duration=100.0))
        circuit.append(_simple_op(devices=(1, 2), duration=50.0))
        circuit.append(_simple_op(devices=(0, 2), duration=25.0))
        schedule = circuit.schedule()
        assert schedule[0].start == 0.0
        assert schedule[1].start == pytest.approx(100.0)
        assert schedule[2].start == pytest.approx(150.0)
        assert circuit.total_duration_ns() == pytest.approx(175.0)

    def test_counts_and_success_product(self):
        circuit = PhysicalCircuit(2, device_dims=4)
        circuit.append(_simple_op())
        circuit.append(_simple_op(label="SWAP2"))
        assert circuit.count_by_label()["CX2"] == 1
        assert circuit.num_two_device_ops() == 2
        assert circuit.gate_success_product() == pytest.approx(0.99**2)

    def test_op_unitary_uses_device_dims(self):
        circuit = PhysicalCircuit(2, device_dims=(4, 2))
        op = _simple_op()
        circuit.append(op)
        assert circuit.op_unitary(op).shape == (8, 8)

    def test_empty_circuit_duration(self):
        assert PhysicalCircuit(1).total_duration_ns() == 0.0
