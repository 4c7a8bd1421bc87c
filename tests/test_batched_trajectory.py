"""Equivalence tests: the batched trajectory engine vs a frozen scalar loop.

The engine must give the *bit-for-bit* same per-trajectory fidelities under
a fixed seed for any block size, across all three strategy regimes (qubit /
mixed / full).  The anchor is the one-statevector loop frozen in
``tests/scalar_trajectory.py``; ``batch_size=None`` runs one-row blocks.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import gate_unitary
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.model import NoiseModel
from repro.noise.program import (
    GateStep,
    _classify,
    _fuse_gate_runs,
    _Fuser,
    _monomial_structure,
    apply_kernel,
    apply_kernel_batch,
    compile_program,
)
from repro.noise.trajectory import TrajectorySimulator
from repro.qudit.random import haar_random_state
from repro.qudit.states import apply_unitary, apply_unitary_batch
from scalar_trajectory import scalar_fidelities

REGIME_STRATEGIES = (
    Strategy.QUBIT_ONLY,
    Strategy.MIXED_RADIX_CCZ,
    Strategy.FULL_QUQUART,
)


def _toffoli_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4, name="batched-equivalence")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.ccx(0, 1, 2)
    circuit.cx(2, 3)
    circuit.ccx(1, 2, 3)
    return circuit


class TestKernelEquivalence:
    """Batched kernels reproduce the scalar kernels per batch row, bit for bit."""

    @pytest.mark.parametrize("strategy", REGIME_STRATEGIES)
    def test_every_compiled_op_batched_kernel_matches_scalar(self, strategy):
        compiled = compile_circuit(_toffoli_circuit(), strategy)
        physical = compiled.physical_circuit
        program = compile_program(physical, NoiseModel())
        dims = program.dims
        rng = np.random.default_rng(7)
        batch = np.array([haar_random_state(dims, rng) for _ in range(5)])
        for step in program.ideal_steps:
            expected = np.stack([apply_kernel(row, step.kernel, dims) for row in batch])
            produced = apply_kernel_batch(batch.copy(), step.kernel, dims)
            assert np.array_equal(produced, expected), step.op.label

    @pytest.mark.parametrize("strategy", REGIME_STRATEGIES)
    def test_scalar_kernels_agree_with_dense_reference(self, strategy):
        """Structured kernels implement the same unitary as a dense apply.

        Compiled without fusion so every ideal step still maps 1:1 to one
        op; the fused program is covered by ``TestMonomialFusion``.  The
        kernel runs on the program's truncated register; the reference
        applies the op's full unitary on the whole register, and its result
        must stay on the truncated levels (``restrict`` raises otherwise).
        """
        compiled = compile_circuit(_toffoli_circuit(), strategy)
        physical = compiled.physical_circuit
        program = compile_program(physical, NoiseModel(), fuse=False)
        dims = program.dims
        rng = np.random.default_rng(11)
        state = haar_random_state(dims, rng)
        full = program.expand(state[None, :])[0]
        for step in program.ideal_steps:
            produced = apply_kernel(state, step.kernel, dims)
            dense = apply_unitary(full, physical.op_unitary(step.op), step.op.devices, physical.device_dims)
            (reference,) = program.restrict(dense[None, :])
            assert np.allclose(produced, reference), step.op.label

    def test_apply_unitary_batch_matches_rowwise(self):
        rng = np.random.default_rng(3)
        dims = (4, 2, 4, 4)
        states = np.array([haar_random_state(dims, rng) for _ in range(6)])
        for targets, op_dim in (((1,), 2), ((0, 1), 8), ((2, 3), 16), ((3, 0), 16)):
            matrix = rng.standard_normal((op_dim, op_dim)) + 1j * rng.standard_normal(
                (op_dim, op_dim)
            )
            produced = apply_unitary_batch(states, matrix, targets, dims)
            expected = np.stack(
                [apply_unitary(row, matrix, targets, dims) for row in states]
            )
            assert np.array_equal(produced, expected), targets

    def test_monomial_classification(self):
        assert _monomial_structure(gate_unitary("CX")) is not None
        assert _monomial_structure(gate_unitary("SWAP")) is not None
        source, phases = _monomial_structure(gate_unitary("CCZ"))
        assert np.array_equal(source, np.arange(8))  # diagonal
        assert phases[-1] == -1.0
        assert _monomial_structure(gate_unitary("H")) is None
        # T is diagonal (hence monomial) even though its phase is irrational.
        source, _ = _monomial_structure(gate_unitary("T"))
        assert np.array_equal(source, np.arange(2))


class TestTrajectoryEquivalence:
    @pytest.mark.parametrize("strategy", REGIME_STRATEGIES)
    @pytest.mark.parametrize("batch_size", (1, 4, 7))
    def test_batched_matches_loop_fidelities_bitwise(self, strategy, batch_size):
        compiled = compile_circuit(_toffoli_circuit(), strategy)
        physical = compiled.physical_circuit
        trajectories = 10

        loop = scalar_fidelities(physical, NoiseModel(), 123, trajectories)
        batched = TrajectorySimulator(NoiseModel(), rng=123).average_fidelity(
            physical, num_trajectories=trajectories, batch_size=batch_size
        )
        assert batched.fidelities == loop

    def test_noiseless_batched_matches_ideal(self):
        compiled = compile_circuit(_toffoli_circuit(), Strategy.MIXED_RADIX_CCZ)
        physical = compiled.physical_circuit
        result = TrajectorySimulator(NoiseModel.noiseless(), rng=0).average_fidelity(
            physical, num_trajectories=4, batch_size=4
        )
        assert result.fidelities == pytest.approx([1.0] * 4)

    def test_program_step_counts(self):
        compiled = compile_circuit(_toffoli_circuit(), Strategy.MIXED_RADIX_CCZ)
        physical = compiled.physical_circuit
        program = compile_program(physical, NoiseModel(), fuse=False)
        gate_steps = [s for s in program.steps if isinstance(s, GateStep)]
        assert len(gate_steps) == len(physical.ops)
        assert len(program.ideal_steps) == len(physical.ops)
        # The fused program may only merge steps, never add or reorder them.
        fused = compile_program(physical, NoiseModel(), fuse=True)
        fused_gate_steps = [s for s in fused.steps if isinstance(s, GateStep)]
        assert len(fused_gate_steps) <= len(gate_steps)
        assert len(fused.ideal_steps) <= len(program.ideal_steps)

    def test_generic_kernel_fallback_still_bitwise_equal(self, monkeypatch):
        """With the gather-index budget exhausted, multi-device monomial ops
        fall back to the generic GEMM kernel; the batched engine must still
        apply them (regression: fresh result arrays were once discarded) and
        stay bit-for-bit equal to the frozen scalar loop."""
        import repro.noise.program as program_module

        monkeypatch.setattr(program_module, "_MAX_GATHER_ENTRIES", 0)
        compiled = compile_circuit(_toffoli_circuit(), Strategy.MIXED_RADIX_CCZ)
        physical = compiled.physical_circuit
        program = compile_program(physical, NoiseModel())
        kinds = {step.kernel.kind for step in program.ideal_steps}
        assert "generic" in kinds  # the fallback really is exercised

        loop = scalar_fidelities(physical, NoiseModel(), 5, 6)
        for batch_size in (None, 3):
            batched = TrajectorySimulator(NoiseModel(), rng=5).average_fidelity(
                physical, num_trajectories=6, batch_size=batch_size
            )
            assert batched.fidelities == loop

    def test_engine_accepts_prebuilt_program(self):
        compiled = compile_circuit(_toffoli_circuit(), Strategy.FULL_QUQUART)
        physical = compiled.physical_circuit
        program = compile_program(physical, NoiseModel())
        engine = BatchedTrajectoryEngine(physical, NoiseModel(), program=program)
        assert engine.program is program

    def test_batch_size_validation(self):
        compiled = compile_circuit(_toffoli_circuit(), Strategy.QUBIT_ONLY)
        simulator = TrajectorySimulator(NoiseModel(), rng=0)
        with pytest.raises(ValueError):
            simulator.average_fidelity(
                compiled.physical_circuit, num_trajectories=2, batch_size=0
            )


class TestMonomialFusion:
    """Compile-time fusion of consecutive diag/perm/monomial kernels.

    The contract is strict: a fused program must be *bit-for-bit* equal to
    its unfused counterpart under a fixed seed — fusion may only merge runs
    whose composed application provably changes no rounding.
    """

    @pytest.mark.parametrize("strategy", REGIME_STRATEGIES)
    def test_fused_program_bitwise_equal_to_unfused(self, strategy):
        """One-row and 3-row block fidelities are unchanged by fusion, per regime."""
        compiled = compile_circuit(_toffoli_circuit(), strategy)
        physical = compiled.physical_circuit
        unfused = TrajectorySimulator(NoiseModel(), rng=321, fuse=False).average_fidelity(
            physical, num_trajectories=8
        )
        fused_rows = TrajectorySimulator(NoiseModel(), rng=321, fuse=True).average_fidelity(
            physical, num_trajectories=8
        )
        fused_batched = TrajectorySimulator(NoiseModel(), rng=321, fuse=True).average_fidelity(
            physical, num_trajectories=8, batch_size=3
        )
        assert fused_rows.fidelities == unfused.fidelities
        assert fused_batched.fidelities == unfused.fidelities
        assert unfused.fidelities == scalar_fidelities(physical, NoiseModel(), 321, 8, fuse=False)

    def test_fusion_merges_ideal_steps(self):
        """The ideal path really shrinks (ROADMAP's 'fuse monomial kernels')."""
        compiled = compile_circuit(_toffoli_circuit(), Strategy.MIXED_RADIX_CCZ)
        physical = compiled.physical_circuit
        unfused = compile_program(physical, NoiseModel(), fuse=False)
        fused = compile_program(physical, NoiseModel(), fuse=True)
        assert len(fused.ideal_steps) < len(unfused.ideal_steps)
        assert any(step.kernel.kind == "fused" for step in fused.ideal_steps)

    def test_fused_ideal_evolution_bitwise_equal(self):
        compiled = compile_circuit(_toffoli_circuit(), Strategy.QUBIT_ONLY)
        physical = compiled.physical_circuit
        dims = physical.device_dims
        rng = np.random.default_rng(17)
        state = haar_random_state(dims, rng)
        unfused = compile_program(physical, NoiseModel(), fuse=False)
        fused = compile_program(physical, NoiseModel(), fuse=True)
        expected = state.copy()
        for step in unfused.ideal_steps:
            expected = apply_kernel(expected, step.kernel, dims)
        produced = state.copy()
        for step in fused.ideal_steps:
            produced = apply_kernel(produced, step.kernel, dims)
        assert np.array_equal(produced, expected)

    def _synthetic_steps(self, unitaries, dims):
        budget = [256]
        steps = []
        for unitary, targets in unitaries:
            kernel = _classify(np.asarray(unitary, dtype=complex), targets, dims, budget)
            steps.append(GateStep(op=None, kernel=kernel))
        return steps

    def test_two_inexact_phase_runs_are_split(self):
        """Two T-like kernels never fuse with each other (rounding would move)."""
        dims = (2, 2)
        t_phase = np.exp(1j * np.pi / 4)
        t_gate = np.diag([1.0, t_phase])
        steps = self._synthetic_steps([(t_gate, (0,)), (t_gate, (1,))], dims)
        fused = _fuse_gate_runs(list(steps), _Fuser(dims))
        assert len(fused) == 2  # split, not merged

    def test_one_inexact_member_fuses_and_stays_bitwise(self):
        """T + CZ + SWAP fuse into one kernel with identical rounding."""
        dims = (2, 2)
        t_gate = np.diag([1.0, np.exp(1j * np.pi / 4)])
        cz = np.diag([1.0, 1.0, 1.0, -1.0])
        swap = np.eye(4)[[0, 2, 1, 3]]
        steps = self._synthetic_steps([(t_gate, (0,)), (cz, (0, 1)), (swap, (0, 1))], dims)
        fused = _fuse_gate_runs(list(steps), _Fuser(dims))
        assert len(fused) == 1 and fused[0].kernel.kind == "fused"
        rng = np.random.default_rng(3)
        state = haar_random_state(dims, rng)
        expected = state.copy()
        for step in steps:
            expected = apply_kernel(expected, step.kernel, dims)
        produced = apply_kernel(state.copy(), fused[0].kernel, dims)
        assert np.array_equal(produced, expected)
        # ... and the batched variant matches the scalar one row for row.
        batch = np.array([haar_random_state(dims, rng) for _ in range(4)])
        rows = np.stack([apply_kernel(row, fused[0].kernel, dims) for row in batch])
        block = apply_kernel_batch(batch.copy(), fused[0].kernel, dims)
        assert np.array_equal(block, rows)

    def test_error_draw_closes_a_run(self):
        """A depolarizing draw between two kernels must keep them separate."""
        dims = (2, 2)
        swap = np.eye(4)[[0, 2, 1, 3]]
        steps = self._synthetic_steps([(swap, (0, 1)), (swap, (0, 1))], dims)
        steps[0].error_dims = (2, 2)
        steps[0].error_rate = 0.01
        fused = _fuse_gate_runs(list(steps), _Fuser(dims))
        assert len(fused) == 2

    def test_fusion_budget_exhaustion_falls_back(self, monkeypatch):
        import repro.noise.program as program_module

        monkeypatch.setattr(program_module, "_MAX_FUSED_ENTRIES", 0)
        compiled = compile_circuit(_toffoli_circuit(), Strategy.MIXED_RADIX_CCZ)
        physical = compiled.physical_circuit
        program = compile_program(physical, NoiseModel(), fuse=True)
        assert all(step.kernel.kind != "fused" for step in program.ideal_steps)
        unfused = TrajectorySimulator(NoiseModel(), rng=9, fuse=False).average_fidelity(
            physical, num_trajectories=4
        )
        capped = TrajectorySimulator(NoiseModel(), rng=9, fuse=True).average_fidelity(
            physical, num_trajectories=4
        )
        assert capped.fidelities == unfused.fidelities
