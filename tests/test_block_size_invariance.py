"""Block-size invariance of the trajectory engine on large registers.

Every fixed-count run goes through ``BatchedTrajectoryEngine``; the block
size (``batch_size``) may change wall-clock and memory, never bits.  The
small-register suites (``tests/test_batched_trajectory.py``) cannot see a
divergence that only appears once a row outgrows numpy's einsum buffer, so
this suite runs the idle-population contraction on 2^14- to 4^9-dimensional
registers and a whole trajectory program on a 2^18-amplitude one: a
16-qubit mixed-radix program, whose 4^16 device register is truncated to
the levels its trajectories reach.
"""

import math


import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.noise.fastpath import prescan_trajectories
from repro.noise.model import NoiseModel
from repro.noise.program import IdleStep, device_populations, device_populations_batch
from repro.noise.trajectory import TrajectorySimulator, _default_state_sampler
from scalar_trajectory import scalar_fidelities


def _idle_step(dims, device):
    left = int(np.prod(dims[:device]))
    right = int(np.prod(dims[device + 1 :]))
    d = dims[device]
    return IdleStep(
        device=device,
        dim=d,
        idle_ns=100.0,
        lambdas=[0.01] * (d - 1),
        outcomes=list(range(d)),
        reshape=(left, d, right),
    )


@pytest.mark.parametrize("batch", (2, 16))
@pytest.mark.parametrize(
    "dims",
    (
        (4,) * 7,
        (2, 4, 4, 4, 4, 4, 4, 2),
        (4,) * 8,
        (4,) * 9,
        (2, 2, 4, 4, 4, 4, 4, 4, 2),
    ),
    ids=("4^7", "2^14-mixed", "4^8", "4^9", "2^15-mixed"),
)
def test_batched_populations_match_each_row_on_large_registers(dims, batch):
    """Row ``i`` of the block contraction is the one-row contraction of row ``i``.

    The 2^15 mixed register is the smallest row measured to diverge under
    a single einsum over the whole block (device 1: ``left = d = 2``,
    ``right = 8192``).  The 2^14 registers sit just below it; device 0 of
    the mixed one (``left = 1``, ``right = 8192``) has an inner run longer
    than numpy's 8192-element reduction buffer.
    """
    rng = np.random.default_rng(len(dims) * 100 + batch)
    dim = int(np.prod(dims))
    states = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
    for device in range(len(dims)):
        step = _idle_step(dims, device)
        block = device_populations_batch(states, step)
        for row in range(batch):
            fresh = device_populations(states[row].copy(), step)
            assert np.array_equal(block[row], fresh), (device, row)


@pytest.fixture(scope="module")
def sixteen_qubit():
    """A 16-qubit mixed-radix circuit (2^18 simulated amplitudes) idling device 1."""
    circuit = QuantumCircuit(16, name="block-size-sixteen-qubit")
    circuit.h(0)
    circuit.h(1)
    circuit.h(2)
    circuit.ccx(0, 1, 2)
    for control in range(3, 15, 2):
        circuit.cx(control, control + 1)
    circuit.ccx(2, 1, 0)
    circuit.ccx(13, 14, 15)
    circuit.cx(1, 2)
    physical = compile_circuit(circuit, Strategy.MIXED_RADIX_CCZ).physical_circuit
    assert physical.device_dims == (4,) * 16
    program = TrajectorySimulator(NoiseModel()).program_for(physical)
    assert math.prod(program.dims) == 2**18
    idles = [step for step in program.steps if isinstance(step, IdleStep)]
    assert any(step.reshape == (2, 4, 2**15) for step in idles)  # device 1
    return physical


NUM_TRAJECTORIES = 6
SEED = 5


def _fixed_count(physical, batch_size=None):
    simulator = TrajectorySimulator(NoiseModel(), rng=SEED)
    return simulator.average_fidelity(physical, NUM_TRAJECTORIES, batch_size=batch_size).fidelities


def test_block_sizes_agree_on_sixteen_qubits(sixteen_qubit):
    """``batch_size`` None (one-row blocks), 1 and 2 give the same bits."""
    one_row = _fixed_count(sixteen_qubit)
    assert _fixed_count(sixteen_qubit, batch_size=1) == one_row
    assert _fixed_count(sixteen_qubit, batch_size=2) == one_row
    assert one_row == scalar_fidelities(sixteen_qubit, NoiseModel(), SEED, NUM_TRAJECTORIES)


def test_prescan_clean_fidelities_match_fixed_count(sixteen_qubit):
    """The adaptive prescan's clean fidelities are the fixed-count ones."""
    fixed = _fixed_count(sixteen_qubit)
    simulator = TrajectorySimulator(NoiseModel(), rng=SEED)
    streams = simulator.rng.spawn(NUM_TRAJECTORIES)
    program = simulator.program_for(sixteen_qubit)
    prescan = prescan_trajectories(
        sixteen_qubit,
        simulator.noise_model,
        program,
        streams,
        _default_state_sampler(sixteen_qubit, program.dims),
    )
    clean_rows = np.flatnonzero(prescan.clean)
    assert clean_rows.size >= 2  # the whole round shares one prescan block
    for row in clean_rows:
        assert float(prescan.clean_fidelity[row]) == fixed[row], row
