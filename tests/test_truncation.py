"""Support-truncated registers against the full-level engine.

A compiled program simulates only the levels its trajectories can reach
(:mod:`repro.noise.program`).  These tests pin what that may and may not
change:

* on every Fig. 7 point of sizes 5 and 7 and on a size-9 subset, each
  stream's fidelity equals the full-level engine's within 1e-12 under the
  same seed, with identical idle and error draw decisions,
* points whose support is already full keep the untruncated engine's bits,
* every restricted kernel is unitary on the truncated register, and an
  input with amplitude outside it raises instead of being dropped,
* the sweep's automatic block size reads the truncated register.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

import repro.noise.batched as batched_module
import repro.noise.program as program_module
from repro.core.encoding import Placement, embed_logical_state
from repro.core.gateset import GateClass
from repro.core.physical import PhysicalCircuit, PhysicalOp, Slot
from repro.experiments.fidelity_sweep import fidelity_sweep_points
from repro.experiments.sweep import SweepPoint, _compiled, evaluate_point
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.model import NoiseModel
from repro.noise.program import GateStep, compile_program
from repro.noise.trajectory import TrajectorySimulator, _default_state_sampler
from repro.qudit.random import haar_random_state
from repro.topology.device import CoherenceModel

#: A model whose idle windows jump often, so the draw logs hold jumps.
JUMPY = NoiseModel(coherence=CoherenceModel(base_t1_ns=300.0))


def _physical(point):
    return _compiled(
        point.workload, point.size, point.workload_kwargs, point.strategy, point.error_factor
    ).physical_circuit


def _full_level_program(physical, noise_model, monkeypatch):
    """The program compiled on every level of every device (no truncation)."""
    with monkeypatch.context() as patch:
        patch.setattr(program_module, "_initial_levels", lambda physical: list(physical.device_dims))
        program = compile_program(physical, noise_model)
    assert program.dims == physical.device_dims
    return program


def _logged_run(physical, noise_model, program, seed, count, monkeypatch):
    """Per-stream fidelities and the ordered log of every stochastic decision."""
    log = []
    draw_idle_choice = batched_module.draw_idle_choice
    sample_error_indices = program_module._sample_error_indices

    def idle(step, populations, rng):
        choice = draw_idle_choice(step, populations, rng)
        log.append(("idle", step.device, choice))
        return choice

    def error(dims, rate, rng):
        indices = sample_error_indices(dims, rate, rng)
        log.append(("error", dims, indices))
        return indices

    engine = BatchedTrajectoryEngine(physical, noise_model, program=program)
    sampler = _default_state_sampler(physical, program.dims)
    fidelities = []
    with monkeypatch.context() as patch:
        patch.setattr(batched_module, "draw_idle_choice", idle)
        patch.setattr(program_module, "_sample_error_indices", error)
        for stream in np.random.default_rng(seed).spawn(count):
            fidelities.extend(engine.run_fidelities([stream], sampler))
    return fidelities, log


def _assert_matches_full_level(physical, noise_model, seed, count, monkeypatch):
    truncated = compile_program(physical, noise_model)
    full = _full_level_program(physical, noise_model, monkeypatch)
    got, got_log = _logged_run(physical, noise_model, truncated, seed, count, monkeypatch)
    want, want_log = _logged_run(physical, noise_model, full, seed, count, monkeypatch)
    assert got_log == want_log
    assert np.allclose(got, want, rtol=0.0, atol=1e-12), np.max(np.abs(np.subtract(got, want)))
    return truncated, got_log


FIG7_SMALL = fidelity_sweep_points(sizes=(5, 7), num_trajectories=4, rng=0)


@pytest.mark.parametrize("point", FIG7_SMALL, ids=[f"{p.workload}-{p.size}-{p.strategy}" for p in FIG7_SMALL])
def test_fig7_points_match_the_full_level_engine(point, monkeypatch):
    physical = _physical(point)
    _assert_matches_full_level(physical, NoiseModel(), point.seed, 4, monkeypatch)
    _, log = _assert_matches_full_level(physical, JUMPY, point.seed, 4, monkeypatch)
    assert any(kind == "idle" and choice not in (0, None) for kind, _, choice in log)


FIG7_NINE = [
    SweepPoint(workload="qram", size=9, strategy="MIXED_RADIX_CCZ", seed=3),
    SweepPoint(workload="cnu", size=9, strategy="MIXED_RADIX_CCX", seed=4),
    SweepPoint(workload="cuccaro", size=9, strategy="FULL_QUQUART", seed=5),
]


@pytest.mark.parametrize("point", FIG7_NINE, ids=[f"{p.workload}-{p.size}-{p.strategy}" for p in FIG7_NINE])
def test_size_nine_points_match_the_full_level_engine(point, monkeypatch):
    physical = _physical(point)
    truncated, _ = _assert_matches_full_level(physical, JUMPY, point.seed, 2, monkeypatch)
    assert math.prod(truncated.dims) < math.prod(physical.device_dims)


#: SHA-256 over the fidelities (``float.hex``) of the Fig. 7 QUBIT_ONLY,
#: QUBIT_ITOFFOLI and FULL_QUQUART points of sizes 5 and 7, 3 trajectories,
#: grid seed 0, computed by the engine before registers were truncated.
UNTRUNCATED_FIDELITIES = "3bfda30fb0c32f2d4b60e84f14c3ea59a8a768e9b7e8a9c1c7c0287f1d403afc"


def test_full_support_points_keep_the_untruncated_bits():
    points = [
        point
        for point in fidelity_sweep_points(sizes=(5, 7), num_trajectories=3, rng=0)
        if point.strategy in ("QUBIT_ONLY", "QUBIT_ITOFFOLI", "FULL_QUQUART")
    ]
    digest = hashlib.sha256()
    full_support = 0
    for point in points:
        physical = _physical(point)
        program = TrajectorySimulator(NoiseModel()).program_for(physical)
        full_support += program.dims == physical.device_dims
        fidelities = evaluate_point(point).simulation.fidelities
        digest.update(";".join(value.hex() for value in fidelities).encode())
    assert full_support >= len(points) - 2  # cuccaro FULL_QUQUART is truncated
    assert digest.hexdigest() == UNTRUNCATED_FIDELITIES


def test_restricted_kernels_are_unitary():
    """The truncated register is closed under every op, so ``P U P`` is unitary."""
    for point in fidelity_sweep_points(sizes=(5, 7), num_trajectories=1, rng=0):
        program = compile_program(_physical(point), NoiseModel(), fuse=False)
        for step in program.ideal_steps:
            unitary = step.kernel.unitary
            identity = np.eye(unitary.shape[0])
            assert np.allclose(unitary.conj().T @ unitary, identity), (point, step.op.label)


def test_qubit_mode_draw_fills_a_device_holding_level_two():
    """A qubit-mode Weyl draw acts on a ququart's slot-1 qubit: level 2 pairs with 3."""
    physical = PhysicalCircuit(1, device_dims=4, num_logical_qubits=1, name="lone-slot-0")
    physical.initial_placement = Placement({0: Slot(0, 0)})  # levels 0 and 2
    physical.append(
        PhysicalOp(
            label="Z",
            logical_name="Z",
            devices=(0,),
            operand_slots=((0, 0),),
            duration_ns=50.0,
            error_rate=0.1,
            gate_class=GateClass.SINGLE_QUBIT,
        )
    )
    quiet = NoiseModel(depolarizing_enabled=False)
    assert compile_program(physical, quiet).dims == (3,)
    program = compile_program(physical, NoiseModel())
    (step,) = [step for step in program.steps if isinstance(step, GateStep)]
    assert step.error_dims == (2,)  # a qubit-mode draw
    assert program.dims == (4,)
    assert any(program_module._error_factor(2, 4, k)[3, 2] != 0 for k in range(4))


@pytest.fixture(scope="module")
def truncated_point():
    point = SweepPoint(workload="cnu", size=5, strategy="MIXED_RADIX_CCZ", seed=1)
    physical = _physical(point)
    program = compile_program(physical, NoiseModel())
    assert math.prod(program.dims) < math.prod(physical.device_dims)
    return physical, program


def test_default_sampler_embeds_like_embed_logical_state(truncated_point):
    physical, program = truncated_point
    full = _default_state_sampler(physical)(np.random.default_rng(8))
    logical = haar_random_state(2**physical.num_logical_qubits, np.random.default_rng(8))
    expected = embed_logical_state(logical, physical.initial_placement, physical.device_dims)
    assert np.array_equal(full, expected)
    truncated = _default_state_sampler(physical, program.dims)(np.random.default_rng(8))
    assert np.array_equal(program.restrict(full[None, :])[0], truncated)
    assert np.array_equal(program.expand(truncated[None, :])[0], full)


def test_sampler_outside_the_support_raises(truncated_point):
    physical, program = truncated_point

    def full_space(rng):
        return haar_random_state(physical.device_dims, rng)

    simulator = TrajectorySimulator(NoiseModel(), rng=0)
    with pytest.raises(ValueError, match="outside the levels"):
        simulator.average_fidelity(physical, 2, initial_state_sampler=full_space)
    engine = BatchedTrajectoryEngine(physical, NoiseModel(), program=program)
    state = full_space(np.random.default_rng(1))[None, :]
    with pytest.raises(ValueError, match="outside the levels"):
        engine.run_ideal(state)
    with pytest.raises(ValueError, match="amplitudes"):
        engine.run_ideal(state[:, :7])


def test_full_register_rows_come_back_on_the_full_register(truncated_point):
    physical, program = truncated_point
    engine = BatchedTrajectoryEngine(physical, NoiseModel.noiseless(), program=program)
    full = _default_state_sampler(physical)(np.random.default_rng(2))[None, :]
    on_register = program.restrict(full)
    assert engine.run_ideal(full).shape == full.shape
    assert np.array_equal(engine.run_ideal(full), program.expand(engine.run_ideal(on_register)))
    streams = np.random.default_rng(3).spawn(1)
    assert engine.run_trajectories(full, streams).shape == full.shape


def test_auto_block_size_reads_the_truncated_register(monkeypatch):
    """Size-9 mixed-radix points batch their trajectories; bits do not move."""
    point = SweepPoint(workload="qram", size=9, strategy="MIXED_RADIX_CCZ", num_trajectories=3, seed=6)
    seen = []
    average_fidelity = TrajectorySimulator.average_fidelity

    def spy(self, physical, *args, **kwargs):
        seen.append(kwargs.get("batch_size"))
        return average_fidelity(self, physical, *args, **kwargs)

    monkeypatch.setattr(TrajectorySimulator, "average_fidelity", spy)
    auto = evaluate_point(point).simulation.fidelities
    rows = evaluate_point(replace(point, batch_size=None)).simulation.fidelities
    assert seen == [3, None]
    assert auto == rows
