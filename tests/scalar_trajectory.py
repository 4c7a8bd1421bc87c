"""Frozen scalar trajectory loop: the anchor for the block-engine tests.

``repro`` runs every trajectory through
:class:`~repro.noise.batched.BatchedTrajectoryEngine`, in blocks of one row
or more.  This module is a frozen one-statevector loop (numpy only), so the
equivalence suites compare the engine against an independent executor: per
trajectory it applies :func:`~repro.noise.program.apply_kernel` gate by
gate, draws the depolarizing error and the idle-damping outcome from the
trajectory's own stream in program order, and measures the fidelity against
the noise-free evolution of the same input.

The loop shares the one-statevector kernel and idle helpers of
:mod:`repro.noise.program` with the engine; what it pins independently is
everything the engine adds on top of them: blocking, per-row draw order,
the grouped idle updates and the fidelity overlap.
"""

from __future__ import annotations

import numpy as np

from repro.core.physical import PhysicalCircuit
from repro.noise.model import NoiseModel
from repro.noise.program import (
    GateStep,
    IdleStep,
    TrajectoryProgram,
    apply_kernel,
    compile_program,
    device_populations,
    draw_idle_choice,
    jump_scale,
    no_jump_scales,
    sample_gate_error,
)
from repro.noise.trajectory import _default_state_sampler
from repro.qudit.states import apply_unitary, fidelity


def run_ideal(program: TrajectoryProgram, initial_state: np.ndarray) -> np.ndarray:
    """Evolve one statevector through the program without noise."""
    state = np.asarray(initial_state, dtype=np.complex128).copy()
    for step in program.ideal_steps:
        state = apply_kernel(state, step.kernel, program.dims)
    return state


def apply_idle(state: np.ndarray, step: IdleStep, rng: np.random.Generator) -> np.ndarray:
    """Apply one idle-damping event to one statevector."""
    populations = device_populations(state, step)
    choice = draw_idle_choice(step, populations, rng)
    if choice is None:
        return state
    left, d, right = step.reshape
    tensor = state.reshape(left, d, right)
    if choice == 0:
        scales = no_jump_scales(step, populations)
        if scales is None:
            return state
        return (tensor * scales[None, :, None]).reshape(-1)
    scale = jump_scale(step, choice, populations)
    if scale is None:
        return state
    out = np.zeros_like(tensor)
    out[:, 0, :] = tensor[:, choice, :] * scale
    return out.reshape(-1)


def run_trajectory(
    program: TrajectoryProgram, initial_state: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Evolve one noisy trajectory, drawing its decisions from ``rng``."""
    state = np.asarray(initial_state, dtype=np.complex128).copy()
    for step in program.steps:
        if isinstance(step, GateStep):
            state = apply_kernel(state, step.kernel, program.dims)
            if step.error_dims is not None:
                error = sample_gate_error(step, program.dims, rng)
                if error is not None:
                    state = apply_unitary(state, error, step.op.devices, program.dims)
        else:
            state = apply_idle(state, step, rng)
    return state


def scalar_fidelities(
    physical: PhysicalCircuit,
    noise_model: NoiseModel,
    seed: int,
    num_trajectories: int,
    fuse: bool = True,
) -> list[float]:
    """Per-trajectory fidelities of the scalar loop.

    Streams are spawned from ``default_rng(seed)`` and inputs drawn with the
    default Haar sampler, exactly as
    ``TrajectorySimulator(noise_model, rng=seed).average_fidelity(...)``
    does, so the two lists are comparable element by element.  The sampler
    embeds each input on the program's (truncated) register.
    """
    program = compile_program(physical, noise_model, fuse=fuse)
    sampler = _default_state_sampler(physical, program.dims)
    fidelities = []
    for stream in np.random.default_rng(seed).spawn(num_trajectories):
        initial = sampler(stream)
        ideal = run_ideal(program, initial)
        noisy = run_trajectory(program, initial, stream)
        fidelities.append(fidelity(ideal, noisy))
    return fidelities
