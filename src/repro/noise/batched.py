"""Vectorized trajectory engine: evolve a ``(batch, dim)`` block at once.

This is the one trajectory engine: fixed-count runs
(:meth:`~repro.noise.trajectory.TrajectorySimulator.average_fidelity`, one
row per block by default) and the adaptive checkpoint resume both step
their trajectories through it.  It executes a
compiled :class:`~repro.noise.program.TrajectoryProgram` and applies every
kernel to a whole block of statevectors: one gather / broadcast multiply /
einsum / GEMM per scheduled event instead of one per event per trajectory.
Stochastic noise decisions are drawn per trajectory from per-trajectory RNG
streams, then trajectories are grouped by outcome so the (almost always
unanimous) no-jump damping update is still a single fused multiply across
the batch.

Row ``i`` of every batched kernel and idle contraction performs the same
floating-point operations in the same order whatever the block size (see
:mod:`repro.noise.program`), so any block size gives the same bits as
one-row blocks under the same seed — enforced by
``tests/test_batched_trajectory.py`` against a frozen scalar trajectory
loop kept in the tests, and by ``tests/test_block_size_invariance.py`` on
registers of 2^15 and more amplitudes.

The block holds the program's register, truncated to the levels its
trajectories can reach (:mod:`repro.noise.program`); input states enter it
through :meth:`~repro.noise.program.TrajectoryProgram.restrict`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.physical import PhysicalCircuit
from repro.noise.model import NoiseModel
from repro.noise.program import (
    GateStep,
    IdleStep,
    TrajectoryProgram,
    apply_kernel_batch,
    cached_compile_program,
    device_populations_batch,
    draw_idle_choice,
    jump_scale,
    no_jump_scales,
    sample_gate_error,
)
from repro.qudit.states import apply_unitary, fidelity

__all__ = ["BatchedTrajectoryEngine"]


class BatchedTrajectoryEngine:
    """Evolve batches of statevectors through a compiled trajectory program."""

    def __init__(
        self,
        physical: PhysicalCircuit,
        noise_model: NoiseModel | None = None,
        program: TrajectoryProgram | None = None,
    ):
        self.physical = physical
        self.noise_model = noise_model or NoiseModel()
        self.program = program or cached_compile_program(physical, self.noise_model)

    # -- noise events ------------------------------------------------------------
    def _apply_idle(
        self,
        states: np.ndarray,
        step: IdleStep,
        streams: Sequence[np.random.Generator],
    ) -> np.ndarray:
        batch = states.shape[0]
        left, d, right = step.reshape
        # Row i of the populations is device_populations of row i, bit for
        # bit, at any block size (pinned by the block-size invariance suite
        # and the fast-path property tests).
        populations = device_populations_batch(states, step)

        # Per-level scale of each trajectory's update; identity rows (skipped
        # draws) keep scale 1, which multiplies exactly.  Jumps are rare and
        # are rebuilt per affected row below.
        scales = np.ones((batch, d))
        jumps: list[tuple[int, int, float]] = []
        for index in range(batch):
            choice = draw_idle_choice(step, populations[index], streams[index])
            if choice is None:
                continue
            if choice == 0:
                row_scales = no_jump_scales(step, populations[index])
                if row_scales is not None:
                    scales[index] = row_scales
                continue
            scale = jump_scale(step, choice, populations[index])
            if scale is not None:
                jumps.append((index, choice, scale))
                scales[index] = 1.0  # row is rewritten wholesale below

        tensor = states.reshape(batch, left, d, right)
        np.multiply(tensor, scales[:, None, :, None], out=tensor)
        for index, choice, scale in jumps:
            # The jump row was multiplied by exactly 1.0 above, so it still
            # holds the pre-event amplitudes bit for bit.
            row = states[index].reshape(left, d, right)
            out = np.zeros_like(row)
            out[:, 0, :] = row[:, choice, :] * scale
            tensor[index] = out
        return states

    def _apply_gate_error(
        self,
        states: np.ndarray,
        step: GateStep,
        streams: Sequence[np.random.Generator],
    ) -> np.ndarray:
        dims = self.program.dims
        for index in range(states.shape[0]):
            error = sample_gate_error(step, dims, streams[index])
            if error is None:
                continue
            states[index] = apply_unitary(states[index], error, step.op.devices, dims)
        return states

    # -- execution ---------------------------------------------------------------
    def run_ideal(self, states: np.ndarray) -> np.ndarray:
        """Evolve a ``(batch, dim)`` block without noise.

        Rows may be on the full physical register or on the program's
        register; the result comes back on the same one.
        """
        width = states.shape[1]
        states = self.program.restrict(states)
        scratch = np.empty_like(states)
        for step in self.program.ideal_steps:
            result = apply_kernel_batch(states, step.kernel, self.program.dims, out=scratch)
            if result is scratch:
                states, scratch = scratch, states
            else:
                states = result  # in-place kernels return states; others may be fresh
        return self._on_width(states, width)

    def run_trajectories(
        self, states: np.ndarray, streams: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Evolve a ``(batch, dim)`` block with per-trajectory stochastic noise."""
        return self.resume_trajectories(states, streams, start=0)

    def resume_trajectories(
        self,
        states: np.ndarray,
        streams: Sequence[np.random.Generator],
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """Evolve a block through the program's steps ``[start, stop)``.

        This is how the adaptive mode resumes deviating trajectories
        (:func:`repro.noise.fastpath.run_fastpath_fidelities`): whole
        sub-batches restored from a checkpoint re-enter the unmodified
        per-step loop at their first-deviation segment, with each row's live
        stream already advanced to that point (later-deviating sub-batches
        are concatenated at their own segment boundary, so one growing block
        replays every suffix).  ``start=0``/``stop=None`` is the full
        :meth:`run_trajectories` evolution.  Rows may be on the full
        physical register or on the program's register; the result comes
        back on the same one.
        """
        if states.shape[0] != len(streams):
            raise ValueError("need exactly one RNG stream per trajectory")
        if not 0 <= start <= len(self.program.steps):
            raise ValueError(f"start must be a step index, got {start}")
        width = states.shape[1]
        states = self.program.restrict(states)
        scratch = np.empty_like(states)
        for step in self.program.steps[start:stop]:
            if isinstance(step, GateStep):
                result = apply_kernel_batch(states, step.kernel, self.program.dims, out=scratch)
                if result is scratch:
                    states, scratch = scratch, states
                else:
                    states = result  # in-place kernels return states; others may be fresh
                if step.error_dims is not None:
                    states = self._apply_gate_error(states, step, streams)
            else:
                states = self._apply_idle(states, step, streams)
        return self._on_width(states, width)

    def _on_width(self, states: np.ndarray, width: int) -> np.ndarray:
        """The block zero-filled onto the full register when the caller's rows
        were ``width`` amplitudes wide and the program's are not."""
        if width != states.shape[1]:
            states = self.program.expand(states)
        return states

    def run_fidelities(
        self,
        streams: Sequence[np.random.Generator],
        sampler: Callable[[np.random.Generator], np.ndarray],
    ) -> list[float]:
        """Sample one initial state per stream and return per-trajectory fidelities.

        Each stream is consumed in the same order at any block size: first
        the initial-state draw, then that trajectory's noise decisions.  The
        drawn states are cut down to the program's register once, so both
        evolutions and the overlaps run on it.
        """
        initials = self.program.restrict(np.array([sampler(stream) for stream in streams]))
        ideal = self.run_ideal(initials)
        noisy = self.run_trajectories(initials, streams)
        # The overlap is taken on fresh copies: BLAS dot products are
        # sensitive to the 64-byte phase of their operands, and row views of
        # the batch land on varying phases depending on the block size.
        return [
            fidelity(np.array(ideal[i]), np.array(noisy[i])) for i in range(len(streams))
        ]
