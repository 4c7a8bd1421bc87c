"""Trajectory-method noisy simulation (Section 6.4).

Each trajectory evolves a pure statevector through the compiled physical
circuit.  Errors are injected stochastically:

* **idle decoherence** — immediately before each gate, every participating
  device suffers amplitude damping for exactly the time it has been idle
  since its previous gate (the paper's modification of the trajectory
  method: one idle "gate" with the exact accumulated idle time, instead of
  many per-timestep insertions),
* **gate error** — after the gate's ideal unitary, a symmetric depolarizing
  error over the participating devices is drawn with the op's calibrated
  error probability.

Fidelity is measured against the noise-free evolution of the same physical
circuit from the same (random) input state, averaged over many random input
states as in the paper's evaluation.

Every trajectory runs through one engine,
:class:`~repro.noise.batched.BatchedTrajectoryEngine`, which executes a
compiled :class:`~repro.noise.program.TrajectoryProgram` (ops flattened into
gate/idle events with structured kernels, built once per physical circuit)
on a ``(batch, dim)`` block.  ``average_fidelity(..., batch_size=k)`` hands
it blocks of ``k`` trajectories; the default ``batch_size=None`` runs blocks
of one.  Every block size gives the same bits as one-row blocks under the
same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.compiler import CompilationResult
from repro.core.physical import PhysicalCircuit
from repro.noise.model import NoiseModel
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.program import TrajectoryProgram, cached_compile_program, placement_levels
from repro.qudit.random import haar_random_state

__all__ = ["TrajectoryResult", "TrajectorySimulator", "simulate_fidelity"]


@dataclass
class TrajectoryResult:
    """Aggregate of many noisy trajectories of one compiled circuit."""

    fidelities: list[float] = field(default_factory=list)

    @property
    def num_trajectories(self) -> int:
        return len(self.fidelities)

    @property
    def mean_fidelity(self) -> float:
        """Average state fidelity over all trajectories."""
        if not self.fidelities:
            raise ValueError("no trajectories recorded")
        return float(np.mean(self.fidelities))

    @property
    def std_error(self) -> float:
        """Standard error of the mean (the paper's error bars)."""
        if len(self.fidelities) < 2:
            return 0.0
        return float(np.std(self.fidelities, ddof=1) / math.sqrt(len(self.fidelities)))


class TrajectorySimulator:
    """Statevector simulator with stochastic qudit noise.

    ``fuse=False`` disables compile-time monomial fusion — results are
    bit-for-bit identical either way, the knob exists for A/B testing.
    """

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        rng: np.random.Generator | int | None = None,
        fuse: bool = True,
    ):
        self.noise_model = noise_model or NoiseModel()
        self.rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self.fuse = fuse
        self._programs: dict[tuple[int, int, bool], TrajectoryProgram] = {}

    # -- program compilation ----------------------------------------------------------
    def program_for(self, physical: PhysicalCircuit) -> TrajectoryProgram:
        """Return the compiled trajectory program for a circuit (memoized).

        Compilation goes through :func:`repro.noise.program.cached_compile_program`,
        so with ``$REPRO_CACHE_DIR`` set the program is shared on disk across
        processes; the per-simulator memo below stays the fast path.
        """
        key = (id(physical), physical.version, self.fuse)
        program = self._programs.get(key)
        if program is None:
            program = cached_compile_program(physical, self.noise_model, fuse=self.fuse)
            self._programs.clear()  # one circuit at a time is the common case
            self._programs[key] = program
        return program

    # -- fidelity estimation -------------------------------------------------------------------
    def average_fidelity(
        self,
        physical: PhysicalCircuit,
        num_trajectories: int | str = 100,
        initial_state_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
        batch_size: int | None = None,
        workers: int | str | None = None,
        target_stderr: float | None = None,
    ) -> TrajectoryResult:
        """Average trajectory fidelity over random input states.

        By default the input of each trajectory is a Haar-random *logical*
        state embedded into the physical register according to the circuit's
        initial placement (unused slots in |0>), matching the paper's use of
        random quantum input states.

        Every trajectory draws from its own child RNG stream (spawned from
        the simulator's generator), so the result depends only on the seed
        and the trajectory index.  ``batch_size=k`` hands blocks of ``k``
        trajectories to the vectorized
        :class:`~repro.noise.batched.BatchedTrajectoryEngine`;
        ``batch_size=None`` evolves one statevector per block.  Every block
        size is bit-for-bit equivalent under the same seed.

        ``workers=n`` splits the spawned streams across ``n`` processes
        (``"auto"``: one per CPU).  Each trajectory still consumes exactly
        its own stream, so the fidelities are bit-for-bit identical to the
        ``workers=1`` path for every worker count — only wall-clock changes.
        Custom ``initial_state_sampler`` callables must be picklable when
        the platform lacks ``fork`` (the default sampler always works).

        ``target_stderr`` opts into the adaptive sampling mode
        (:mod:`repro.noise.adaptive`): trajectories run in deterministic
        rounds until the estimator's standard error reaches the target, and
        an integer ``num_trajectories`` becomes the hard cap
        (``num_trajectories="auto"`` uses ``REPRO_ADAPTIVE_MAX_TRAJ``).  The
        returned :class:`~repro.noise.adaptive.AdaptiveResult` is
        reproducible like the fixed-count path — same seed and config give
        identical numbers for any worker count — but is
        a *statistical estimator*, not the plain trajectory mean.
        """
        if target_stderr is not None or num_trajectories == "auto":
            if target_stderr is None:
                raise ValueError('num_trajectories="auto" requires target_stderr')
            if batch_size is not None and batch_size < 1:
                raise ValueError("batch_size must be at least 1")
            from repro.noise.adaptive import adaptive_average_fidelity

            if num_trajectories == "auto":
                cap = None
            else:
                if not isinstance(num_trajectories, int):
                    raise ValueError(
                        f'num_trajectories must be an int or "auto", got {num_trajectories!r}'
                    )
                if num_trajectories < 1:
                    raise ValueError("need at least one trajectory")
                cap = num_trajectories
            return adaptive_average_fidelity(
                self,
                physical,
                target_stderr=target_stderr,
                max_trajectories=cap,
                initial_state_sampler=initial_state_sampler,
                batch_size=batch_size,
                workers=workers,
            )
        if not isinstance(num_trajectories, int):
            raise ValueError(
                f'num_trajectories must be an int or "auto", got {num_trajectories!r}'
            )
        if num_trajectories < 1:
            raise ValueError("need at least one trajectory")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        from repro.noise.parallel import resolve_workers

        workers = resolve_workers(workers)
        streams = self.rng.spawn(num_trajectories)
        if workers > 1 and num_trajectories > 1:
            from repro.noise.parallel import run_parallel_fidelities

            fidelities = run_parallel_fidelities(
                physical=physical,
                noise_model=self.noise_model,
                streams=streams,
                sampler=initial_state_sampler,  # None: workers rebuild the default
                batch_size=batch_size,
                workers=workers,
                fuse=self.fuse,
            )
            return TrajectoryResult(fidelities=fidelities)
        sampler = initial_state_sampler or _default_state_sampler(physical, self.program_for(physical).dims)
        return TrajectoryResult(
            fidelities=self._fidelities_for_streams(physical, streams, sampler, batch_size)
        )

    def _fidelities_for_streams(
        self,
        physical: PhysicalCircuit,
        streams: Sequence[np.random.Generator],
        sampler: Callable[[np.random.Generator], np.ndarray],
        batch_size: int | None,
    ) -> list[float]:
        """Per-trajectory fidelities of pre-spawned streams (single process).

        This is the common core of the single-core path and of every worker
        of the multi-core runner: one stream in, one fidelity out.  Streams
        run through the engine in blocks of ``batch_size`` (``None``: one
        trajectory per block), and every block size gives the same bits.
        """
        engine = BatchedTrajectoryEngine(
            physical, self.noise_model, program=self.program_for(physical)
        )
        block = batch_size if batch_size is not None else 1
        fidelities: list[float] = []
        for start in range(0, len(streams), block):
            fidelities.extend(engine.run_fidelities(streams[start : start + block], sampler))
        return fidelities


def _default_state_sampler(
    physical: PhysicalCircuit, dims: Sequence[int] | None = None
) -> Callable[[np.random.Generator], np.ndarray]:
    """Return a sampler producing Haar-random logical states embedded physically.

    ``dims`` is the register the states land on: a program's truncated
    levels (``TrajectoryProgram.dims``), by default the full physical
    register.  Either way a draw consumes the same logical Haar sample and
    puts each amplitude on the levels
    :func:`~repro.core.encoding.embed_logical_state` puts it on; every other
    amplitude is zero.
    """
    levels = placement_levels(physical)
    if levels is None:
        # Fall back to Haar-random states over the full physical space.
        return lambda rng: haar_random_state(physical.device_dims, rng)
    dims = tuple(physical.device_dims) if dims is None else tuple(dims)
    index = np.ravel_multi_index(tuple(levels), dims)
    size = math.prod(dims)

    def sampler(rng: np.random.Generator) -> np.ndarray:
        state = np.zeros(size, dtype=np.complex128)
        state[index] = haar_random_state(levels.shape[1], rng)
        return state

    return sampler


def simulate_fidelity(
    compiled: CompilationResult | PhysicalCircuit,
    noise_model: NoiseModel | None = None,
    num_trajectories: int = 100,
    rng: np.random.Generator | int | None = None,
    batch_size: int | None = None,
    workers: int | str | None = None,
) -> TrajectoryResult:
    """Convenience wrapper: average noisy fidelity of a compiled circuit."""
    physical = compiled.physical_circuit if isinstance(compiled, CompilationResult) else compiled
    simulator = TrajectorySimulator(noise_model=noise_model, rng=rng)
    return simulator.average_fidelity(
        physical,
        num_trajectories=num_trajectories,
        batch_size=batch_size,
        workers=workers,
    )
