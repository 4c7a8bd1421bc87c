"""Adaptive prescan and checkpoint resume: the no-jump draw replay.

At the paper's calibrated error rates most trajectories draw zero or only a
handful of jumps, so most of a trajectory's kernel applications follow the
*deterministic* no-jump evolution of its input state.  The adaptive
sampling mode (:mod:`repro.noise.adaptive`) exploits that in two steps per
round:

* :func:`prescan_trajectories` evolves the no-jump path of every input state
  once, as one sub-batch, into a :class:`NoJumpRecord`: statevector
  **checkpoints** at a fixed stride, the **per-idle-step device
  populations** and **no-jump scales**, the no-jump **final state** and the
  **ideal final state**.  It then replays each trajectory's stochastic
  decisions against the recorded populations with a *cloned* RNG
  (``bit_generator.state`` is an exact snapshot, and
  ``Generator.random(size=n)`` returns the identical values as ``n`` scalar
  draws — both properties are regression-tested), so the first deviation —
  the first amplitude-damping jump or depolarizing gate error — is located
  **without touching a statevector or a live stream**.  Per trajectory it
  reports whether it stays clean, its exact clean probability and its clean
  fidelity; per deviating trajectory it returns a :class:`Resume`: the
  record, the checkpoint boundary at its first-deviation segment and the
  uniforms drawn before that boundary.
* :func:`run_fastpath_fidelities` resumes the deviating trajectories: it
  advances each live stream past its state draw and the counted uniforms,
  restores the checkpoint, and steps sub-batches grouped by restore
  boundary through the unmodified engine to the end.

Resumed fidelities are **bit-for-bit** the explicit engine's for the same
stream: the no-jump prefix is the same sequence of floating-point kernel
applications (row ``i`` of every batched kernel and idle contraction gives
the same bits at any block size — the standing block-size invariant), the
replay performs the
identical float comparisons on the identical uniforms, and the suffix runs
the unmodified engine from a bit-identical state and stream position
(``tests/test_fastpath.py``).

Records are never keyed, stored or persisted: they live for the adaptive
round that built them.  Fixed-count runs never come here; they run the
explicit engines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.noise.program import (
    GateStep,
    IdleStep,
    TrajectoryProgram,
    apply_kernel_batch,
    device_populations_batch,
    no_jump_scales_batch,
)

__all__ = [
    "FastpathStats",
    "NoJumpRecord",
    "Resume",
    "TrajectoryPrescan",
    "checkpoint_stride",
    "prescan_trajectories",
    "reset_fastpath",
    "run_fastpath_fidelities",
    "stats",
]

#: Number of segments a program is split into (bounds checkpoint memory per
#: record and the length a deviating trajectory replays from its restore).
_DEFAULT_SEGMENTS = 8


def checkpoint_stride(num_steps: int) -> int:
    """Checkpoint stride in program steps.

    Splits the program into at most :data:`_DEFAULT_SEGMENTS` segments but
    never strides finer than 8 steps.
    """
    return max(8, math.ceil(num_steps / _DEFAULT_SEGMENTS)) if num_steps else 1


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


@dataclass
class FastpathStats:
    """Process-wide prescan/resume counters (per-process; workers keep their own).

    ``trajectories`` counts trajectories the prescan classified and
    ``clean`` those it found clean; ``records_built`` counts no-jump records
    (one per prescanned trajectory).  ``resumed`` counts deviating
    trajectories resumed in process; ``suffix_steps`` the steps they ran
    through the engine and ``prefix_steps_reused`` the steps their restored
    checkpoints skipped.  ``record_memory_hits`` and ``record_disk_hits``
    always read 0: records live for one round and are never looked up.
    """

    trajectories: int = 0
    clean: int = 0
    records_built: int = 0
    record_memory_hits: int = 0
    record_disk_hits: int = 0
    resumed: int = 0
    suffix_steps: int = 0
    prefix_steps_reused: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


STATS = FastpathStats()


def stats() -> dict:
    """Snapshot of the process-wide prescan/resume counters."""
    return STATS.as_dict()


def reset_fastpath() -> None:
    """Zero the counters (test/benchmark isolation)."""
    STATS.__init__()


# ---------------------------------------------------------------------------
# draw schedule
# ---------------------------------------------------------------------------


@dataclass
class DrawSchedule:
    """The program's RNG-consumption plan, derived once per program.

    One *event* is one stochastic decision in step order: a depolarizing
    draw after a gate step with an error channel, or an idle-damping draw.
    Gate events always consume exactly one uniform (the fired branch then
    consumes more, but firing *is* the deviation, which ends the replay);
    idle events consume one uniform iff their outcome total is positive —
    a per-trajectory fact read off the recorded populations.
    """

    num_steps: int
    pad_dim: int  # max idle-device dimension; population rows pad to it
    event_step: np.ndarray  # (E,) program step of each event
    event_idle: np.ndarray  # (E,) idle ordinal, -1 for gate-error events
    event_rate: np.ndarray  # (E,) gate error rate, 0.0 for idle events
    idle_steps: list[IdleStep]  # ordinal -> step
    idle_lambdas: np.ndarray  # (I, pad_dim - 1) per-level decay, zero-padded
    events_before: np.ndarray  # (S+1,) events in steps [0, s)
    idles_before: np.ndarray  # (S+1,) idle events in steps [0, s)


def draw_schedule(program: TrajectoryProgram) -> DrawSchedule:
    """Return the program's draw schedule (memoized on the program).

    Idle decay tables are zero-padded to the widest idle device: adding the
    padded ``0.0`` terms is exact in IEEE arithmetic, so the vectorized
    replay accumulates the identical partial sums as the per-step scalar
    walk regardless of each device's true dimension.
    """
    schedule = program.__dict__.get("_draw_schedule")
    if schedule is not None:
        return schedule
    steps = program.steps
    event_step: list[int] = []
    event_idle: list[int] = []
    event_rate: list[float] = []
    idle_steps: list[IdleStep] = []
    events_before = np.zeros(len(steps) + 1, dtype=np.int64)
    idles_before = np.zeros(len(steps) + 1, dtype=np.int64)
    for index, step in enumerate(steps):
        events_before[index] = len(event_step)
        idles_before[index] = len(idle_steps)
        if isinstance(step, GateStep):
            if step.error_dims is not None:
                event_step.append(index)
                event_idle.append(-1)
                event_rate.append(step.error_rate)
        else:
            event_step.append(index)
            event_idle.append(len(idle_steps))
            event_rate.append(0.0)
            idle_steps.append(step)
    events_before[len(steps)] = len(event_step)
    idles_before[len(steps)] = len(idle_steps)
    pad_dim = max((step.dim for step in idle_steps), default=1)
    idle_lambdas = np.zeros((len(idle_steps), max(pad_dim - 1, 1)))
    for ordinal, step in enumerate(idle_steps):
        idle_lambdas[ordinal, : step.dim - 1] = step.lambdas
    schedule = DrawSchedule(
        num_steps=len(steps),
        pad_dim=pad_dim,
        event_step=np.array(event_step, dtype=np.int64),
        event_idle=np.array(event_idle, dtype=np.int64),
        event_rate=np.array(event_rate, dtype=np.float64),
        idle_steps=idle_steps,
        idle_lambdas=idle_lambdas,
        events_before=events_before,
        idles_before=idles_before,
    )
    program.__dict__["_draw_schedule"] = schedule
    return schedule


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass
class NoJumpRecord:
    """The complete no-jump evolution of one input state through a program.

    ``populations`` and ``scales`` are ``(idles, pad_dim)`` arrays in idle
    order (populations zero-padded, scales one-padded past each device's
    true dimension); ``checkpoints`` holds the no-jump state at every
    interior stride boundary, ``final`` the no-jump final state and
    ``ideal_final`` the noise-free final state of the same input.
    """

    populations: np.ndarray
    scales: np.ndarray
    checkpoints: dict[int, np.ndarray]
    final: np.ndarray
    ideal_final: np.ndarray


@dataclass
class Resume:
    """Where one deviating trajectory re-enters the explicit engine.

    ``restore`` is the checkpoint boundary at the start of its
    first-deviation segment (0: the input state); ``drawn`` is the number
    of uniforms its stream consumed, after the state draw, before that
    boundary.
    """

    record: NoJumpRecord
    restore: int
    drawn: int


def _clone_generator(stream: np.random.Generator) -> np.random.Generator:
    """Exact, independent clone of a generator (state snapshot round-trip)."""
    bit_generator = type(stream.bit_generator)()
    bit_generator.state = stream.bit_generator.state
    return np.random.Generator(bit_generator)


def _build_records(engine, initials: np.ndarray, stride: int) -> list[NoJumpRecord]:
    """Evolve a block of input states along the no-jump path, recording it.

    The same kernels, idle contractions and no-jump multiplies the explicit
    batched engine performs, minus the per-row draw machinery, so every
    recorded array is bit-for-bit what the engine computes on a trajectory
    that has not deviated yet.
    """
    program: TrajectoryProgram = engine.program
    schedule = draw_schedule(program)
    num_steps = schedule.num_steps
    rows = len(initials)
    ideal = engine.run_ideal(initials)
    populations = np.zeros((rows, len(schedule.idle_steps), schedule.pad_dim))
    scales = np.ones_like(populations)
    checkpoints: list[dict[int, np.ndarray]] = [{} for _ in range(rows)]
    work = program.restrict(initials)
    scratch = np.empty_like(work)
    idle_index = 0
    for index, step in enumerate(program.steps):
        if isinstance(step, GateStep):
            result = apply_kernel_batch(work, step.kernel, program.dims, out=scratch)
            if result is scratch:
                work, scratch = scratch, work
            else:
                work = result
        else:
            step_populations = device_populations_batch(work, step)
            step_scales = no_jump_scales_batch(step, step_populations)
            left, d, right = step.reshape
            tensor = work.reshape(rows, left, d, right)
            np.multiply(tensor, step_scales[:, None, :, None], out=tensor)
            populations[:, idle_index, :d] = step_populations
            scales[:, idle_index, :d] = step_scales
            idle_index += 1
        boundary = index + 1
        if boundary < num_steps and boundary % stride == 0:
            for j in range(rows):
                checkpoints[j][boundary] = np.array(work[j])
    return [
        NoJumpRecord(
            populations=populations[j],
            scales=scales[j],
            checkpoints=checkpoints[j],
            final=np.array(work[j]),
            ideal_final=np.array(ideal[j]),
        )
        for j in range(rows)
    ]


def _scan_segment(
    schedule: DrawSchedule,
    records: list[NoJumpRecord],
    probes: list[np.random.Generator],
    active: list[int],
    drawn_at: np.ndarray,
    segment_index: int,
    seg_start: int,
    seg_end: int,
) -> tuple[list[int], list[int]]:
    """Replay one segment's draws for every active row, statelessly.

    Returns ``(survivors, deviated)``: the rows still clean after the
    segment and those whose first deviation falls in it.  Every active
    row's draw count at the next boundary is recorded in ``drawn_at`` —
    the resume skips each live stream to its restore boundary's count, then
    re-consumes the replayed draws for real.
    """
    first_event = int(schedule.events_before[seg_start])
    last_event = int(schedule.events_before[seg_end])
    n_events = last_event - first_event
    if n_events == 0 or not active:
        for i in active:
            drawn_at[i, segment_index + 1] = drawn_at[i, segment_index]
        return list(active), []
    n_rows = len(active)
    event_idle = schedule.event_idle[first_event:last_event]
    event_rate = schedule.event_rate[first_event:last_event]
    idle_columns = event_idle >= 0
    n_idle = int(idle_columns.sum())

    consumes = np.ones((n_rows, n_events), dtype=bool)
    deviates = np.zeros((n_rows, n_events), dtype=bool)
    if n_idle:
        first_idle = int(schedule.idles_before[seg_start])
        populations = np.empty((n_rows, n_idle, schedule.pad_dim))
        for j, i in enumerate(active):
            populations[j] = records[i].populations[first_idle : first_idle + n_idle]
        lambdas = schedule.idle_lambdas[first_idle : first_idle + n_idle]
        # The exact float sequence of draw_idle_choice, vectorized over
        # (row, idle event): zero-padded levels add exact 0.0 terms.  This
        # mirrors idle_no_jump_terms (the per-step reference helper in
        # repro.noise.program, pinned against draw_idle_choice by the
        # property tests) with the event axis added — change both together.
        decay_sum = np.zeros((n_rows, n_idle))
        decay_probs = []
        for level in range(1, schedule.pad_dim):
            decay = lambdas[None, :, level - 1] * populations[:, :, level]
            decay_probs.append(decay)
            decay_sum = decay_sum + decay
        no_decay = 1.0 - decay_sum
        p0 = np.maximum(no_decay, 0.0)  # == Python max(no_decay, 0.0), NaN included
        total = p0.copy()
        for decay in decay_probs:
            total = total + decay
        consumes[:, idle_columns] = ~(total <= 0.0)

    counts = consumes.sum(axis=1)
    uniforms = np.full((n_rows, n_events), np.inf)
    for j, i in enumerate(active):
        if counts[j]:
            uniforms[j, consumes[j]] = probes[i].random(size=int(counts[j]))

    gate_columns = ~idle_columns
    if gate_columns.any():
        deviates[:, gate_columns] = (
            uniforms[:, gate_columns] < event_rate[None, gate_columns]
        )
    if n_idle:
        # The scalar walk takes the no-jump branch iff u*total < p0; the
        # sentinel inf in non-consumed slots is masked out by `consumes`.
        thresholds = uniforms[:, idle_columns] * total
        deviates[:, idle_columns] = consumes[:, idle_columns] & ~(thresholds < p0)

    any_deviation = deviates.any(axis=1)
    survivors: list[int] = []
    deviated: list[int] = []
    for j, i in enumerate(active):
        drawn_at[i, segment_index + 1] = drawn_at[i, segment_index] + int(counts[j])
        (deviated if any_deviation[j] else survivors).append(i)
    return survivors, deviated


# ---------------------------------------------------------------------------
# batch prescan / classification (the adaptive sampling front end)
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryPrescan:
    """Per-trajectory classification of one batch of streams, pre-simulation.

    ``clean[i]`` is whether stream ``i``'s replayed draws never deviate from
    the no-jump path; ``clean_probability[i]`` is the *exact* probability of
    that outcome given the input state (the ordered product of the per-event
    no-jump branch probabilities read off the record — the stratum weight the
    adaptive estimator reweights with, no self-normalization involved);
    ``clean_fidelity[i]`` is the fidelity the trajectory reports *if* it
    stays clean, computed with the identical arithmetic as the explicit
    engines (so it is bit-equal to what any execution mode returns for a
    clean stream).  ``resumes`` holds one :class:`Resume` per deviating
    stream, in ascending stream order.
    """

    clean: np.ndarray  # (n,) bool
    clean_probability: np.ndarray  # (n,) float64
    clean_fidelity: np.ndarray  # (n,) float64
    resumes: list[Resume] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clean)


def prescan_trajectories(
    physical,
    noise_model,
    program: TrajectoryProgram,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
    block_size: int | None = None,
) -> TrajectoryPrescan:
    """Classify a batch of streams against their no-jump records.

    The live streams are never consumed: the input state and every replayed
    draw come from cloned probes, so a caller can afterwards hand the
    untouched streams to :func:`run_fastpath_fidelities` (with
    :attr:`TrajectoryPrescan.resumes`) or to any explicit execution path and
    get the standard result for exactly these trajectories.

    ``block_size=None`` processes all streams as one batch.
    """
    from repro.noise.batched import BatchedTrajectoryEngine

    engine = BatchedTrajectoryEngine(physical, noise_model, program=program)
    chunk = block_size if block_size is not None else max(len(streams), 1)
    if chunk < 1:
        raise ValueError("block_size must be at least 1")
    parts = [
        _prescan_block(engine, streams[start : start + chunk], sampler)
        for start in range(0, len(streams), chunk)
    ]
    if not parts:
        empty = np.empty(0)
        return TrajectoryPrescan(
            clean=np.empty(0, dtype=bool), clean_probability=empty, clean_fidelity=empty
        )
    return TrajectoryPrescan(
        clean=np.concatenate([part.clean for part in parts]),
        clean_probability=np.concatenate([part.clean_probability for part in parts]),
        clean_fidelity=np.concatenate([part.clean_fidelity for part in parts]),
        resumes=[resume for part in parts for resume in part.resumes],
    )


def _prescan_block(
    engine,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
) -> TrajectoryPrescan:
    """One block of :func:`prescan_trajectories`.

    Every row's record is built through the *whole* program, because the
    adaptive estimator needs the clean fidelity and clean probability of
    deviating rows too; the scan's active set shrinks as rows deviate.
    """
    from repro.qudit.states import fidelity

    program: TrajectoryProgram = engine.program
    num_steps = len(program.steps)
    count = len(streams)
    STATS.trajectories += count
    STATS.records_built += count

    probes = [_clone_generator(stream) for stream in streams]
    initials = program.restrict(np.array([sampler(probe) for probe in probes]))
    schedule = draw_schedule(program)
    stride = checkpoint_stride(num_steps)
    records = _build_records(engine, initials, stride)

    boundaries = list(range(0, num_steps, stride)) + [num_steps] if num_steps else [0]
    active = list(range(count))
    drawn_at = np.zeros((count, len(boundaries)), dtype=np.int64)
    clean = np.ones(count, dtype=bool)
    restores: dict[int, tuple[int, int]] = {}  # row -> (restore step, uniforms drawn)
    for segment_index, (seg_start, seg_end) in enumerate(
        zip(boundaries[:-1], boundaries[1:])
    ):
        if not active:
            break
        active, deviated = _scan_segment(
            schedule, records, probes, active, drawn_at, segment_index, seg_start, seg_end
        )
        for row in deviated:
            clean[row] = False
            restores[row] = (seg_start, int(drawn_at[row, segment_index]))
    STATS.clean += int(clean.sum())

    probability = np.empty(count)
    clean_fid = np.empty(count)
    for i, record in enumerate(records):
        probability[i] = _clean_probability(schedule, record)
        clean_fid[i] = fidelity(np.array(record.ideal_final), np.array(record.final))
    return TrajectoryPrescan(
        clean=clean,
        clean_probability=probability,
        clean_fidelity=clean_fid,
        resumes=[Resume(records[row], *restores[row]) for row in sorted(restores)],
    )


def _clean_probability(schedule: DrawSchedule, record: NoJumpRecord) -> float:
    """Exact P(no deviation) of a trajectory from this record's input state.

    The ordered product, over the program's stochastic events, of each
    event's no-jump branch probability: ``(1 - error_rate)`` per gate event
    and ``p0 / total`` per idle event (``p0``/``total`` recomputed from the
    recorded populations with the same accumulation order as the replay —
    an idle whose outcome total is non-positive consumes no draw and cannot
    deviate, contributing factor 1).  This is the stratum weight of the
    clean outcome: a pure function of the record, independent of any stream.
    """
    total_idles = len(schedule.idle_steps)
    idle_factor: np.ndarray | None = None
    if total_idles:
        populations = record.populations  # (I, pad_dim), zero-padded
        lambdas = schedule.idle_lambdas  # (I, pad_dim - 1), zero-padded
        decay_probs = []
        decay_sum = np.zeros(total_idles)
        for level in range(1, schedule.pad_dim):
            decay = lambdas[:, level - 1] * populations[:, level]
            decay_probs.append(decay)
            decay_sum = decay_sum + decay
        no_decay = 1.0 - decay_sum
        p0 = np.maximum(no_decay, 0.0)
        total = p0.copy()
        for decay in decay_probs:
            total = total + decay
        consumed = ~(total <= 0.0)
        idle_factor = np.where(consumed, p0 / np.where(consumed, total, 1.0), 1.0)
    probability = 1.0
    for event in range(len(schedule.event_idle)):
        ordinal = int(schedule.event_idle[event])
        if ordinal >= 0:
            probability *= float(idle_factor[ordinal])
        else:
            probability *= 1.0 - float(schedule.event_rate[event])
    return probability


# ---------------------------------------------------------------------------
# checkpoint resume (the deviating subset of an adaptive round)
# ---------------------------------------------------------------------------


def run_fastpath_fidelities(
    physical,
    noise_model,
    program: TrajectoryProgram,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
    resumes: Sequence[Resume],
    block_size: int | None,
) -> list[float]:
    """Per-trajectory fidelities of prescanned deviating streams, resumed.

    ``streams[j]`` is the untouched live stream whose prescan produced
    ``resumes[j]``.  ``block_size=None`` resumes one statevector per block
    (the memory profile of a one-row fixed-count run); an integer resumes
    blocks of that many.  Either way every returned fidelity is bit-for-bit the explicit
    engine's value for the same stream.
    """
    from repro.noise.batched import BatchedTrajectoryEngine

    if len(streams) != len(resumes):
        raise ValueError("need exactly one resume point per stream")
    engine = BatchedTrajectoryEngine(physical, noise_model, program=program)
    chunk = block_size if block_size is not None else 1
    if chunk < 1:
        raise ValueError("block_size must be at least 1")
    fidelities: list[float] = []
    for start in range(0, len(streams), chunk):
        fidelities.extend(
            _resume_block(
                engine,
                streams[start : start + chunk],
                sampler,
                resumes[start : start + chunk],
            )
        )
    return fidelities


def _resume_block(
    engine,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
    resumes: Sequence[Resume],
) -> list[float]:
    """Resume one block as sub-batches grouped by restore boundary.

    Each group restores its checkpoints, advances its live streams past the
    state draw and the replayed uniforms, and joins one growing block that
    the unmodified engine steps to the next group's boundary and finally to
    the end: the engine re-takes every pre-deviation branch (the draws
    return the probed values), then plays the deviation and the whole
    suffix exactly like the explicit path.
    """
    from repro.qudit.states import fidelity

    num_steps = len(engine.program.steps)
    # The state draw comes first, exactly like the explicit engines.
    initials = engine.program.restrict(np.array([sampler(stream) for stream in streams]))
    groups: dict[int, list[int]] = {}
    for j, resume in enumerate(resumes):
        groups.setdefault(resume.restore, []).append(j)
    starts = sorted(groups)
    block: np.ndarray | None = None
    live: list[np.random.Generator] = []
    order: list[int] = []
    for position, restore in enumerate(starts):
        rows = groups[restore]
        states = []
        for j in rows:
            resume = resumes[j]
            states.append(initials[j] if restore == 0 else resume.record.checkpoints[restore])
            if resume.drawn:
                streams[j].random(size=resume.drawn)
            live.append(streams[j])
        stack = np.array(states, dtype=np.complex128)
        block = stack if block is None else np.concatenate([block, stack])
        order.extend(rows)
        stop = starts[position + 1] if position + 1 < len(starts) else num_steps
        block = engine.resume_trajectories(block, live, start=restore, stop=stop)
        STATS.resumed += len(rows)
        STATS.suffix_steps += (num_steps - restore) * len(rows)
        STATS.prefix_steps_reused += restore * len(rows)
    finals: dict[int, np.ndarray] = {}
    if block is not None:
        for position, j in enumerate(order):
            finals[j] = np.array(block[position])
    # Fresh copies for the overlap, matching the batched path (BLAS dot
    # products are sensitive to operand alignment).
    return [
        fidelity(np.array(resumes[j].record.ideal_final), finals[j])
        for j in range(len(resumes))
    ]
