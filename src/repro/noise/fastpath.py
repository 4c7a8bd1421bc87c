"""No-jump prefix memoization: the checkpointed trajectory fast path.

At the paper's calibrated error rates most trajectories draw zero or only a
handful of jumps, so almost every kernel application of a trajectory run
recomputes the *deterministic* no-jump evolution of its input state.  This
module memoizes that evolution once per ``(program, input state)``:

* a :class:`NoJumpRecord` stores statevector **checkpoints** at a
  configurable stride, the **per-idle-step device populations** and
  **no-jump scales** along the no-jump path, the no-jump **final state**
  and the **ideal final state** of the same input,
* per trajectory, the stochastic decisions are replayed against the
  recorded populations with a *cloned* RNG (``bit_generator.state`` is an
  exact snapshot, and ``Generator.random(size=n)`` returns the identical
  values as ``n`` scalar draws — both properties are regression-tested), so
  the first deviation — the first amplitude-damping jump or depolarizing
  gate error — is located **without touching the statevector at all**,
* trajectories that never deviate (the overwhelming majority at paper
  rates) take their final state straight from the record; a trajectory that
  deviates restores the nearest preceding checkpoint, advances its *live*
  stream past the already-replayed draws, and falls back to the explicit
  engine for the suffix — deviating trajectories are resumed as whole
  sub-batches grouped by first-deviation segment.

The fast path is **bit-for-bit identical** to the slow loop/batched/worker
paths: the no-jump prefix is the same sequence of floating-point kernel
applications (row ``i`` of every batched kernel is exactly the scalar
kernel — the standing PR 1 invariant), the draw replay performs the
identical float comparisons on the identical uniforms, and the suffix runs
the unmodified engine from a bit-identical state and stream position.  Only
the work, not a single bit of the results, changes — enforced by
``tests/test_fastpath.py`` and CI's ``fastpath-equivalence`` job.

Records persist through the shared compilation-artifact cache
(``$REPRO_CACHE_DIR``, keyed by program fingerprint, backend, checkpoint
stride, schema version and the SHA-256 of the input state), so repeated
sweeps, resumed jobs and forked workers reuse each unique no-jump
evolution instead of recomputing it.  Runs below
``REPRO_FASTPATH_MIN_TRAJ`` trajectories keep their records in memory but
skip the disk publication: a one-shot cold run has nothing to amortize the
write against (the ~1.1x publishing tax the PR 5 benchmarks measured), while
anything at or above the threshold keeps the full warm-reuse behavior.

:func:`prescan_trajectories` exposes the draw replay as a batch
classification API for the adaptive sampling mode
(:mod:`repro.noise.adaptive`): it clones the live streams, builds the
*complete* no-jump record of every input state, and reports per trajectory
whether it stays clean, its exact clean probability (the ordered product of
the recorded per-event no-jump branch probabilities) and the fidelity of the
recorded no-jump final — all without consuming a live stream or touching the
default execution paths.

``REPRO_NO_FASTPATH=1`` disables the fast path entirely;
``REPRO_FASTPATH_STRIDE`` overrides the checkpoint stride (steps per
segment); ``REPRO_FASTPATH_MEMORY_MB`` bounds the in-process record store.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core import env
from repro.noise.program import (
    GateStep,
    IdleStep,
    TrajectoryProgram,
    apply_kernel_batch,
    device_populations_batch,
    no_jump_scales_batch,
    program_fingerprint,
)

__all__ = [
    "FastpathStats",
    "NoJumpRecord",
    "RecordStore",
    "TrajectoryPrescan",
    "checkpoint_stride",
    "fastpath_enabled",
    "get_record_store",
    "min_publish_trajectories",
    "prescan_trajectories",
    "reset_fastpath",
    "run_fastpath_fidelities",
    "stats",
]

#: Escape hatch: any truthy value disables the fast path process-wide.
NO_FASTPATH_ENV = "REPRO_NO_FASTPATH"

#: Override for the checkpoint stride (program steps per segment).
STRIDE_ENV = "REPRO_FASTPATH_STRIDE"

#: In-process record-store budget in megabytes (default 512).
MEMORY_ENV = "REPRO_FASTPATH_MEMORY_MB"

#: Minimum trajectory count of a run before its records are published to
#: the disk layer (default 8, see :func:`min_publish_trajectories`).
MIN_TRAJ_ENV = "REPRO_FASTPATH_MIN_TRAJ"

#: Default publication threshold: the PR 5 benchmark data puts the cold
#: one-shot publishing tax at ~1.1x while warm replay pays back from the
#: first reused record, so a handful of trajectories is where a rerun's
#: disk hits start beating the one-time write.
_DEFAULT_MIN_PUBLISH = 8

#: Bundles larger than this never go to the disk layer: a giant artifact
#: would trade more I/O than the compute it saves.
_MAX_PERSIST_BYTES = 256 * 1024 * 1024

#: Per-record byte budget for *checkpoints* in disk bundles.  Checkpoints
#: are pure acceleration (the restore falls back to the nearest persisted
#: one, ultimately the initial state), so large-register records thin them
#: to an evenly spaced subset before hitting disk — cold-run write time
#: stays proportional to the parts that serve clean trajectories.
_DISK_CHECKPOINT_BYTES = 1024 * 1024

#: Default number of segments a program is split into when no explicit
#: stride is configured (bounds checkpoint memory per record).
_DEFAULT_SEGMENTS = 8


def fastpath_enabled(explicit: bool | None = None) -> bool:
    """Resolve the fast-path switch: explicit setting, else the environment.

    The fast path is the default; ``REPRO_NO_FASTPATH=1`` turns it off for
    every simulator and sweep in the process (the escape hatch the
    equivalence gates diff against).
    """
    if explicit is not None:
        return bool(explicit)
    return not env.read_flag(NO_FASTPATH_ENV)


def checkpoint_stride(num_steps: int) -> int:
    """Checkpoint stride in program steps (``REPRO_FASTPATH_STRIDE`` or auto).

    The default splits the program into at most :data:`_DEFAULT_SEGMENTS`
    segments but never strides finer than 8 steps, bounding both checkpoint
    memory and the length a deviating trajectory replays from its nearest
    checkpoint.
    """
    stride = env.read_int(STRIDE_ENV)
    if stride is not None:
        if stride < 1:
            raise ValueError(f"{STRIDE_ENV} must be a positive integer, got {stride!r}")
        return stride
    return max(8, math.ceil(num_steps / _DEFAULT_SEGMENTS)) if num_steps else 1


def min_publish_trajectories() -> int:
    """Trajectory count below which a run skips record *disk* publication.

    Publishing a record bundle is the one fast-path cost a cold one-shot run
    can never recover (the memory front is kept either way, so in-process
    reuse is unaffected).  ``REPRO_FASTPATH_MIN_TRAJ`` overrides the
    default; ``0``/``1`` publishes always, matching the pre-threshold
    behavior.  Applied per :func:`run_fastpath_fidelities`/
    :func:`prescan_trajectories` call — each worker process decides from its
    own chunk size.
    """
    value = env.read_int(MIN_TRAJ_ENV)
    if value is None:
        return _DEFAULT_MIN_PUBLISH
    if value < 0:
        raise ValueError(f"{MIN_TRAJ_ENV} must be non-negative, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------


@dataclass
class FastpathStats:
    """Process-wide fast-path counters (per-process; workers keep their own)."""

    trajectories: int = 0
    clean: int = 0
    deviated_idle: int = 0
    deviated_gate: int = 0
    records_built: int = 0
    records_extended: int = 0
    record_memory_hits: int = 0
    record_disk_hits: int = 0
    record_misses: int = 0
    checkpoint_restores: int = 0
    suffix_steps: int = 0  # steps replayed explicitly after deviations
    prefix_steps_reused: int = 0  # steps served from records without evolution
    prescanned: int = 0  # trajectories classified by prescan_trajectories
    publishes_skipped: int = 0  # dirty blocks kept off disk by the min-traj gate
    deviation_segments: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "trajectories": self.trajectories,
            "clean": self.clean,
            "deviated_idle": self.deviated_idle,
            "deviated_gate": self.deviated_gate,
            "records_built": self.records_built,
            "records_extended": self.records_extended,
            "record_memory_hits": self.record_memory_hits,
            "record_disk_hits": self.record_disk_hits,
            "record_misses": self.record_misses,
            "checkpoint_restores": self.checkpoint_restores,
            "suffix_steps": self.suffix_steps,
            "prefix_steps_reused": self.prefix_steps_reused,
            "prescanned": self.prescanned,
            "publishes_skipped": self.publishes_skipped,
            "deviation_segments": dict(sorted(self.deviation_segments.items())),
        }


STATS = FastpathStats()


def stats() -> dict:
    """Snapshot of the process-wide fast-path counters."""
    return STATS.as_dict()


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
    """The memoized no-jump evolution of one ``(program, input state)`` pair.

    ``prefix_steps`` is how far the no-jump path has been materialized (a
    checkpoint-boundary step index, or the full program).  ``populations``
    and ``scales`` are single ``(covered idles, pad_dim)`` arrays in idle
    order (populations zero-padded, scales one-padded past each device's
    true dimension); checkpoints are stored per boundary step, with the
    final state doubling as the last checkpoint.  A record is
    stream-independent: any trajectory starting from the same input state
    replays its own draws against these shared arrays.
    """

    stride: int
    prefix_steps: int = 0
    populations: np.ndarray | None = None
    scales: np.ndarray | None = None
    checkpoints: dict[int, np.ndarray] = field(default_factory=dict)
    final: np.ndarray | None = None
    ideal_final: np.ndarray | None = None

    def nbytes(self) -> int:
        total = 0
        if self.populations is not None:
            total += self.populations.nbytes
        if self.scales is not None:
            total += self.scales.nbytes
        for array in self.checkpoints.values():
            total += array.nbytes
        if self.final is not None:
            total += self.final.nbytes
        if self.ideal_final is not None:
            total += self.ideal_final.nbytes
        return total

    def valid_for(self, schedule: DrawSchedule, stride: int) -> bool:
        """Structural sanity of a (possibly deserialized) record."""
        if self.stride != stride or self.ideal_final is None:
            return False
        prefix = self.prefix_steps
        if prefix < 0 or prefix > schedule.num_steps:
            return False
        if prefix != schedule.num_steps and prefix % stride != 0:
            return False
        if prefix == schedule.num_steps and self.final is None:
            return False
        covered = int(schedule.idles_before[prefix])
        expected = (covered, schedule.pad_dim)
        for table in (self.populations, self.scales):
            if covered and (table is None or table.shape != expected):
                return False
        # Checkpoints are pure acceleration: a deviating trajectory restores
        # from the nearest one at or below its deviation segment, falling all
        # the way back to the initial state, so any subset (including none —
        # disk bundles thin them to a byte budget) is valid.
        return all(
            boundary % stride == 0 and 0 < boundary <= prefix
            for boundary in self.checkpoints
        )

    def restore_point(self, seg_start: int) -> int:
        """Largest materialized restore step at or below ``seg_start``."""
        available = [b for b in self.checkpoints if b <= seg_start]
        return max(available, default=0)

    def truncate_unresumable(self, schedule: DrawSchedule) -> None:
        """Shrink a partial record to a prefix it can actually extend from.

        Extending a partial record requires the statevector *at* its prefix
        boundary; disk thinning may have dropped that checkpoint.  Rolling
        coverage back to the nearest remaining checkpoint (ultimately the
        initial state) keeps every invariant — the dropped populations are
        simply re-derived, bit-identically, if a trajectory ever needs them.
        Complete records never extend, so they are left whole.
        """
        prefix = self.prefix_steps
        if prefix == 0 or prefix == schedule.num_steps or prefix in self.checkpoints:
            return
        resume = self.restore_point(prefix)
        covered = int(schedule.idles_before[resume])
        self.prefix_steps = resume
        self.populations = None if covered == 0 else self.populations[:covered]
        self.scales = None if covered == 0 else self.scales[:covered]
        self.checkpoints = {b: c for b, c in self.checkpoints.items() if b <= resume}
        self.final = None


def _record_key(program: TrajectoryProgram, backend_name: str, stride: int, state) -> str:
    from repro.core.compile_cache import CACHE_SCHEMA_VERSION, fingerprint

    digest = hashlib.sha256(np.ascontiguousarray(state).tobytes()).hexdigest()
    return fingerprint(
        [
            "fastpath-record",
            f"schema:{CACHE_SCHEMA_VERSION}",
            program_fingerprint(program),
            f"backend:{backend_name}",
            f"stride:{stride}",
            f"state:{digest}",
        ]
    )


def _bundle_key(keys: Sequence[str]) -> str:
    """Disk-artifact key of one block's records: the unique per-state keys.

    The per-state keys already encode the program fingerprint, backend,
    stride, schema version and each input state, so a block reconstructs the
    identical bundle key exactly when it will replay the identical no-jump
    evolutions.  Duplicates collapse (rows sharing a state share a record),
    so fixed-state blocks of any size map to the same bundle.
    """
    from repro.core.compile_cache import fingerprint

    return fingerprint(["fastpath-bundle", *dict.fromkeys(keys)])


class RecordStore:
    """Byte-budgeted LRU of :class:`NoJumpRecord` with a shared disk layer.

    The memory front is separate from the compile cache's entry-counted LRU
    (statevector records would evict compilations); the disk layer is the
    same ``$REPRO_CACHE_DIR`` store, accessed through the cache's
    disk-only methods so trajectory records never pollute the compile log
    the CI reuse gates audit.  Forked workers inherit the parent's records
    as copy-on-write pages and otherwise share through the disk layer.
    """

    def __init__(self, max_bytes: int | None = None):
        if max_bytes is None:
            configured = env.read_int(MEMORY_ENV)
            megabytes = 512 if configured is None else configured
            max_bytes = max(1, megabytes) * 1024 * 1024
        self.max_bytes = max_bytes
        self._memory: OrderedDict[str, NoJumpRecord] = OrderedDict()
        # Size at insertion time, per key: records grow in place when
        # extended, so eviction accounting must subtract what was *counted*,
        # not the current size, and every re-put re-measures.
        self._sizes: dict[str, int] = {}
        self._bytes = 0

    def clear_memory(self) -> None:
        """Drop the in-process front (forces the next gets to the disk layer)."""
        self._memory.clear()
        self._sizes.clear()
        self._bytes = 0

    def get_many(
        self,
        keys: Sequence[str],
        bundle_key: str,
        schedule: DrawSchedule,
        stride: int,
    ) -> dict[str, NoJumpRecord]:
        """Fetch records for a block: memory per state, disk per bundle.

        Per-trajectory disk files would cost more I/O than the compute they
        save on small registers, so the disk layer stores one *bundle* — the
        whole block's records — per artifact.  A rerun of the same block
        (repeated sweeps, resumed jobs, CI double-runs) reconstructs the
        identical bundle key and loads every record in one read; the memory
        front stays per-state, so fixed-state samplers share records across
        arbitrary blocks.
        """
        found: dict[str, NoJumpRecord] = {}
        unique = list(dict.fromkeys(keys))
        missing = []
        for key in unique:
            record = self._memory.get(key)
            if record is not None:
                self._memory.move_to_end(key)
                STATS.record_memory_hits += 1
                found[key] = record
            else:
                missing.append(key)
        if missing:
            from repro.core.compile_cache import get_cache

            bundle = get_cache().disk_get(bundle_key)
            if isinstance(bundle, dict):
                for key in missing:
                    record = bundle.get(key)
                    if isinstance(record, NoJumpRecord) and record.valid_for(
                        schedule, stride
                    ):
                        record.truncate_unresumable(schedule)
                        STATS.record_disk_hits += 1
                        self._memory_put(key, record)
                        found[key] = record
            elif bundle is not None:
                # A bundle that unpickled to something other than a record
                # dict is corruption the pickle layer could not see:
                # quarantine it (reason-recorded) rather than ignore it in
                # place, so the incident is auditable and the next run
                # republishes a clean bundle.
                get_cache().quarantine_entry(
                    bundle_key, "fastpath bundle is not a record dict"
                )
        STATS.record_misses += sum(1 for key in unique if key not in found)
        return found

    def put_many(
        self,
        keys: Sequence[str],
        records: Sequence[NoJumpRecord],
        bundle_key: str,
        persist: bool = True,
    ) -> None:
        """Store a block's records in memory and publish the disk bundle.

        The memory front keeps every checkpoint; the published bundle thins
        each record's checkpoints to :data:`_DISK_CHECKPOINT_BYTES` (an
        evenly spaced subset — the restore logic accepts any subset), so
        large registers persist the clean-trajectory payload (populations,
        final, ideal final) without multi-megabyte checkpoint freight.

        ``persist=False`` keeps the records off the disk layer entirely (the
        min-trajectory publication gate: a one-shot run below
        :func:`min_publish_trajectories` has nothing to amortize the write
        against) while the memory front behaves identically either way.
        """
        bundle: dict[str, NoJumpRecord] = {}
        for key, record in zip(keys, records):
            if key not in bundle:
                self._memory_put(key, record)
                bundle[key] = _thin_for_disk(record)
        if not persist:
            STATS.publishes_skipped += 1
            return
        total = sum(record.nbytes() for record in bundle.values())
        if total <= _MAX_PERSIST_BYTES:
            from repro.core.compile_cache import get_cache

            get_cache().disk_put(bundle_key, bundle)

    def _memory_put(self, key: str, record: NoJumpRecord) -> None:
        if key in self._memory:
            del self._memory[key]
            self._bytes -= self._sizes.pop(key)
        size = record.nbytes()
        self._memory[key] = record
        self._sizes[key] = size
        self._bytes += size
        while self._bytes > self.max_bytes and len(self._memory) > 1:
            evicted_key, _ = self._memory.popitem(last=False)
            self._bytes -= self._sizes.pop(evicted_key)


def _thin_for_disk(record: NoJumpRecord) -> NoJumpRecord:
    """Copy of a record whose checkpoints fit the disk byte budget.

    A partial record's own prefix boundary is kept whenever anything is
    kept at all: it is the checkpoint a future run extends from (a missing
    one only costs a bit-identical rebuild — see ``truncate_unresumable`` —
    but keeping it preserves the work).
    """
    checkpoints = record.checkpoints
    if checkpoints:
        state_bytes = next(iter(checkpoints.values())).nbytes
        keep = max(int(_DISK_CHECKPOINT_BYTES // max(state_bytes, 1)), 0)
        if len(checkpoints) > keep:
            boundaries = sorted(checkpoints)
            if keep == 0:
                checkpoints = {}
            else:
                spacing = math.ceil(len(boundaries) / keep)
                kept = set(boundaries[spacing - 1 :: spacing])
                kept.add(boundaries[-1])  # the resume point of a partial prefix
                checkpoints = {b: checkpoints[b] for b in sorted(kept)}
    if checkpoints is record.checkpoints:
        return record
    return NoJumpRecord(
        stride=record.stride,
        prefix_steps=record.prefix_steps,
        populations=record.populations,
        scales=record.scales,
        checkpoints=checkpoints,
        final=record.final,
        ideal_final=record.ideal_final,
    )


_STORE: RecordStore | None = None


def get_record_store() -> RecordStore:
    """Return the process-wide record store."""
    global _STORE
    if _STORE is None:
        _STORE = RecordStore()
    return _STORE


def reset_fastpath() -> None:
    """Drop the record store and zero the counters (test/benchmark isolation)."""
    global _STORE, STATS
    _STORE = None
    STATS.__init__()


# ---------------------------------------------------------------------------
# the fast path
# ---------------------------------------------------------------------------


def _clone_generator(stream: np.random.Generator) -> np.random.Generator:
    """Exact, independent clone of a generator (state snapshot round-trip)."""
    bit_generator = type(stream.bit_generator)()
    bit_generator.state = stream.bit_generator.state
    return np.random.Generator(bit_generator)


def run_fastpath_fidelities(
    physical,
    noise_model,
    program: TrajectoryProgram,
    backend,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
    block_size: int | None,
) -> list[float]:
    """Per-trajectory fidelities through the checkpointed fast path.

    ``block_size=None`` mirrors the loop path's one-statevector-at-a-time
    memory profile (blocks of 1); an integer mirrors the batched path's
    chunking.  Either way every returned fidelity is bit-for-bit the slow
    path's value for the same stream.
    """
    from repro.noise.batched import BatchedTrajectoryEngine

    engine = BatchedTrajectoryEngine(
        physical, noise_model, program=program, backend=backend
    )
    chunk = block_size if block_size is not None else 1
    if chunk < 1:
        raise ValueError("block_size must be at least 1")
    persist = len(streams) >= min_publish_trajectories()
    fidelities: list[float] = []
    for start in range(0, len(streams), chunk):
        fidelities.extend(
            _run_block(engine, streams[start : start + chunk], sampler, persist)
        )
    return fidelities


def _run_block(
    engine,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
    persist: bool = True,
) -> list[float]:
    from repro.qudit.states import fidelity

    program: TrajectoryProgram = engine.program
    backend = engine.backend
    num_steps = len(program.steps)
    count = len(streams)
    STATS.trajectories += count

    # The state draw consumes each stream first, exactly like the slow paths.
    initials = np.array([sampler(stream) for stream in streams], dtype=np.complex128)
    schedule = draw_schedule(program)
    stride = checkpoint_stride(num_steps)
    store = get_record_store()
    backend_name = getattr(backend, "name", "numpy")
    keys = [_record_key(program, backend_name, stride, initials[i]) for i in range(count)]
    bundle_key = _bundle_key(keys)
    fetched = store.get_many(keys, bundle_key, schedule, stride)
    records: list[NoJumpRecord] = []
    dirty: set[int] = set()
    created: set[int] = set()  # id() of records first built by this block
    extended: set[int] = set()
    for i in range(count):
        # Rows sharing an input state (fixed-state samplers) share one
        # record object, so the no-jump prefix is built once per state.
        record = fetched.get(keys[i])
        if record is None:
            record = NoJumpRecord(stride=stride)
            created.add(id(record))
            STATS.records_built += 1
            dirty.add(i)
            fetched[keys[i]] = record
        records.append(record)

    # Ideal finals (shared with the record so warm runs skip this too).
    need_ideal: list[int] = []
    pending_ideal: set[int] = set()
    for i in range(count):
        record = records[i]
        if record.ideal_final is None and id(record) not in pending_ideal:
            pending_ideal.add(id(record))
            need_ideal.append(i)
    if need_ideal:
        ideal_block = engine.run_ideal(initials[need_ideal])
        for j, i in enumerate(need_ideal):
            records[i].ideal_final = np.array(ideal_block[j])
            dirty.add(i)

    # Probes replay the draw tape without touching the live streams.
    probes = [_clone_generator(stream) for stream in streams]
    boundaries = list(range(0, num_steps, stride)) + [num_steps] if num_steps else [0]
    active = list(range(count))
    # drawn_at[i, k]: uniforms row i consumed before boundary k — the replay
    # may restore from any boundary at or below the deviation segment, so
    # the whole history is kept, not just the cursor.
    drawn_at = np.zeros((count, len(boundaries)), dtype=np.int64)
    deviations: dict[int, int] = {}  # row -> first-deviation segment start
    cursor: dict[int, np.ndarray] = {}
    buffers: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}

    for segment_index, (seg_start, seg_end) in enumerate(
        zip(boundaries[:-1], boundaries[1:])
    ):
        if not active:
            break
        built = _build_segment(
            engine,
            records,
            initials,
            cursor,
            active,
            dirty,
            created,
            extended,
            buffers,
            seg_start,
            seg_end,
            schedule,
        )
        survivors, deviated = _scan_segment(
            schedule, records, probes, active, drawn_at, segment_index, seg_start, seg_end, built
        )
        for row, kind in deviated:
            deviations[row] = seg_start
            if kind == "idle":
                STATS.deviated_idle += 1
            else:
                STATS.deviated_gate += 1
            STATS.deviation_segments[segment_index] = (
                STATS.deviation_segments.get(segment_index, 0) + 1
            )
            cursor.pop(row, None)
        active = survivors

    STATS.clean += len(active)
    _finalize_records(records, buffers)

    finals: dict[int, np.ndarray] = {}
    for i in active:
        finals[i] = np.array(initials[i]) if num_steps == 0 else records[i].final

    # Deviating trajectories resume as whole sub-batches grouped by
    # first-deviation segment: each group restores its checkpoint, advances
    # its live streams past the replayed draws, and joins one growing block
    # that the unmodified engine steps segment by segment to the end — the
    # engine re-takes every pre-deviation branch (the draws return the
    # probed values), then plays the deviation and the whole suffix exactly
    # like the slow path.
    if deviations:
        # Each deviating row restores from the nearest materialized
        # checkpoint at or below its deviation segment (ultimately the
        # initial state — checkpoints are acceleration, not a requirement).
        groups: dict[int, list[int]] = {}
        for row, seg_start in deviations.items():
            restore = records[row].restore_point(seg_start)
            groups.setdefault(restore, []).append(row)
        starts = sorted(groups)
        block: np.ndarray | None = None
        live: list[np.random.Generator] = []
        order: list[int] = []
        for position, restore in enumerate(starts):
            rows = sorted(groups[restore])
            stack = np.array(
                [
                    initials[i] if restore == 0 else records[i].checkpoints[restore]
                    for i in rows
                ]
            )
            block = stack if block is None else np.concatenate([block, stack])
            for i in rows:
                skip = int(drawn_at[i, restore // stride])
                if skip:
                    streams[i].random(size=skip)
                live.append(streams[i])
            order.extend(rows)
            stop = starts[position + 1] if position + 1 < len(starts) else num_steps
            block = engine.resume_trajectories(block, live, start=restore, stop=stop)
            STATS.checkpoint_restores += len(rows)
            STATS.suffix_steps += (num_steps - restore) * len(rows)
        for j, i in enumerate(order):
            finals[i] = np.array(block[j])

    if dirty:
        store.put_many(keys, records, bundle_key, persist=persist)

    # Fresh copies for the overlap, matching the batched path (BLAS dot
    # products are sensitive to operand alignment; full fresh allocations
    # behave like the slow paths' evolution outputs).
    return [
        fidelity(np.array(records[i].ideal_final), np.array(finals[i]))
        for i in range(count)
    ]


def _finalize_records(
    records: list[NoJumpRecord],
    buffers: dict[int, list[tuple[np.ndarray, np.ndarray]]],
) -> None:
    """Fold this block's per-segment population/scale buffers into records."""
    folded: set[int] = set()
    for record in records:
        key = id(record)
        if key in folded or key not in buffers:
            continue
        folded.add(key)
        population_parts = [pair[0] for pair in buffers[key]]
        scale_parts = [pair[1] for pair in buffers[key]]
        if record.populations is not None and record.populations.size:
            population_parts.insert(0, record.populations)
            scale_parts.insert(0, record.scales)
        record.populations = np.concatenate(population_parts)
        record.scales = np.concatenate(scale_parts)


def _build_segment(
    engine,
    records: list[NoJumpRecord],
    initials: np.ndarray,
    cursor: dict[int, np.ndarray],
    active: list[int],
    dirty: set[int],
    created: set[int],
    extended: set[int],
    buffers: dict[int, list[tuple[np.ndarray, np.ndarray]]],
    seg_start: int,
    seg_end: int,
    schedule: DrawSchedule,
) -> dict[int, np.ndarray]:
    """Materialize the no-jump path through one segment for uncovered rows.

    Rows whose record already covers the segment cost nothing here (their
    populations feed the scan straight from the record).  Uncovered rows are
    evolved together as one sub-batch — the same kernels, idle contractions
    and no-jump multiplies the slow batched executor performs, minus the
    per-row draw machinery — while recording populations, scales and the
    boundary checkpoint.  Records are extended in whole segments, so a
    record's coverage is always a boundary (the ``valid_for`` invariant).

    Returns ``id(record) -> (idles, pad_dim) populations`` for the segment
    just built, so the scan can read this segment's populations before they
    are folded into the records at block end.
    """
    program: TrajectoryProgram = engine.program
    backend = engine.backend
    build_rows: list[int] = []
    building: set[int] = set()
    for i in active:
        record = records[i]
        if record.prefix_steps < seg_end and id(record) not in building:
            building.add(id(record))
            build_rows.append(i)
    covered = len(active) - len(build_rows)
    if covered:
        STATS.prefix_steps_reused += covered * (seg_end - seg_start)
    if not build_rows:
        return {}
    for i in build_rows:
        record = records[i]
        dirty.add(i)
        if id(record) not in created and id(record) not in extended:
            extended.add(id(record))
            STATS.records_extended += 1

    rows = len(build_rows)
    idles = int(schedule.idles_before[seg_end] - schedule.idles_before[seg_start])
    pad = schedule.pad_dim
    segment_populations = np.zeros((rows, idles, pad))
    segment_scales = np.ones((rows, idles, pad))
    block = np.array(
        [
            cursor[i]
            if i in cursor
            else (initials[i] if seg_start == 0 else records[i].checkpoints[seg_start])
            for i in build_rows
        ]
    )
    work = block if backend.host_memory else backend.asarray(block)
    scratch = backend.empty_like(work)
    idle_index = 0
    for index in range(seg_start, seg_end):
        step = program.steps[index]
        if isinstance(step, GateStep):
            result = apply_kernel_batch(
                work, step.kernel, program.dims, out=scratch, backend=backend
            )
            if result is scratch:
                work, scratch = scratch, work
            else:
                work = result
        else:
            host = work if backend.host_memory else np.ascontiguousarray(backend.to_numpy(work))
            populations = device_populations_batch(host, step)
            scales = no_jump_scales_batch(step, populations)
            left, d, right = step.reshape
            tensor = host.reshape(rows, left, d, right)
            np.multiply(tensor, scales[:, None, :, None], out=tensor)
            segment_populations[:, idle_index, :d] = populations
            segment_scales[:, idle_index, :d] = scales
            idle_index += 1
            if not backend.host_memory:
                work = backend.asarray(host)
    host_out = work if backend.host_memory else np.ascontiguousarray(backend.to_numpy(work))

    built: dict[int, np.ndarray] = {}
    for j, i in enumerate(build_rows):
        record = records[i]
        buffers.setdefault(id(record), []).append(
            (segment_populations[j], segment_scales[j])
        )
        if seg_end == schedule.num_steps:
            record.final = np.array(host_out[j])
        else:
            record.checkpoints[seg_end] = np.array(host_out[j])
        record.prefix_steps = seg_end
        cursor[i] = host_out[j]
        built[id(record)] = segment_populations[j]
    return built


def _scan_segment(
    schedule: DrawSchedule,
    records: list[NoJumpRecord],
    probes: list[np.random.Generator],
    active: list[int],
    drawn_at: np.ndarray,
    segment_index: int,
    seg_start: int,
    seg_end: int,
    built: dict[int, np.ndarray],
) -> tuple[list[int], list[tuple[int, str]]]:
    """Replay one segment's draws for every active row, statelessly.

    Returns ``(survivors, deviated)`` where ``deviated`` carries
    ``(row, kind)`` pairs for rows whose first deviation falls in this
    segment.  Every active row's draw count at the next boundary is
    recorded in ``drawn_at`` — the suffix replay skips each live stream to
    its restore boundary's count, then re-consumes the replayed draws for
    real.
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
            record = records[i]
            segment = built.get(id(record))
            if segment is None:
                segment = record.populations[first_idle : first_idle + n_idle]
            populations[j] = segment
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
    first_columns = np.argmax(deviates, axis=1)
    survivors: list[int] = []
    deviated: list[tuple[int, str]] = []
    for j, i in enumerate(active):
        drawn_at[i, segment_index + 1] = drawn_at[i, segment_index] + int(counts[j])
        if any_deviation[j]:
            kind = "idle" if event_idle[first_columns[j]] >= 0 else "gate"
            deviated.append((i, kind))
        else:
            survivors.append(i)
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
    stays clean, computed with the identical arithmetic as the fast path's
    clean rows (so it is bit-equal to what any execution mode returns for a
    clean stream).
    """

    clean: np.ndarray  # (n,) bool
    clean_probability: np.ndarray  # (n,) float64
    clean_fidelity: np.ndarray  # (n,) float64

    def __len__(self) -> int:
        return len(self.clean)


def prescan_trajectories(
    physical,
    noise_model,
    program: TrajectoryProgram,
    backend,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
    block_size: int | None = None,
) -> TrajectoryPrescan:
    """Classify a batch of streams against their no-jump records.

    The live streams are never consumed: the input state and every replayed
    draw come from cloned probes, so a caller can afterwards hand the
    untouched streams to any execution path and get the standard result for
    exactly these trajectories.  Unlike :func:`run_fastpath_fidelities` the
    prescan materializes the *complete* record of every input state (a
    deviating trajectory still needs its clean fidelity and exact clean
    probability), and it runs regardless of ``REPRO_NO_FASTPATH`` — it is an
    estimator input of the opt-in adaptive mode, not an execution mode, so
    the escape hatch toggles only how trajectories are simulated.

    ``block_size=None`` processes all streams as one batch.  Records land in
    the shared store (memory always; disk per the min-trajectory publication
    gate over the full stream count), so a simulation of the deviating subset
    immediately reuses them.
    """
    from repro.noise.batched import BatchedTrajectoryEngine

    engine = BatchedTrajectoryEngine(
        physical, noise_model, program=program, backend=backend
    )
    chunk = block_size if block_size is not None else max(len(streams), 1)
    if chunk < 1:
        raise ValueError("block_size must be at least 1")
    persist = len(streams) >= min_publish_trajectories()
    parts = [
        _prescan_block(engine, streams[start : start + chunk], sampler, persist)
        for start in range(0, len(streams), chunk)
    ]
    if not parts:
        empty = np.empty(0)
        return TrajectoryPrescan(
            clean=np.empty(0, dtype=bool), clean_probability=empty, clean_fidelity=empty
        )
    return TrajectoryPrescan(
        clean=np.concatenate([part[0] for part in parts]),
        clean_probability=np.concatenate([part[1] for part in parts]),
        clean_fidelity=np.concatenate([part[2] for part in parts]),
    )


def _prescan_block(
    engine,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray],
    persist: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block of :func:`prescan_trajectories` (mirrors ``_run_block``).

    The build/scan split differs from ``_run_block`` in one way: records are
    built through the *whole* program for every row (the scan's active set
    shrinks as rows deviate, the build set never does), because the adaptive
    estimator needs the clean fidelity and clean probability of deviating
    rows too.  The replay itself is the identical blessed ``_scan_segment``.
    """
    from repro.qudit.states import fidelity

    program: TrajectoryProgram = engine.program
    backend = engine.backend
    num_steps = len(program.steps)
    count = len(streams)
    STATS.prescanned += count

    probes = [_clone_generator(stream) for stream in streams]
    initials = np.array([sampler(probe) for probe in probes], dtype=np.complex128)
    schedule = draw_schedule(program)
    stride = checkpoint_stride(num_steps)
    store = get_record_store()
    backend_name = getattr(backend, "name", "numpy")
    keys = [_record_key(program, backend_name, stride, initials[i]) for i in range(count)]
    bundle_key = _bundle_key(keys)
    fetched = store.get_many(keys, bundle_key, schedule, stride)
    records: list[NoJumpRecord] = []
    dirty: set[int] = set()
    created: set[int] = set()
    extended: set[int] = set()
    for i in range(count):
        record = fetched.get(keys[i])
        if record is None:
            record = NoJumpRecord(stride=stride)
            created.add(id(record))
            STATS.records_built += 1
            dirty.add(i)
            fetched[keys[i]] = record
        records.append(record)

    need_ideal: list[int] = []
    pending_ideal: set[int] = set()
    for i in range(count):
        record = records[i]
        if record.ideal_final is None and id(record) not in pending_ideal:
            pending_ideal.add(id(record))
            need_ideal.append(i)
    if need_ideal:
        ideal_block = engine.run_ideal(initials[need_ideal])
        for j, i in enumerate(need_ideal):
            records[i].ideal_final = np.array(ideal_block[j])
            dirty.add(i)

    boundaries = list(range(0, num_steps, stride)) + [num_steps] if num_steps else [0]
    rows = list(range(count))
    scan_active = list(rows)
    drawn_at = np.zeros((count, len(boundaries)), dtype=np.int64)
    clean = np.ones(count, dtype=bool)
    cursor: dict[int, np.ndarray] = {}
    buffers: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for segment_index, (seg_start, seg_end) in enumerate(
        zip(boundaries[:-1], boundaries[1:])
    ):
        built = _build_segment(
            engine,
            records,
            initials,
            cursor,
            rows,
            dirty,
            created,
            extended,
            buffers,
            seg_start,
            seg_end,
            schedule,
        )
        if scan_active:
            survivors, deviated = _scan_segment(
                schedule,
                records,
                probes,
                scan_active,
                drawn_at,
                segment_index,
                seg_start,
                seg_end,
                built,
            )
            for row, _kind in deviated:
                clean[row] = False
            scan_active = survivors
    _finalize_records(records, buffers)
    if dirty:
        store.put_many(keys, records, bundle_key, persist=persist)

    probability = np.empty(count)
    clean_fid = np.empty(count)
    shared: dict[int, tuple[float, float]] = {}
    for i in range(count):
        record = records[i]
        pair = shared.get(id(record))
        if pair is None:
            final = record.final if num_steps else initials[i]
            pair = (
                _clean_probability(schedule, record),
                fidelity(np.array(record.ideal_final), np.array(final)),
            )
            shared[id(record)] = pair
        probability[i], clean_fid[i] = pair
    return clean, probability, clean_fid


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
