"""Parallel sweep engine over (circuit x strategy x noise) grids.

Every per-figure driver used to hand-roll its own nested loops around
:func:`~repro.experiments.runner.evaluate_strategy`.  This module gives them
one engine:

* :class:`SweepPoint` — a picklable, declarative description of one grid
  point (workload, size, strategy, error-model factor, coherence scale,
  trajectory budget, RNG seed),
* :func:`evaluate_point` — compiles (through the shared compilation cache:
  an in-process LRU front, plus the disk layer under ``$REPRO_CACHE_DIR``
  that lets every worker process — and leased workers on other hosts — reuse each
  unique compilation instead of recomputing it), estimates EPS and runs the
  batched trajectory simulation for one point,
* :class:`SweepRunner` — fans a list of points (or any picklable tasks via
  :meth:`SweepRunner.map`) across ``ProcessPoolExecutor`` workers, keeping
  deterministic result order, and optionally writes CSV / JSON artifacts.

Results are independent of the worker count and of the batch size: each
point owns a seed, every trajectory draws from its own spawned stream, and
every block size of the trajectory engine gives the same bits.

The figure drivers go one level further.  They evaluate grids through the
artifact graph (:mod:`repro.artifacts`), whose table provider persists
each simulated point's result under ``$REPRO_CACHE_DIR`` and answers a
warm rerun through :func:`evaluate_point`'s ``simulation`` argument, so
such a rerun simulates nothing.  :class:`SweepRunner`
itself never reads that layer.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.core.compile_cache import compilation_cache_key, fingerprint, get_cache
from repro.core.storage import atomic_write_json, atomic_write_text
from repro.core.compiler import CompilationResult, QuantumWaltzCompiler
from repro.core.emitter import CompilationError
from repro.core.gateset import ErrorModel, GateSet
from repro.core.metrics import evaluate_metrics
from repro.core.strategies import Strategy
from repro.experiments.runner import StrategyEvaluation
from repro.noise.model import NoiseModel
from repro.noise.trajectory import TrajectoryResult, TrajectorySimulator
from repro.topology.device import CoherenceModel
from repro.workloads import workload_by_name

__all__ = [
    "PointFailure",
    "SweepFailure",
    "SweepPoint",
    "SweepRunner",
    "atomic_write_json",
    "evaluate_point",
    "point_key",
    "point_seeds",
]

#: Trajectories per vectorized block handed to the batched engine.
DEFAULT_BATCH_SIZE = 16

#: Simulated register size (the program's truncated levels) above which
#: "auto" batching falls back to one-row blocks: huge statevectors are
#: memory-bandwidth-bound, so vectorizing across trajectories stops paying
#: (the result is identical either way).
_AUTO_BATCH_DIM_LIMIT = 1 << 16


@dataclass(frozen=True)
class SweepPoint:
    """One point of a sweep grid, fully described by picklable values.

    ``workers`` fans this point's *trajectories* across processes (see
    ``TrajectorySimulator.average_fidelity``); results are bit-for-bit
    independent of the value.  ``None`` leaves the count to the runner's
    scheduling (point-level fan-out keeps it at 1).

    ``target_stderr`` opts the point into the adaptive sampling mode
    (:mod:`repro.noise.adaptive`): trajectories run until the estimator's
    standard error reaches the target, with ``num_trajectories`` as the hard
    cap (``num_trajectories="auto"`` delegates the cap to
    ``REPRO_ADAPTIVE_MAX_TRAJ``).  Adaptive rows carry the extra
    ``n_used`` / ``stderr`` / ``ess`` columns and are reproducible like
    fixed-count rows — same seed and config give identical bytes for any
    worker count or lease schedule.
    """

    workload: str
    size: int
    strategy: str
    error_factor: float = 1.0
    coherence_scale: float = 1.0
    num_trajectories: int | str = 0
    seed: int = 0
    batch_size: int | str | None = "auto"
    axis: float | None = None  # the swept value, carried through to results
    workload_kwargs: tuple[tuple[str, Any], ...] = ()
    workers: int | None = None  # trajectory-level processes for this point
    target_stderr: float | None = None  # adaptive mode opt-in (None: fixed count)

    @property
    def strategy_enum(self) -> Strategy:
        return Strategy[self.strategy]

    def build_circuit(self):
        return workload_by_name(self.workload, self.size, **dict(self.workload_kwargs))


@lru_cache(maxsize=256)
def _compilation_key(
    workload: str,
    size: int,
    workload_kwargs: tuple[tuple[str, Any], ...],
    strategy: str,
    error_factor: float,
) -> str:
    """Content key of one sweep compilation, memoized on the argument tuple.

    The arguments fully determine the circuit, so hashing its gate stream
    once per distinct combination keeps repeated :func:`_compiled` lookups
    (every point of a coherence grid, say) at dictionary speed instead of
    rebuilding and re-fingerprinting the workload circuit per point.
    """
    circuit = workload_by_name(workload, size, **dict(workload_kwargs))
    error_model = ErrorModel(ququart_error_factor=error_factor)
    return compilation_cache_key(circuit, strategy, None, error_model)


def _compiled(
    workload: str,
    size: int,
    workload_kwargs: tuple[tuple[str, Any], ...],
    strategy: str,
    error_factor: float,
) -> CompilationResult:
    """Compile one (circuit, strategy, error-model) combination, cached.

    Lookups go through the shared :class:`~repro.core.compile_cache.CompileCache`:
    the in-process LRU front makes sweeps that revisit a compilation (for
    example a coherence sweep, which only changes the noise model) compile
    once per worker, and with ``$REPRO_CACHE_DIR`` set the disk layer lets
    worker processes and repeated runs reuse each unique (circuit, strategy,
    device, error model) combination instead of recompiling it (workers
    racing on a cold cache may duplicate a compilation, never corrupt one —
    see ``CompileCache.get_or_create``).
    """
    key = _compilation_key(workload, size, workload_kwargs, strategy, error_factor)

    def build() -> CompilationResult:
        circuit = workload_by_name(workload, size, **dict(workload_kwargs))
        error_model = ErrorModel(ququart_error_factor=error_factor)
        compiler = QuantumWaltzCompiler(gate_set=GateSet(error_model=error_model))
        return compiler.compile(circuit, strategy=Strategy[strategy])

    return get_cache().get_or_create(key, build)


def _point_simulates(point: SweepPoint) -> bool:
    """Whether the point runs a trajectory simulation at all.

    Fixed-count points simulate when their budget is positive; adaptive
    points (``num_trajectories="auto"`` or ``target_stderr`` set) always do.
    """
    if point.num_trajectories == "auto" or point.target_stderr is not None:
        return True
    return point.num_trajectories > 0


def _resolve_batch_size(point: SweepPoint, hilbert_dim: int) -> int | None:
    if point.batch_size == "auto":
        if hilbert_dim > _AUTO_BATCH_DIM_LIMIT:
            return None
        if point.num_trajectories == "auto":
            # Adaptive rounds (REPRO_ADAPTIVE_ROUND) exceed the default block.
            return DEFAULT_BATCH_SIZE
        return min(DEFAULT_BATCH_SIZE, max(point.num_trajectories, 1))
    return point.batch_size


def evaluate_point(
    point: SweepPoint, simulation: TrajectoryResult | None = None
) -> StrategyEvaluation:
    """Compile, estimate EPS and (optionally) simulate one sweep point.

    ``simulation`` supplies the point's trajectory result instead of running
    it — the artifact graph's per-point result layer hands back a persisted
    result this way, so a replayed row is assembled by exactly this code.
    """
    compilation = _compiled(
        point.workload, point.size, point.workload_kwargs, point.strategy, point.error_factor
    )
    coherence = CoherenceModel(excited_scale=point.coherence_scale)
    physical = compilation.physical_circuit
    metrics = evaluate_metrics(physical, coherence)

    if simulation is None and _point_simulates(point):
        simulator = TrajectorySimulator(NoiseModel(coherence=coherence), rng=point.seed)
        # The simulated register: the program's truncated levels, not the
        # full device dimensions (the simulator memoizes the program).
        hilbert_dim = int(np.prod(simulator.program_for(physical).dims))
        simulation = simulator.average_fidelity(
            physical,
            num_trajectories=point.num_trajectories,
            batch_size=_resolve_batch_size(point, hilbert_dim),
            workers=point.workers,
            target_stderr=point.target_stderr,
        )
    return StrategyEvaluation(
        circuit_name=compilation.logical_circuit.name,
        num_qubits=compilation.logical_circuit.num_qubits,
        strategy=point.strategy_enum,
        compilation=compilation,
        metrics=metrics,
        simulation=simulation,
    )


def point_key(point: SweepPoint) -> str:
    """Stable content key of one :class:`SweepPoint`.

    The key is a SHA-256 over every result-bearing field (``repr`` of the
    floats, so distinct values never collide), identical across processes
    and machines — lease jobs and failure artifacts use it to name
    points durably.  ``workers`` is deliberately excluded: it is a
    scheduling-only knob that never changes results (the bit-for-bit
    invariant), and :meth:`SweepRunner.schedule` rewrites it to a
    machine-dependent count — hashing it would make the same grid point key
    differently on different hosts.

    ``target_stderr`` enters the key only when set: default (fixed-count)
    points keep exactly their pre-adaptive keys, so existing plans,
    manifests and failure artifacts stay valid.
    """
    kwargs = ";".join(f"{name}={value!r}" for name, value in point.workload_kwargs)
    fields = [
        "sweep-point",
        point.workload,
        str(point.size),
        point.strategy,
        repr(point.error_factor),
        repr(point.coherence_scale),
        str(point.num_trajectories),
        str(point.seed),
        repr(point.batch_size),
        repr(point.axis),
        kwargs,
    ]
    if point.target_stderr is not None:
        fields.append(f"target_stderr={point.target_stderr!r}")
    return fingerprint(fields)


@dataclass(frozen=True)
class PointFailure:
    """One sweep point that raised during evaluation, with full attribution.

    Workers capture the exception where it happens, so a failure always
    names the :func:`point_key` (and the offending gate / pipeline pass when
    the error was a :class:`~repro.core.emitter.CompilationError`) instead
    of surfacing as an anonymous pool traceback that loses which point died.
    """

    point: SweepPoint
    point_key: str
    error_type: str
    message: str
    gate: str | None = None
    pass_name: str | None = None

    def as_record(self) -> dict:
        """Flat JSON-ready record for failure artifacts and manifests."""
        return {
            "point_key": self.point_key,
            "workload": self.point.workload,
            "size": self.point.size,
            "strategy": self.point.strategy,
            "seed": self.point.seed,
            "error_type": self.error_type,
            "message": self.message,
            "gate": self.gate,
            "pass": self.pass_name,
        }

    def describe(self) -> str:
        context = f" [gate={self.gate}, pass={self.pass_name}]" if self.gate or self.pass_name else ""
        return (
            f"{self.point.workload}-{self.point.size}/{self.point.strategy} "
            f"(key {self.point_key[:12]}): {self.error_type}: {self.message}{context}"
        )


class SweepFailure(RuntimeError):
    """Raised by :meth:`SweepRunner.run` when any point fails.

    Carries the structured :class:`PointFailure` records so callers (and the
    failure artifact written next to the sweep outputs) keep the key of every
    point that died, rather than just the first traceback.
    """

    def __init__(self, failures: Sequence[PointFailure]):
        self.failures = list(failures)
        names = "; ".join(failure.describe() for failure in self.failures[:3])
        more = f" (+{len(self.failures) - 3} more)" if len(self.failures) > 3 else ""
        super().__init__(f"{len(self.failures)} sweep point(s) failed: {names}{more}")


def _evaluate_point_guarded(point: SweepPoint) -> StrategyEvaluation | PointFailure:
    """Evaluate one point, converting exceptions into :class:`PointFailure`.

    Runs inside worker processes: the return value must be picklable either
    way, so the failure carries ``repr`` strings instead of live objects.
    """
    try:
        return evaluate_point(point)
    except Exception as error:  # deliberate: any per-point error is attributable
        gate = getattr(error, "gate", None)
        pass_name = error.pass_name if isinstance(error, CompilationError) else None
        # CompilationError.__str__ appends "[gate=..., pass=...]"; the
        # structured fields carry that context here, so keep the bare
        # message rather than embedding the same context twice.
        if isinstance(error, CompilationError) and error.args:
            message = str(error.args[0])
        else:
            message = str(error)
        return PointFailure(
            point=point,
            point_key=point_key(point),
            error_type=type(error).__name__,
            message=message,
            gate=str(gate) if gate is not None else None,
            pass_name=pass_name,
        )


def point_seeds(rng: np.random.Generator | int | None, count: int) -> list[int]:
    """Derive one deterministic seed per sweep point from a root seed."""
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    return [int(seed) for seed in generator.integers(0, 2**31 - 1, size=count)]


class SweepRunner:
    """Fan sweep points (or arbitrary picklable tasks) across processes.

    ``max_workers=None`` uses ``os.cpu_count()``; with one worker the sweep
    runs inline (sharing the in-process compilation cache), which is also the
    fallback whenever process pools are unavailable.  Results always come
    back in input order.

    Two levels of parallelism are scheduled per grid: *point-level* fan-out
    (one process per point, the PR-1 behavior) suits wide grids of small
    registers, while *trajectory-level* fan-out (points evaluated one at a
    time, each point's trajectories split across all workers via
    ``SweepPoint.workers``) suits few-point/large-register grids, where
    point fan-out would leave most cores idle on one memory-bandwidth-bound
    statevector.  ``trajectory_workers="auto"`` (the default) picks
    trajectory-level scheduling whenever the grid has fewer simulated points
    than workers; an integer forces that many trajectory processes per
    point; ``None``/1 disables the mode.  Either way the per-point results
    are bit-for-bit identical — scheduling only moves wall-clock.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        csv_path: str | Path | None = None,
        json_path: str | Path | None = None,
        trajectory_workers: int | str | None = "auto",
        failures_path: str | Path | None = None,
    ):
        self.max_workers = max_workers if max_workers is not None else (os.cpu_count() or 1)
        if self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if isinstance(trajectory_workers, int) and trajectory_workers < 1:
            raise ValueError("trajectory_workers must be at least 1")
        if isinstance(trajectory_workers, str) and trajectory_workers != "auto":
            raise ValueError("trajectory_workers must be an int, None or 'auto'")
        self.trajectory_workers = trajectory_workers
        self.csv_path = Path(csv_path) if csv_path is not None else None
        self.json_path = Path(json_path) if json_path is not None else None
        if failures_path is not None:
            self.failures_path = Path(failures_path)
        else:
            # Default next to the data artifacts, so a failed sweep leaves a
            # durable record of *which* points died alongside what succeeded.
            anchor = self.csv_path or self.json_path
            self.failures_path = (
                anchor.with_suffix(".failures.json") if anchor is not None else None
            )

    # -- generic fan-out ---------------------------------------------------------
    def iter_map(self, function: Callable, tasks: Sequence) -> Iterator:
        """Yield ``function(task)`` for every task in order, possibly in parallel.

        Streaming lets callers act on each result as it arrives while sharing
        one fan-out implementation with :meth:`map`.
        Submission is windowed (two tasks in flight per worker) rather than
        all-at-once: a consumer that stops early — a failed write, a run
        being shut down — only waits for the window to drain, instead
        of the pool grinding through every remaining task just to discard the
        results.
        """
        tasks = list(tasks)
        if self.max_workers == 1 or len(tasks) <= 1:
            for task in tasks:
                yield function(task)
            return
        workers = min(self.max_workers, len(tasks))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            window: deque = deque(
                pool.submit(function, task) for task in tasks[: 2 * workers]
            )
            next_index = len(window)
            try:
                while window:
                    result = window.popleft().result()
                    if next_index < len(tasks):
                        window.append(pool.submit(function, tasks[next_index]))
                        next_index += 1
                    yield result
            finally:
                for future in window:
                    future.cancel()

    def map(self, function: Callable, tasks: Sequence) -> list:
        """Apply ``function`` to every task, in order, possibly in parallel."""
        return list(self.iter_map(function, tasks))

    # -- scheduling ---------------------------------------------------------------
    def schedule(self, points: Sequence[SweepPoint]) -> tuple[list[SweepPoint], bool]:
        """Choose point- or trajectory-level parallelism for a grid.

        Returns ``(points, trajectory_level)``.  With trajectory-level
        scheduling the points come back annotated with ``workers`` (explicit
        per-point values are respected) and must be evaluated inline, one at
        a time — their trajectories own the process pool instead.
        """
        points = list(points)
        setting = self.trajectory_workers
        if setting is None or setting == 1:
            return points, False
        simulated = sum(1 for p in points if _point_simulates(p))
        if simulated == 0:
            return points, False
        if setting == "auto":
            # Compare the *simulated* point count: compile-only points finish
            # in negligible time, so a grid padded with them is still the
            # few-point regime where point fan-out would idle most cores.
            if self.max_workers == 1 or simulated >= self.max_workers:
                return points, False
            inner = self.max_workers
        else:
            inner = setting
        annotated = [
            replace(p, workers=inner)
            if _point_simulates(p) and p.workers is None
            else p
            for p in points
        ]
        return annotated, True

    # -- sweep-point evaluation ---------------------------------------------------
    def iter_evaluate(
        self, points: Sequence[SweepPoint]
    ) -> Iterator[tuple[int, StrategyEvaluation | PointFailure]]:
        """Yield ``(index, outcome)`` per point, in order, as results arrive.

        This is the single point-execution engine shared by :meth:`run` and
        the leased worker (:mod:`repro.experiments.scheduler`): scheduling
        (point-level versus trajectory-level fan-out) and per-point failure
        capture live here, so both paths behave identically.  Outcomes are
        either a :class:`~repro.experiments.runner.StrategyEvaluation` or a
        :class:`PointFailure` — exceptions never abort the remaining points.
        """
        points = list(points)
        scheduled, trajectory_level = self.schedule(points)
        if trajectory_level:
            # Points run inline; each point's trajectories fan out instead.
            for index, point in enumerate(scheduled):
                yield index, _evaluate_point_guarded(point)
        else:
            yield from enumerate(self.iter_map(_evaluate_point_guarded, scheduled))

    def run(self, points: Sequence[SweepPoint]) -> list[StrategyEvaluation]:
        """Evaluate every point and write the configured artifacts.

        If any point fails, the surviving evaluations are discarded, the
        failures (with their point keys) are written to ``failures_path``
        and a :class:`SweepFailure` carrying every record is raised.
        """
        points = list(points)
        evaluations: list[StrategyEvaluation | None] = [None] * len(points)
        failures: list[PointFailure] = []
        for index, outcome in self.iter_evaluate(points):
            if isinstance(outcome, PointFailure):
                failures.append(outcome)
            else:
                evaluations[index] = outcome
        if failures:
            self.write_failures(failures)
            raise SweepFailure(failures)
        self.write_artifacts(points, evaluations)
        return evaluations

    # -- artifacts ----------------------------------------------------------------
    def write_artifacts(
        self, points: Sequence[SweepPoint], evaluations: Sequence[StrategyEvaluation]
    ) -> None:
        """Write the configured CSV/JSON artifacts for finished evaluations."""
        if self.csv_path is None and self.json_path is None:
            return
        rows = sweep_rows(points, evaluations)
        if self.csv_path is not None:
            write_csv(rows, self.csv_path)
        if self.json_path is not None:
            write_json(rows, self.json_path)

    def write_failures(self, failures: Sequence[PointFailure]) -> Path | None:
        """Record failed points (their keys and error context) as JSON.

        Published atomically: the artifact is written while a sweep is
        dying, exactly when a second crash (or a kill) could otherwise leave
        a torn record.
        """
        if self.failures_path is None:
            return None
        return atomic_write_json(
            self.failures_path, [failure.as_record() for failure in failures]
        )


def sweep_rows(
    points: Sequence[SweepPoint], evaluations: Sequence[StrategyEvaluation]
) -> list[dict]:
    """Flatten (point, evaluation) pairs into CSV/JSON-ready dicts."""
    rows = []
    for point, evaluation in zip(points, evaluations):
        row = {
            "workload": point.workload,
            "size": point.size,
            "error_factor": point.error_factor,
            "coherence_scale": point.coherence_scale,
            "num_trajectories": point.num_trajectories,
            "seed": point.seed,
        }
        if point.axis is not None:
            row["axis"] = point.axis
        row.update(evaluation.as_row())
        rows.append(row)
    return rows


def write_csv(rows: Sequence[dict], path: str | Path) -> Path:
    """Write sweep rows to a CSV file (parent directories are created).

    Columns are the union of all row keys in first-seen order, so a grid
    mixing fixed-count and adaptive points (whose rows add ``n_used`` /
    ``stderr`` / ``ess``) still writes one coherent header; rows missing a
    column leave the cell empty.  For uniform grids — every default-mode
    sweep — the union equals the first row's keys, so the bytes are
    unchanged.  Published atomically through :mod:`repro.core.storage`;
    the bytes are rendered into a string buffer first (``StringIO``
    preserves the csv module's ``\\r\\n`` terminators exactly, so the
    byte-identity gates see the historical format).
    """
    path = Path(path)
    if not rows:
        return atomic_write_text(path, "")
    fieldnames = list(rows[0])
    seen = set(fieldnames)
    for row in rows[1:]:
        for name in row:
            if name not in seen:
                seen.add(name)
                fieldnames.append(name)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return atomic_write_text(path, buffer.getvalue())


def write_json(rows: Sequence[dict], path: str | Path) -> Path:
    """Write sweep rows to a JSON file (parent directories are created)."""
    return atomic_write_text(Path(path), json.dumps(list(rows), indent=2, default=str))
