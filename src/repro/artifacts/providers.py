"""Providers binding the artifact nodes to the existing subsystems.

Nothing here re-implements pipeline machinery: compilation goes through
the sweep engine's cached ``_compiled`` path (so the compile cache's audit
log stays the recompilation oracle), and table evaluation goes through
``SweepRunner.iter_evaluate`` — the single point-execution engine.  Each
simulated point's evaluation compiles its trajectory program and
simulates, in whichever process runs it.  The graph only decides *what*
to evaluate and *whether* it already happened — including, with
``$REPRO_CACHE_DIR``, per simulated point: the table provider persists
each point's trajectory result under :func:`point_result_key`, so a warm
rerun simulates nothing.

Heavy imports (numpy, the noise stack) stay inside build methods: nodes
and graphs are cheap to construct in CLI front-ends and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.artifacts.graph import Graph, Provider
from repro.artifacts.nodes import (
    BenchJSONArtifact,
    CompiledProgramArtifact,
    FigureCSVArtifact,
    FigureJSONArtifact,
    RBSurvivalsArtifact,
    SweepTableArtifact,
)

__all__ = [
    "BenchJSONProvider",
    "BuildFailure",
    "CompiledProgramProvider",
    "FigureCSVProvider",
    "FigureJSONProvider",
    "RBSurvivalsProvider",
    "SweepTableProvider",
    "build_graph",
    "point_result_key",
]


@dataclass(frozen=True)
class BuildFailure:
    """A per-node build error, carried as a value instead of raised.

    The upstream compilation provider never aborts a table: the sweep
    engine's own per-point failure capture is the authority on failed
    points — it attributes every failure to its durable point key
    and raises ``SweepFailure`` with the complete set, exactly as a direct
    ``runner.run`` would.  The sentinel keeps the graph walk alive so that
    capture is reached.
    """

    token: str
    error_type: str
    message: str


class CompiledProgramProvider(Provider):
    """Compile one workload/strategy combination through the compile cache.

    Delegating to the sweep engine's cached compile path keeps every
    graph-driven compilation indistinguishable from a direct sweep's: same
    cache key, same audit-log discipline, same LRU/disk layering.  A
    failing compilation becomes a :class:`BuildFailure` value — the
    downstream table evaluation re-encounters and attributes it per point.
    """

    artifact_type = CompiledProgramArtifact
    name = "compiled-program"

    def build(self, node: CompiledProgramArtifact, inputs: Sequence[Any]) -> Any:
        from repro.experiments.sweep import _compiled

        try:
            return _compiled(
                node.workload, node.size, node.workload_kwargs, node.strategy, node.error_factor
            )
        except Exception as error:  # deliberate: per-point errors stay attributable
            return BuildFailure(
                token=node.identity_token(),
                error_type=type(error).__name__,
                message=str(error),
            )


def point_result_key(point: Any, physical: Any) -> str:
    """Disk-layer key of one simulated point's trajectory result.

    Folds the point's identity (:func:`~repro.experiments.sweep.point_key`:
    seed, budget, noise axes, batch size, workload arguments), the compiled
    trajectory program's key (the physical op stream and the noise model the
    point simulates under) and ``CACHE_SCHEMA_VERSION``.  Adaptive points
    also fold the resolved ``REPRO_ADAPTIVE_ROUND`` /
    ``REPRO_ADAPTIVE_MAX_TRAJ``, which change their results.  The runner's
    pool size and the fast-path knobs stay out: they never change a bit.
    """
    from repro.core.compile_cache import CACHE_SCHEMA_VERSION, fingerprint
    from repro.experiments.sweep import point_key
    from repro.noise.model import NoiseModel
    from repro.noise.program import _program_cache_key
    from repro.topology.device import CoherenceModel

    noise_model = NoiseModel(coherence=CoherenceModel(excited_scale=point.coherence_scale))
    parts = [
        "point-result",
        f"schema:{CACHE_SCHEMA_VERSION}",
        point_key(point),
        _program_cache_key(physical, noise_model, True),
    ]
    if point.num_trajectories == "auto" or point.target_stderr is not None:
        from repro.noise.adaptive import adaptive_round_size, default_max_trajectories

        parts.append(f"adaptive:{adaptive_round_size()}:{default_max_trajectories()}")
    return fingerprint(parts)


def _cached_result(cache: Any, key: str) -> Any:
    """A persisted point result, or ``None`` (recompute) on a miss.

    Undeserializable entries are quarantined by the cache itself; one that
    unpickles to anything but a trajectory result is quarantined here with
    its reason record.
    """
    from repro.noise.trajectory import TrajectoryResult

    value = cache.disk_get(key)
    if value is None or isinstance(value, TrajectoryResult):
        return value
    cache.quarantine_entry(key, "point result is not a TrajectoryResult")
    return None


class SweepTableProvider(Provider):
    """Evaluate one ``SweepPoint`` grid into CSV/JSON-ready rows.

    Depends on the deduped compiled programs of the grid, so compilations
    shared across tables resolve before any point runs.
    Evaluation itself goes through ``runner.iter_evaluate`` — scheduling,
    failure capture and the bit-for-bit guarantees are the sweep engine's,
    unchanged.  Failures follow the runner's contract: the failure artifact
    is written, ``SweepFailure`` raised.  The raw evaluations of the last
    build per node are kept on ``self.evaluations`` so driver CLIs can
    return them unchanged.

    With a persistent compile cache (``$REPRO_CACHE_DIR``) the provider
    adds a per-point result layer: every simulated point whose compilation
    succeeded is looked up under :func:`point_result_key` in the cache's
    disk layer.  A hit is assembled by ``evaluate_point(point,
    simulation=cached)`` in this process — no trajectory runs, no program
    or record loads, nothing is dispatched to the runner's workers.  Misses
    run through ``runner.iter_evaluate`` as before, and each successful
    result is published as it lands; failed points never are.  Runs
    without ``$REPRO_CACHE_DIR`` never touch the layer.  To force a
    recompute, point ``$REPRO_CACHE_DIR`` at a fresh directory.
    """

    artifact_type = SweepTableArtifact
    name = "sweep-table"

    def __init__(self, runner: Any = None):
        self.runner = runner
        self.evaluations: dict[SweepTableArtifact, list[Any]] = {}

    def requires(self, node: SweepTableArtifact) -> Sequence[Any]:
        upstream: dict[Any, None] = {}
        for point in node.points:
            upstream.setdefault(CompiledProgramArtifact.from_point(point))
        return tuple(upstream)

    def build(self, node: SweepTableArtifact, inputs: Sequence[Any]) -> Any:
        from repro.core.compile_cache import get_cache
        from repro.experiments.sweep import (
            PointFailure,
            SweepFailure,
            SweepRunner,
            evaluate_point,
            sweep_rows,
        )

        points = list(node.points)
        runner = self.runner if self.runner is not None else SweepRunner(max_workers=1)
        evaluations: list[Any] = [None] * len(points)
        cache = get_cache()
        result_keys = self._result_keys(node, inputs) if cache.persistent else {}
        for index, key in result_keys.items():
            simulation = _cached_result(cache, key)
            if simulation is not None:
                evaluations[index] = evaluate_point(points[index], simulation=simulation)
        pending = [index for index, evaluation in enumerate(evaluations) if evaluation is None]
        failures: list[PointFailure] = []
        for position, outcome in runner.iter_evaluate([points[index] for index in pending]):
            index = pending[position]
            if isinstance(outcome, PointFailure):
                failures.append(outcome)
            else:
                evaluations[index] = outcome
                if index in result_keys:
                    cache.disk_put(result_keys[index], outcome.simulation)
        if failures:
            runner.write_failures(failures)
            raise SweepFailure(failures)
        self.evaluations[node] = evaluations
        return sweep_rows(points, evaluations)

    def _result_keys(self, node: SweepTableArtifact, inputs: Sequence[Any]) -> dict[int, str]:
        """Result-layer keys of the simulated, successfully compiled points."""
        from repro.experiments.sweep import _point_simulates

        compiled = dict(zip(self.requires(node), inputs))
        keys: dict[int, str] = {}
        for index, point in enumerate(node.points):
            compilation = compiled[CompiledProgramArtifact.from_point(point)]
            if _point_simulates(point) and not isinstance(compilation, BuildFailure):
                keys[index] = point_result_key(point, compilation.physical_circuit)
        return keys


class FigureCSVProvider(Provider):
    """Render a sweep table to CSV through the sweep engine's writer."""

    artifact_type = FigureCSVArtifact
    name = "figure-csv"

    def requires(self, node: FigureCSVArtifact) -> Sequence[Any]:
        return (node.table,)

    def build(self, node: FigureCSVArtifact, inputs: Sequence[Any]) -> Any:
        from repro.experiments.sweep import write_csv

        return str(write_csv(inputs[0], node.path))


class FigureJSONProvider(Provider):
    """Render a sweep table to JSON through the sweep engine's writer."""

    artifact_type = FigureJSONArtifact
    name = "figure-json"

    def requires(self, node: FigureJSONArtifact) -> Sequence[Any]:
        return (node.table,)

    def build(self, node: FigureJSONArtifact, inputs: Sequence[Any]) -> Any:
        from repro.experiments.sweep import write_json

        return str(write_json(inputs[0], node.path))


class RBSurvivalsProvider(Provider):
    """Fan the interleaved-RB survival cells across the runner's pool."""

    artifact_type = RBSurvivalsArtifact
    name = "rb-survivals"

    def __init__(self, runner: Any = None):
        self.runner = runner

    def build(self, node: RBSurvivalsArtifact, inputs: Sequence[Any]) -> Any:
        from repro.experiments.rb import _rb_cell
        from repro.experiments.sweep import SweepRunner

        runner = self.runner if self.runner is not None else SweepRunner(max_workers=1)
        return runner.map(_rb_cell, list(node.tasks))


class BenchJSONProvider(Provider):
    """Dump an upstream artifact's value as an atomic JSON file."""

    artifact_type = BenchJSONArtifact
    name = "bench-json"

    def requires(self, node: BenchJSONArtifact) -> Sequence[Any]:
        return (node.source,)

    def build(self, node: BenchJSONArtifact, inputs: Sequence[Any]) -> Any:
        from repro.core.storage import atomic_write_json

        return str(atomic_write_json(node.path, inputs[0]))


def build_graph(runner: Any = None, cache: Any = None) -> Graph:
    """A graph wired with the full default provider set.

    ``runner`` (a ``SweepRunner``) drives table evaluation and RB fan-out;
    ``cache`` overrides the process compile cache for persistence (tests).
    """
    return Graph(
        providers=(
            CompiledProgramProvider(),
            SweepTableProvider(runner=runner),
            FigureCSVProvider(),
            FigureJSONProvider(),
            RBSurvivalsProvider(runner=runner),
            BenchJSONProvider(),
        ),
        cache=cache,
    )
