"""Figure-driver entry points into the artifact graph.

The per-figure CLIs (fidelity_sweep, cswap_study, eps_study, sensitivity,
gate_ratio, rb) keep their interfaces and return types; the calls below
are the seam where a driver's grid becomes a graph target.  Each call
builds a fresh graph wired with the default providers, names the table
(and the CSV/JSON renderings the runner is configured for) as targets,
and hands evaluation to :meth:`repro.artifacts.graph.Graph.compute_many`
— so shared upstream artifacts across figures computed in one process
resolve once, and the outputs stay byte-identical to the pre-graph
drivers (``sweep_rows`` → ``write_csv`` → ``write_json``, same code, same
order).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

from repro.artifacts.nodes import (
    FigureCSVArtifact,
    FigureJSONArtifact,
    RBSurvivalsArtifact,
    SweepTableArtifact,
)
from repro.artifacts.providers import build_graph
from repro.experiments.sweep import SweepPoint

__all__ = [
    "compute_rb_survivals",
    "compute_table",
    "scheduler_table_executor",
]


def compute_table(
    points: Sequence[SweepPoint],
    runner: Any,
    name: str = "sweep",
    executor: Callable[[Sequence[SweepPoint]], Sequence[dict]] | None = None,
) -> list[Any]:
    """Evaluate a grid as a graph target, returning the evaluations.

    The drop-in replacement for ``runner.run(points)`` inside the figure
    drivers: same artifacts on disk (the runner's ``csv_path`` /
    ``json_path``, rendered CSV-then-JSON like ``write_artifacts``), same
    failure contract (``SweepFailure`` raised, failure artifact written),
    same return value (the ordered ``StrategyEvaluation`` list).  With an
    ``executor`` the table rows come from the external drain instead and
    the return value is the row list (a scheduler drain has no in-process
    evaluation objects).
    """
    graph = build_graph(runner=runner, executor=executor)
    table = SweepTableArtifact(points=tuple(points), name=name)
    targets: list[Any] = [table]
    csv_path = getattr(runner, "csv_path", None)
    if csv_path is not None:
        targets.append(FigureCSVArtifact(table=table, path=str(Path(csv_path))))
    json_path = getattr(runner, "json_path", None)
    if json_path is not None:
        targets.append(FigureJSONArtifact(table=table, path=str(Path(json_path))))
    rows = graph.compute_many(targets)[0]
    if executor is not None:
        return list(rows)
    return graph.provider_for(table).evaluations[table]


def compute_rb_survivals(tasks: Sequence[Any], runner: Any) -> list[Any]:
    """Evaluate the RB survival grid as a graph target (ordered results)."""
    graph = build_graph(runner=runner)
    return list(graph.compute(RBSurvivalsArtifact(tasks=tuple(tasks))))


def scheduler_table_executor(
    directory: str | Path, num_workers: int = 2
) -> Callable[[Sequence[SweepPoint]], list[dict]]:
    """A table executor that drains grids through the lease scheduler.

    Returns a callable suitable for :func:`compute_table`'s ``executor``:
    it plans the grid as a job (content-derived directory, so re-executing
    the same grid resumes rather than duplicates), drains it with
    ``num_workers`` sequential leased workers, and returns the
    manifest-vouched rows in point order — byte-identical to an in-process
    evaluation by the scheduler-equivalence invariant.
    """
    directory = Path(directory)

    def execute(points: Sequence[SweepPoint]) -> list[dict]:
        from repro.experiments.scheduler import LeasedWorker, landed_rows, plan_job, save_job
        from repro.experiments.sweep import SweepRunner

        spec = plan_job(list(points))
        job_dir = directory / spec.fingerprint[:16]
        save_job(spec, job_dir)
        for index in range(max(num_workers, 1)):
            LeasedWorker(
                job_dir,
                worker_id=f"graph-w{index}",
                runner=SweepRunner(max_workers=1),
                ttl=60.0,
                heartbeat=False,
            ).run()
        rows = landed_rows(job_dir)
        missing = [index for index in range(len(points)) if index not in rows]
        if missing:
            raise RuntimeError(
                f"scheduler drain left {len(missing)} point(s) unevaluated: {missing[:5]}"
            )
        return [rows[index] for index in range(len(points))]

    return execute
