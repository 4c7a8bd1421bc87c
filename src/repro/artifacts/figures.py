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
from typing import Any, Sequence

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
]


def compute_table(points: Sequence[SweepPoint], runner: Any, name: str = "sweep") -> list[Any]:
    """Evaluate a grid as a graph target, returning the evaluations.

    The drop-in replacement for ``runner.run(points)`` inside the figure
    drivers: same artifacts on disk (the runner's ``csv_path`` /
    ``json_path``, rendered CSV-then-JSON like ``write_artifacts``), same
    failure contract (``SweepFailure`` raised, failure artifact written),
    same return value (the ordered ``StrategyEvaluation`` list).
    """
    graph = build_graph(runner=runner)
    table = SweepTableArtifact(points=tuple(points), name=name)
    targets: list[Any] = [table]
    csv_path = getattr(runner, "csv_path", None)
    if csv_path is not None:
        targets.append(FigureCSVArtifact(table=table, path=str(Path(csv_path))))
    json_path = getattr(runner, "json_path", None)
    if json_path is not None:
        targets.append(FigureJSONArtifact(table=table, path=str(Path(json_path))))
    graph.compute_many(targets)
    return graph.provider_for(table).evaluations[table]


def compute_rb_survivals(tasks: Sequence[Any], runner: Any) -> list[Any]:
    """Evaluate the RB survival grid as a graph target (ordered results)."""
    graph = build_graph(runner=runner)
    return list(graph.compute(RBSurvivalsArtifact(tasks=tuple(tasks))))

