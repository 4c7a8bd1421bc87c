"""Typed artifact graph: content-addressed nodes, providers, ``compute``.

The reproduction's products — compiled programs, sweep tables, figure
CSV/JSON files — form a DAG of content-addressed artifacts.  This package
makes the DAG explicit (sciline-style): :mod:`~repro.artifacts.nodes`
declares the node types, :mod:`~repro.artifacts.providers` binds each to
the existing subsystem that builds it, and :mod:`~repro.artifacts.graph`
plans and evaluates targets with at-most-once semantics per content key,
persisting through the shared compile cache.  :mod:`~repro.artifacts.figures`
is the seam the figure drivers call through.
"""

from repro.artifacts.graph import (
    ArtifactNode,
    Graph,
    GraphCycleError,
    GraphError,
    GraphPlan,
    GraphStats,
    MissingProviderError,
    Provider,
)
from repro.artifacts.nodes import (
    BenchJSONArtifact,
    CompiledProgramArtifact,
    FigureCSVArtifact,
    FigureJSONArtifact,
    RBSurvivalsArtifact,
    SweepTableArtifact,
)
from repro.artifacts.providers import (
    BenchJSONProvider,
    BuildFailure,
    CompiledProgramProvider,
    FigureCSVProvider,
    FigureJSONProvider,
    RBSurvivalsProvider,
    SweepTableProvider,
    build_graph,
)

__all__ = [
    "ArtifactNode",
    "BenchJSONArtifact",
    "BenchJSONProvider",
    "BuildFailure",
    "CompiledProgramArtifact",
    "CompiledProgramProvider",
    "FigureCSVArtifact",
    "FigureCSVProvider",
    "FigureJSONArtifact",
    "FigureJSONProvider",
    "Graph",
    "GraphCycleError",
    "GraphError",
    "GraphPlan",
    "GraphStats",
    "MissingProviderError",
    "Provider",
    "RBSurvivalsArtifact",
    "RBSurvivalsProvider",
    "SweepTableArtifact",
    "SweepTableProvider",
    "build_graph",
]
