"""Typed artifact nodes: the vocabulary of the reproduction's DAG.

Each node is a small frozen (hashable, picklable) dataclass naming one
content-addressed product of the pipeline:

* :class:`CompiledProgramArtifact` — one compilation through the shared
  compile cache (workload x size x strategy x error factor).
* :class:`SweepTableArtifact` — the evaluated rows of a ``SweepPoint``
  grid (the in-memory table every figure is rendered from).
* :class:`FigureCSVArtifact` / :class:`FigureJSONArtifact` — a table
  rendered to a file path through the sweep engine's writers.
* :class:`RBSurvivalsArtifact` — the randomized-benchmarking survival
  grid (a ``SweepRunner.map`` fan-out rather than a point grid).
* :class:`BenchJSONArtifact` — any upstream value dumped as a JSON
  benchmark artifact.

``identity_token()`` follows the ``point_key`` discipline: every
result-relevant field participates (floats via ``repr`` so distinct values
never collide), scheduling-only knobs and display labels are excluded.
Upstream *content* never appears in a token — the graph folds dependency
keys into the node's key itself (see :mod:`repro.artifacts.graph`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.experiments.sweep import SweepPoint, point_key

__all__ = [
    "BenchJSONArtifact",
    "CompiledProgramArtifact",
    "FigureCSVArtifact",
    "FigureJSONArtifact",
    "RBSurvivalsArtifact",
    "SweepTableArtifact",
]


def _kwargs_token(workload_kwargs: tuple[tuple[str, Any], ...]) -> str:
    return repr(tuple(sorted(workload_kwargs)))


@dataclass(frozen=True)
class CompiledProgramArtifact:
    """One compilation: resolves through the shared compile cache.

    The token mirrors the compilation cache key's inputs (workload,
    size, kwargs, strategy, error factor) without
    duplicating the key itself — the actual cache key (pass-pipeline
    fingerprint included) is computed by the provider at build time, so a
    compiler change invalidates through ``CACHE_SCHEMA_VERSION`` exactly
    as it does for direct sweeps.
    """

    workload: str
    size: int
    strategy: str
    error_factor: float = 1.0
    workload_kwargs: tuple[tuple[str, Any], ...] = ()

    @classmethod
    def from_point(cls, point: SweepPoint) -> "CompiledProgramArtifact":
        return cls(
            workload=point.workload,
            size=point.size,
            strategy=point.strategy,
            error_factor=point.error_factor,
            workload_kwargs=point.workload_kwargs,
        )

    def identity_token(self) -> str:
        return "|".join(
            [
                "compiled-program",
                self.workload,
                str(self.size),
                _kwargs_token(self.workload_kwargs),
                self.strategy,
                repr(self.error_factor),
            ]
        )


@dataclass(frozen=True)
class SweepTableArtifact:
    """The evaluated rows of one ``SweepPoint`` grid.

    ``name`` is a display label (figure id) only — two tables over the
    same points are the *same artifact* regardless of label, so the
    planner evaluates them once.  Point identity reuses ``point_key``.
    """

    points: tuple[SweepPoint, ...]
    name: str = "sweep"

    def identity_token(self) -> str:
        return "|".join(["sweep-table", *(point_key(point) for point in self.points)])


@dataclass(frozen=True)
class FigureCSVArtifact:
    """A sweep table rendered to a CSV file at ``path``.

    The path is identity: writing the same table to two destinations is
    two artifacts (two files on disk), while re-rendering to the same
    destination dedupes.
    """

    table: SweepTableArtifact
    path: str

    def identity_token(self) -> str:
        return f"figure-csv|{self.path}"


@dataclass(frozen=True)
class FigureJSONArtifact:
    """A sweep table rendered to a JSON file at ``path``."""

    table: SweepTableArtifact
    path: str

    def identity_token(self) -> str:
        return f"figure-json|{self.path}"


@dataclass(frozen=True)
class RBSurvivalsArtifact:
    """The interleaved-RB survival grid: one cell per picklable task.

    Tasks are the ``(strategy, variant, sequence_length, sample_index,
    seed, ...)`` tuples the RB driver fans out via ``SweepRunner.map``;
    they are value-typed, so ``repr`` of the tuple is a faithful token.
    """

    tasks: tuple[Any, ...]

    def identity_token(self) -> str:
        return "|".join(["rb-survivals", *(repr(task) for task in self.tasks)])


@dataclass(frozen=True)
class BenchJSONArtifact:
    """Any upstream artifact's value dumped as a JSON file at ``path``."""

    source: Any
    path: str

    def identity_token(self) -> str:
        return f"bench-json|{self.path}"
