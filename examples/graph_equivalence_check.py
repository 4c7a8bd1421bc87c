"""CI gate: graph-computed figures must match the direct sweep engine.

Three checks against one ``$REPRO_CACHE_DIR``:

1. **Byte identity** — the ``fig7-mini`` and ``fig9a-mini`` grids are run
   once directly through ``SweepRunner.run`` and once through the artifact
   graph (``compute_table``); the CSV and JSON outputs must be identical
   byte for byte.
2. **Cross-figure dedupe** — one graph computing the qram-5 slices of
   Fig. 7 and Fig. 9a together must plan exactly the 9 unique compiled
   programs the two figures share between them and build each key at most
   once.
3. **Audit-log hygiene** — across everything above, no cache key may
   appear twice in the cache's ``compile-log.txt`` within a single cold
   population (each direct/graph pairing reuses, never recompiles).

Usage::

    PYTHONPATH=src REPRO_CACHE_DIR=/tmp/repro-graph-cache python examples/graph_equivalence_check.py
"""

import os
import sys
import tempfile
from pathlib import Path


def compile_log_lines(cache) -> list[str]:
    log_path = cache.directory / "compile-log.txt"
    if not log_path.exists():
        return []
    return log_path.read_text().splitlines()


def main() -> int:
    if not os.environ.get("REPRO_CACHE_DIR"):
        print("error: REPRO_CACHE_DIR must be set for the graph-equivalence check")
        return 2

    from repro.artifacts import CompiledProgramArtifact, SweepTableArtifact, build_graph
    from repro.artifacts.figures import compute_table
    from repro.core.compile_cache import get_cache
    from repro.experiments.cswap_study import cswap_study_points
    from repro.experiments.fidelity_sweep import fidelity_sweep_points
    from repro.experiments.scheduler import named_grid_points
    from repro.experiments.sweep import SweepRunner

    out_dir = Path(tempfile.mkdtemp(prefix="graph-equivalence-"))
    failures = 0

    for grid in ("fig7-mini", "fig9a-mini"):
        points = named_grid_points(grid)
        direct = SweepRunner(
            max_workers=1,
            csv_path=out_dir / f"{grid}-direct.csv",
            json_path=out_dir / f"{grid}-direct.json",
        )
        direct.run(points)
        graph_runner = SweepRunner(
            max_workers=1,
            csv_path=out_dir / f"{grid}-graph.csv",
            json_path=out_dir / f"{grid}-graph.json",
        )
        compute_table(points, graph_runner, name=grid)
        csv_ok = graph_runner.csv_path.read_bytes() == direct.csv_path.read_bytes()
        json_ok = graph_runner.json_path.read_bytes() == direct.json_path.read_bytes()
        print(f"{grid}: CSV identical: {csv_ok}, JSON identical: {json_ok}")
        if not (csv_ok and json_ok):
            print(f"FAIL: graph-computed {grid} diverged from the direct sweep")
            failures += 1

    fig7 = fidelity_sweep_points(workloads=("qram",), sizes=(5,), num_trajectories=4, rng=0)
    fig9a = cswap_study_points(sizes=(5,), num_trajectories=4, rng=0)
    graph = build_graph(runner=SweepRunner(max_workers=1))
    tables = [
        SweepTableArtifact(points=tuple(fig7), name="fig7"),
        SweepTableArtifact(points=tuple(fig9a), name="fig9a"),
    ]
    plan = graph.plan(tables)
    compiled = [node for node in plan.order if isinstance(node, CompiledProgramArtifact)]
    graph.compute_many(tables)
    repeat_builds = {key: count for key, count in graph.builds.items() if count != 1}
    print(
        f"cross-figure plan: {len(compiled)} unique compiled programs "
        f"(expected 9), repeated builds: {len(repeat_builds)}"
    )
    if len(compiled) != 9:
        print("FAIL: the shared qram-5 strategies did not dedupe to 9 compilations")
        failures += 1
    if repeat_builds:
        print("FAIL: some artifact keys were built more than once")
        failures += 1

    log_keys = [line.split()[1] for line in compile_log_lines(get_cache()) if line.split()]
    duplicates = len(log_keys) - len(set(log_keys))
    print(f"audit log: {len(log_keys)} compilations, {duplicates} duplicate keys")
    if not log_keys or duplicates:
        print("FAIL: the compilation audit log shows recompilations (or is empty)")
        failures += 1

    if failures:
        return 1
    print("OK: graph-computed artifacts are byte-identical and evaluated at most once")
    return 0


if __name__ == "__main__":
    sys.exit(main())
