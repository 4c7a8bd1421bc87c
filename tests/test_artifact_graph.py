"""Differential tests: graph-computed figures vs the pre-graph sweep engine.

The contract (ISSUE 9 acceptance): every figure artifact computed through
the artifact graph is **byte-identical** to the same grid run directly
through ``SweepRunner`` — CSV and JSON, cold and warm, in-process or
drained through the lease scheduler — and shared upstream artifacts
evaluate at most once, audited through the compile log and the fastpath
record counters.
"""

import json

import pytest

import repro.noise.fastpath as fastpath_mod
import repro.noise.program as program_mod
from repro.artifacts import (
    BuildFailure,
    CompiledProgramArtifact,
    SweepTableArtifact,
    build_graph,
)
from repro.artifacts.figures import compute_table, scheduler_table_executor
from repro.core.compile_cache import get_cache, reset_cache
from repro.experiments.cswap_study import cswap_study_points
from repro.experiments.fidelity_sweep import fidelity_sweep_points, run_fidelity_sweep
from repro.experiments.scheduler import named_grid_points
from repro.experiments.sweep import SweepFailure, SweepPoint, SweepRunner, point_key, sweep_rows
from repro.noise.fastpath import reset_fastpath
from helpers import compile_log_keys

MINI_GRIDS = ["fig7-mini", "fig9a-mini"]


def direct_run(points, out_dir, label="direct"):
    runner = SweepRunner(
        max_workers=1, csv_path=out_dir / f"{label}.csv", json_path=out_dir / f"{label}.json"
    )
    evaluations = runner.run(points)
    return runner, evaluations


def graph_run(points, out_dir, label="graph", name="table", executor=None):
    runner = SweepRunner(
        max_workers=1, csv_path=out_dir / f"{label}.csv", json_path=out_dir / f"{label}.json"
    )
    evaluations = compute_table(points, runner, name=name, executor=executor)
    return runner, evaluations


class TestByteIdentity:
    @pytest.mark.parametrize("grid", MINI_GRIDS)
    def test_mini_figure_artifacts_are_byte_identical(self, grid, tmp_path, shared_cache):
        points = named_grid_points(grid)
        direct, direct_evals = direct_run(points, tmp_path)
        reset_fastpath()
        graph, graph_evals = graph_run(points, tmp_path, name=grid)
        assert graph.csv_path.read_bytes() == direct.csv_path.read_bytes()
        assert graph.json_path.read_bytes() == direct.json_path.read_bytes()
        assert sweep_rows(points, graph_evals) == sweep_rows(points, direct_evals)

    def test_compile_only_grid_is_byte_identical(self, tmp_path, shared_cache):
        points = [
            SweepPoint(workload="cnu", size=size, strategy=strategy)
            for size in (5, 7)
            for strategy in ("QUBIT_ONLY", "FULL_QUQUART")
        ]
        direct, _ = direct_run(points, tmp_path)
        graph, _ = graph_run(points, tmp_path, name="fig8-mini")
        assert graph.csv_path.read_bytes() == direct.csv_path.read_bytes()
        assert graph.json_path.read_bytes() == direct.json_path.read_bytes()

    def test_driver_entry_point_goes_through_the_graph(self, tmp_path, shared_cache):
        evaluations = run_fidelity_sweep(
            workloads=("cnu",), sizes=(5,), num_trajectories=3, rng=0
        )
        points = fidelity_sweep_points(
            workloads=("cnu",), sizes=(5,), num_trajectories=3, rng=0
        )
        reset_fastpath()
        direct, direct_evals = direct_run(points, tmp_path)
        assert sweep_rows(points, evaluations) == sweep_rows(points, direct_evals)

    def test_scheduler_executor_is_byte_identical(self, tmp_path, shared_cache):
        points = named_grid_points("fig7-mini")
        direct, _ = direct_run(points, tmp_path)
        reset_fastpath()
        executor = scheduler_table_executor(tmp_path / "jobs", num_workers=2)
        graph, rows = graph_run(points, tmp_path, name="fig7", executor=executor)
        assert graph.csv_path.read_bytes() == direct.csv_path.read_bytes()
        assert graph.json_path.read_bytes() == direct.json_path.read_bytes()
        assert len(rows) == len(points)


class TestAtMostOnceAcrossFigures:
    def test_cross_figure_dedupe_of_shared_compilations(self, tmp_path, shared_cache):
        # Fig. 7 and Fig. 9a restricted to qram-5 share 4 of their 6+7
        # strategies: one graph computing both tables must compile the 9
        # unique combinations exactly once each.
        fig7 = fidelity_sweep_points(
            workloads=("qram",), sizes=(5,), num_trajectories=4, rng=0
        )
        fig9a = cswap_study_points(sizes=(5,), num_trajectories=4, rng=0)
        runner = SweepRunner(max_workers=1)
        graph = build_graph(runner=runner)
        tables = [
            SweepTableArtifact(points=tuple(fig7), name="fig7"),
            SweepTableArtifact(points=tuple(fig9a), name="fig9a"),
        ]
        plan = graph.plan(tables)
        compiled_nodes = [n for n in plan.order if isinstance(n, CompiledProgramArtifact)]
        assert len(compiled_nodes) == 9

        graph.compute_many(tables)
        assert all(count == 1 for count in graph.builds.values())
        # The audit log counts circuit compilations AND trajectory-program
        # compilations (both flow through the cache): each unique key must
        # appear exactly once across both figures.
        log_keys = compile_log_keys(shared_cache)
        assert len(log_keys) == len(set(log_keys)) > 0
        # Every record was built exactly once, during table evaluation: a
        # point both tables share replays the first table's records from the
        # shared store.
        simulated = {point_key(point) for point in [*fig7, *fig9a] if point.num_trajectories}
        stats = fastpath_mod.stats()
        assert stats["records_built"] == 4 * len(simulated)

    def test_identical_tables_under_different_labels_evaluate_once(
        self, tmp_path, shared_cache
    ):
        points = tuple(named_grid_points("fig7-mini"))
        graph = build_graph(runner=SweepRunner(max_workers=1))
        first, second = graph.compute_many(
            [
                SweepTableArtifact(points=points, name="fig7"),
                SweepTableArtifact(points=points, name="fig7-copy"),
            ]
        )
        assert first == second
        assert all(count == 1 for count in graph.builds.values())


class TestOncePerPoint:
    """A cold graph run does each simulated point's work once, in the table."""

    @pytest.fixture
    def memory_only_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        reset_cache()
        yield
        reset_cache()

    def test_cold_run_compiles_each_program_and_builds_each_record_once(
        self, tmp_path, monkeypatch, memory_only_cache
    ):
        compiles = []
        compile_program = program_mod.compile_program

        def counting_compile(physical, *args, **kwargs):
            compiles.append(physical)
            return compile_program(physical, *args, **kwargs)

        monkeypatch.setattr(program_mod, "compile_program", counting_compile)
        points = named_grid_points("fig7-mini")
        simulated = [point for point in points if point.num_trajectories]
        assert simulated
        graph_run(points, tmp_path, name="fig7-mini")
        assert len(compiles) == len(simulated)
        stats = fastpath_mod.stats()
        assert stats["records_built"] == sum(p.num_trajectories for p in simulated)
        assert stats["prescanned"] == 0

    def test_pooled_table_leaves_all_record_work_to_the_workers(self, tmp_path, shared_cache):
        points = named_grid_points("fig7-mini")
        serial, _ = graph_run(points, tmp_path, label="serial", name="fig7-mini")
        reset_fastpath()
        pooled = SweepRunner(
            max_workers=2,
            csv_path=tmp_path / "pooled.csv",
            json_path=tmp_path / "pooled.json",
        )
        compute_table(points, pooled, name="fig7-mini")
        assert pooled.csv_path.read_bytes() == serial.csv_path.read_bytes()
        assert pooled.json_path.read_bytes() == serial.json_path.read_bytes()
        stats = fastpath_mod.stats()
        assert stats["prescanned"] == 0
        assert stats["records_built"] == 0


class TestWarmCacheReplay:
    def test_second_compute_recompiles_and_rerecords_nothing(
        self, tmp_path, shared_cache, monkeypatch
    ):
        # The mini grids run 4 trajectories per point, below the default
        # record-publication threshold; lower it so bundles land on disk
        # and the "fresh process" replay below can hit them.
        monkeypatch.setenv("REPRO_FASTPATH_MIN_TRAJ", "1")
        points = named_grid_points("fig7-mini")
        cold, _ = graph_run(points, tmp_path, label="cold", name="fig7")
        cold_keys = compile_log_keys(shared_cache)
        assert len(cold_keys) == len(set(cold_keys)) > 0

        # Simulate a fresh process against the same REPRO_CACHE_DIR: drop
        # the in-memory cache front and the in-memory record store.
        reset_fastpath()
        get_cache().clear_memory()
        warm, _ = graph_run(points, tmp_path, label="warm", name="fig7")
        assert compile_log_keys(shared_cache) == cold_keys, "warm compute recompiled"
        stats = fastpath_mod.stats()
        assert stats["records_built"] == 0, "warm compute re-recorded"
        assert stats["record_disk_hits"] > 0
        assert warm.csv_path.read_bytes() == cold.csv_path.read_bytes()
        assert warm.json_path.read_bytes() == cold.json_path.read_bytes()


class TestFailureContract:
    def test_failing_point_surfaces_as_sweep_failure_with_artifact(
        self, tmp_path, shared_cache
    ):
        points = list(named_grid_points("fig7-mini"))[:2]
        points.append(SweepPoint(workload="no-such-workload", size=5, strategy="QUBIT_ONLY"))
        runner = SweepRunner(
            max_workers=1, csv_path=tmp_path / "out.csv", json_path=tmp_path / "out.json"
        )
        with pytest.raises(SweepFailure) as excinfo:
            compute_table(points, runner, name="failing")
        assert len(excinfo.value.failures) == 1
        assert excinfo.value.failures[0].point.workload == "no-such-workload"
        failures_payload = json.loads((tmp_path / "out.failures.json").read_text())
        assert failures_payload[0]["workload"] == "no-such-workload"
        assert not (tmp_path / "out.csv").exists()

    def test_upstream_compile_failure_is_a_value_not_an_abort(self, shared_cache):
        graph = build_graph()
        node = CompiledProgramArtifact(
            workload="no-such-workload", size=5, strategy="QUBIT_ONLY"
        )
        value = graph.compute(node)
        assert isinstance(value, BuildFailure)
        assert value.error_type in {"KeyError", "ValueError"}
