"""Differential tests: graph-computed figures vs the pre-graph sweep engine.

The contract (ISSUE 9 acceptance): every figure artifact computed through
the artifact graph is **byte-identical** to the same grid run directly
through ``SweepRunner`` — CSV and JSON, cold and warm — and shared
upstream artifacts evaluate at most once, audited through the compile
log, compile counts and the simulations each point ran.  With
``$REPRO_CACHE_DIR`` the table provider's per-point result layer replays
each simulated point's result, so a warm rerun simulates nothing and
still writes the same bytes.
"""

import dataclasses
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
from repro.artifacts.figures import compute_table
from repro.core.compile_cache import CompileCache, get_cache, reset_cache
from repro.experiments.cswap_study import cswap_study_points
from repro.experiments.fidelity_sweep import fidelity_sweep_points, run_fidelity_sweep
from repro.experiments.scheduler import named_grid_points
from repro.experiments.sweep import SweepFailure, SweepPoint, SweepRunner, point_key, sweep_rows
from repro.noise.trajectory import TrajectorySimulator
from helpers import compile_log_keys, result_key

MINI_GRIDS = ["fig7-mini", "fig9a-mini"]


@pytest.fixture
def simulations(monkeypatch):
    """Names of the circuits ``TrajectorySimulator.average_fidelity`` ran (in-process)."""
    calls = []
    average_fidelity = TrajectorySimulator.average_fidelity

    def counting(self, physical, *args, **kwargs):
        calls.append(physical.name)
        return average_fidelity(self, physical, *args, **kwargs)

    monkeypatch.setattr(TrajectorySimulator, "average_fidelity", counting)
    return calls


def fresh_process():
    """Drop every in-process front, as a new process on the same cache would see."""
    get_cache().clear_memory()


def direct_run(points, out_dir, label="direct"):
    runner = SweepRunner(
        max_workers=1, csv_path=out_dir / f"{label}.csv", json_path=out_dir / f"{label}.json"
    )
    evaluations = runner.run(points)
    return runner, evaluations


def graph_run(points, out_dir, label="graph", name="table"):
    runner = SweepRunner(
        max_workers=1, csv_path=out_dir / f"{label}.csv", json_path=out_dir / f"{label}.json"
    )
    evaluations = compute_table(points, runner, name=name)
    return runner, evaluations


class TestByteIdentity:
    @pytest.mark.parametrize("grid", MINI_GRIDS)
    def test_mini_figure_artifacts_are_byte_identical(self, grid, tmp_path, shared_cache):
        points = named_grid_points(grid)
        direct, direct_evals = direct_run(points, tmp_path)
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
        direct, direct_evals = direct_run(points, tmp_path)
        assert sweep_rows(points, evaluations) == sweep_rows(points, direct_evals)


class TestAtMostOnceAcrossFigures:
    def test_cross_figure_dedupe_of_shared_compilations(
        self, tmp_path, shared_cache, simulations
    ):
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
        # Every point was simulated exactly once, during table evaluation: a
        # point both tables share is not simulated again.
        simulated = {point_key(point) for point in [*fig7, *fig9a] if point.num_trajectories}
        assert len(simulations) == len(simulated)

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

    def test_cold_run_compiles_and_simulates_each_point_once(
        self, tmp_path, monkeypatch, memory_only_cache, simulations
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
        assert len(simulations) == len(simulated)
        # Fixed-count points run the explicit engines: no no-jump record.
        assert fastpath_mod.stats()["records_built"] == 0

    def test_pooled_table_leaves_all_simulation_to_the_workers(
        self, tmp_path, shared_cache, simulations
    ):
        points = named_grid_points("fig7-mini")
        # The direct run publishes no point results, so the pooled table
        # below is cold and its workers simulate every point.
        serial, _ = direct_run(points, tmp_path, label="serial")
        assert len(simulations) == sum(1 for p in points if p.num_trajectories)
        del simulations[:]
        pooled = SweepRunner(
            max_workers=2,
            csv_path=tmp_path / "pooled.csv",
            json_path=tmp_path / "pooled.json",
        )
        compute_table(points, pooled, name="fig7-mini")
        assert pooled.csv_path.read_bytes() == serial.csv_path.read_bytes()
        assert pooled.json_path.read_bytes() == serial.json_path.read_bytes()
        assert simulations == [], "the parent process simulated a point"


class TestWarmCacheReplay:
    def test_second_compute_recompiles_and_simulates_nothing(
        self, tmp_path, shared_cache, simulations
    ):
        points = named_grid_points("fig7-mini")
        cold, _ = graph_run(points, tmp_path, label="cold", name="fig7")
        cold_keys = compile_log_keys(shared_cache)
        assert len(cold_keys) == len(set(cold_keys)) > 0
        assert len(simulations) == len(points)
        del simulations[:]

        # Simulate a fresh process against the same REPRO_CACHE_DIR: drop
        # the in-memory cache front.
        fresh_process()
        warm, _ = graph_run(points, tmp_path, label="warm", name="fig7")
        assert compile_log_keys(shared_cache) == cold_keys, "warm compute recompiled"
        assert simulations == [], "warm compute simulated trajectories"
        assert warm.csv_path.read_bytes() == cold.csv_path.read_bytes()
        assert warm.json_path.read_bytes() == cold.json_path.read_bytes()


class RecordingRunner(SweepRunner):
    """A runner that remembers every point handed to its execution engine."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.dispatched = []

    def iter_evaluate(self, points):
        points = list(points)
        self.dispatched.extend(points)
        return super().iter_evaluate(points)


BASE_POINT = SweepPoint(
    workload="synthetic",
    size=4,
    strategy="QUBIT_ONLY",
    num_trajectories=2,
    seed=1,
    workload_kwargs=(("num_gates", 6), ("seed", 3)),
)
ADAPTIVE_POINT = SweepPoint(
    workload="cnu",
    size=5,
    strategy="MIXED_RADIX_CCZ",
    num_trajectories=16,
    seed=5,
    target_stderr=0.05,
)


class TestPointResultLayer:
    """The table provider's per-point result layer under ``$REPRO_CACHE_DIR``."""

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 2},
            {"num_trajectories": 3},
            {"error_factor": 2.0},
            {"coherence_scale": 2.0},
            {"batch_size": 1},
            {"target_stderr": 0.5},
            {"workload_kwargs": (("num_gates", 6), ("seed", 4))},
        ],
        ids=lambda change: next(iter(change)),
    )
    def test_every_result_bearing_field_misses_the_layer(
        self, change, tmp_path, shared_cache, simulations
    ):
        graph_run([BASE_POINT], tmp_path, label="base")
        changed = dataclasses.replace(BASE_POINT, **change)
        assert result_key(changed) != result_key(BASE_POINT)
        del simulations[:]
        graph_run([changed], tmp_path, label="changed")
        assert len(simulations) == 1, "a changed point was served the base point's result"

    def test_adaptive_round_size_enters_only_adaptive_keys(
        self, tmp_path, shared_cache, simulations, monkeypatch
    ):
        graph_run([BASE_POINT, ADAPTIVE_POINT], tmp_path, label="cold")
        assert len(simulations) == 2
        del simulations[:]
        monkeypatch.setenv("REPRO_ADAPTIVE_ROUND", "8")
        graph_run([BASE_POINT, ADAPTIVE_POINT], tmp_path, label="rounds")
        assert len(simulations) == 1, "only the adaptive point depends on the round size"

    def test_memory_only_cache_never_touches_the_layer(
        self, tmp_path, monkeypatch, simulations
    ):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        reset_cache()
        points = named_grid_points("fig7-mini")
        keys = {result_key(point) for point in points}
        touched = []
        disk_get, disk_put = CompileCache.disk_get, CompileCache.disk_put
        monkeypatch.setattr(
            CompileCache, "disk_get", lambda self, key: touched.append(key) or disk_get(self, key)
        )
        monkeypatch.setattr(
            CompileCache,
            "disk_put",
            lambda self, key, value: touched.append(key) or disk_put(self, key, value),
        )
        first, _ = graph_run(points, tmp_path, label="first")
        second, _ = graph_run(points, tmp_path, label="second")
        assert keys.isdisjoint(touched)
        assert len(simulations) == 2 * len(points)
        assert first.json_path.read_bytes() == second.json_path.read_bytes()
        reset_cache()

    def test_failing_point_is_never_published_while_the_others_are(
        self, tmp_path, shared_cache, simulations
    ):
        good = list(named_grid_points("fig7-mini"))[:2]
        # Compiles fine, then fails inside the simulation (no block size of 0).
        bad = dataclasses.replace(good[0], batch_size=0)
        uncompilable = SweepPoint(workload="no-such-workload", size=5, strategy="QUBIT_ONLY")
        points = [*good, bad, uncompilable]
        for attempt in range(2):
            with pytest.raises(SweepFailure) as excinfo:
                graph_run(points, tmp_path, label=f"attempt{attempt}")
            failed = {failure.point for failure in excinfo.value.failures}
            assert failed == {bad, uncompilable}
        cache = get_cache()
        assert all(cache.path_for(result_key(point)).exists() for point in good)
        assert not cache.path_for(result_key(bad)).exists()
        # The second attempt replayed the good points and retried the bad one.
        assert len(simulations) == len(good) + 2

    def test_partly_warm_grid_simulates_only_its_new_points(
        self, tmp_path, shared_cache, simulations
    ):
        points = named_grid_points("fig7-mini")
        graph_run(points[:3], tmp_path, label="part")
        del simulations[:]
        fresh_process()
        warm, _ = graph_run(points, tmp_path, label="full")
        assert len(simulations) == len(points) - 3
        direct, _ = direct_run(points, tmp_path)
        assert warm.csv_path.read_bytes() == direct.csv_path.read_bytes()
        assert warm.json_path.read_bytes() == direct.json_path.read_bytes()

    def test_adaptive_warm_rows_are_byte_identical(
        self, tmp_path, shared_cache, simulations, monkeypatch
    ):
        monkeypatch.setenv("REPRO_ADAPTIVE_ROUND", "8")
        points = [
            ADAPTIVE_POINT,
            dataclasses.replace(ADAPTIVE_POINT, workload="qram", seed=6),
        ]
        cold, cold_evals = graph_run(points, tmp_path, label="cold")
        del simulations[:]
        fresh_process()
        warm, warm_evals = graph_run(points, tmp_path, label="warm")
        assert simulations == []
        rows = sweep_rows(points, warm_evals)
        assert rows == sweep_rows(points, cold_evals)
        assert all({"n_used", "stderr", "ess"} <= set(row) for row in rows)
        assert warm.csv_path.read_bytes() == cold.csv_path.read_bytes()
        assert warm.json_path.read_bytes() == cold.json_path.read_bytes()

    def test_pooled_runner_never_dispatches_hits(self, tmp_path, shared_cache):
        points = named_grid_points("fig7-mini")
        graph_run(points[:3], tmp_path, label="part")
        serial, _ = direct_run(points, tmp_path, label="serial")
        fresh_process()
        pooled = RecordingRunner(
            max_workers=2, csv_path=tmp_path / "pooled.csv", json_path=tmp_path / "pooled.json"
        )
        compute_table(points, pooled, name="fig7-mini")
        assert [point_key(point) for point in pooled.dispatched] == [
            point_key(point) for point in points[3:]
        ]
        assert pooled.csv_path.read_bytes() == serial.csv_path.read_bytes()
        assert pooled.json_path.read_bytes() == serial.json_path.read_bytes()


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
