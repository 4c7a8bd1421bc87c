"""Tests for the parallel sweep engine (repro.experiments.sweep)."""

import json

import numpy as np
import pytest

from repro.core.emitter import CompilationError
from repro.core.strategies import Strategy
from repro.experiments import sweep as sweep_mod
from repro.experiments.sweep import (
    PointFailure,
    SweepFailure,
    SweepPoint,
    SweepRunner,
    _compiled,
    evaluate_point,
    point_key,
    point_seeds,
    sweep_rows,
    write_csv,
    write_json,
)


def _points(num_trajectories=4):
    seeds = point_seeds(0, 4)
    return [
        SweepPoint(
            workload="cnu",
            size=5,
            strategy=strategy.name,
            num_trajectories=num_trajectories,
            seed=seed,
        )
        for seed, strategy in zip(
            seeds,
            (
                Strategy.QUBIT_ONLY,
                Strategy.MIXED_RADIX_CCZ,
                Strategy.FULL_QUQUART,
                Strategy.QUBIT_ITOFFOLI,
            ),
        )
    ]


class TestEvaluatePoint:
    def test_point_evaluation_shape(self):
        evaluation = evaluate_point(_points()[1])
        assert evaluation.strategy is Strategy.MIXED_RADIX_CCZ
        assert evaluation.simulation is not None
        assert evaluation.simulation.num_trajectories == 4
        assert 0.0 < evaluation.mean_fidelity <= 1.0

    def test_compilation_memoized(self):
        point = _points()[0]
        first = _compiled(
            point.workload, point.size, point.workload_kwargs, point.strategy, point.error_factor
        )
        second = _compiled(
            point.workload, point.size, point.workload_kwargs, point.strategy, point.error_factor
        )
        assert first is second

    def test_batch_size_does_not_change_results(self):
        base = _points(num_trajectories=6)[1]
        loop = evaluate_point(
            SweepPoint(**{**base.__dict__, "batch_size": None})
        ).simulation.fidelities
        batched = evaluate_point(
            SweepPoint(**{**base.__dict__, "batch_size": 3})
        ).simulation.fidelities
        auto = evaluate_point(base).simulation.fidelities
        assert loop == batched == auto

    def test_workload_kwargs(self):
        point = SweepPoint(
            workload="synthetic",
            size=5,
            strategy="QUBIT_ONLY",
            workload_kwargs=(("num_gates", 6), ("cx_fraction", 0.5), ("seed", 3)),
        )
        evaluation = evaluate_point(point)
        assert evaluation.num_qubits == 5


class TestSweepRunner:
    def test_inline_run_preserves_order(self):
        points = _points()
        evaluations = SweepRunner(max_workers=1).run(points)
        assert [e.strategy.name for e in evaluations] == [p.strategy for p in points]

    def test_process_pool_matches_inline(self):
        points = _points(num_trajectories=2)
        inline = SweepRunner(max_workers=1).run(points)
        pooled = SweepRunner(max_workers=2).run(points)
        assert [e.simulation.fidelities for e in inline] == [
            e.simulation.fidelities for e in pooled
        ]

    def test_generic_map(self):
        runner = SweepRunner(max_workers=1)
        assert runner.map(abs, [-1, -2, 3]) == [1, 2, 3]

    def test_windowed_map_preserves_order_beyond_the_window(self):
        # More tasks than the 2-per-worker submission window: results must
        # still stream back in input order as the window refills.
        tasks = list(range(-12, 0))
        assert SweepRunner(max_workers=2).map(abs, tasks) == [abs(t) for t in tasks]

    def test_artifacts(self, tmp_path):
        points = _points(num_trajectories=2)
        csv_path = tmp_path / "sweep.csv"
        json_path = tmp_path / "sweep.json"
        runner = SweepRunner(max_workers=1, csv_path=csv_path, json_path=json_path)
        evaluations = runner.run(points)

        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == len(points) + 1  # header
        assert "workload" in lines[0] and "fidelity" in lines[0]

        payload = json.loads(json_path.read_text())
        assert len(payload) == len(points)
        assert payload[0]["workload"] == "cnu"
        assert payload[0]["strategy"] == points[0].strategy
        assert len(evaluations) == len(points)

    def test_rows_include_axis(self):
        point = SweepPoint(workload="cnu", size=5, strategy="QUBIT_ONLY", axis=2.5)
        rows = sweep_rows([point], [evaluate_point(point)])
        assert rows[0]["axis"] == 2.5

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            SweepRunner(max_workers=0)


class TestFailureAttribution:
    """A dead point must surface with its key, not as an anonymous traceback."""

    def _fail_strategy(self, monkeypatch, doomed: str):
        real_evaluate = sweep_mod.evaluate_point

        def failing_evaluate(point):
            if point.strategy == doomed:
                raise CompilationError("injected failure", gate="CCX(0,1,2)", pass_name="route")
            return real_evaluate(point)

        monkeypatch.setattr(sweep_mod, "evaluate_point", failing_evaluate)

    def test_run_records_failed_point_key(self, tmp_path, monkeypatch):
        points = _points(num_trajectories=0)
        doomed = points[2]
        self._fail_strategy(monkeypatch, doomed.strategy)
        csv_path = tmp_path / "sweep.csv"
        runner = SweepRunner(max_workers=1, csv_path=csv_path)

        with pytest.raises(SweepFailure) as excinfo:
            runner.run(points)
        [failure] = excinfo.value.failures
        assert isinstance(failure, PointFailure)
        assert failure.point_key == point_key(doomed)
        assert failure.point == doomed
        assert failure.error_type == "CompilationError"
        assert failure.pass_name == "route"
        assert doomed.strategy in str(excinfo.value)

        # The failure artifact is written next to the configured outputs and
        # names the point durably; the data artifact itself is withheld.
        payload = json.loads((tmp_path / "sweep.failures.json").read_text())
        assert payload == [failure.as_record()]
        assert payload[0]["point_key"] == point_key(doomed)
        assert payload[0]["strategy"] == doomed.strategy
        assert not csv_path.exists()

    def test_failures_do_not_abort_remaining_points(self, monkeypatch):
        points = _points(num_trajectories=0)
        self._fail_strategy(monkeypatch, points[0].strategy)
        runner = SweepRunner(max_workers=1)
        outcomes = dict(runner.iter_evaluate(points))
        assert isinstance(outcomes[0], PointFailure)
        # All later points still evaluated normally despite the earlier death.
        assert all(not isinstance(outcomes[i], PointFailure) for i in range(1, len(points)))

    def test_explicit_failures_path(self, tmp_path, monkeypatch):
        points = _points(num_trajectories=0)
        self._fail_strategy(monkeypatch, points[1].strategy)
        failures_path = tmp_path / "deaths.json"
        runner = SweepRunner(max_workers=1, failures_path=failures_path)
        with pytest.raises(SweepFailure):
            runner.run(points)
        assert json.loads(failures_path.read_text())[0]["strategy"] == points[1].strategy


class TestPointKey:
    def test_key_is_stable_and_field_sensitive(self):
        point = _points()[0]
        assert point_key(point) == point_key(point)
        for changed in (
            SweepPoint(**{**point.__dict__, "seed": point.seed + 1}),
            SweepPoint(**{**point.__dict__, "error_factor": 2.0}),
            SweepPoint(**{**point.__dict__, "strategy": "FULL_QUQUART"}),
            SweepPoint(**{**point.__dict__, "workload_kwargs": (("depth", 3),)}),
        ):
            assert point_key(changed) != point_key(point)


class TestSeeds:
    def test_point_seeds_deterministic(self):
        assert point_seeds(7, 5) == point_seeds(7, 5)
        assert point_seeds(7, 5) != point_seeds(8, 5)

    def test_point_seeds_accepts_generator(self):
        generator = np.random.default_rng(1)
        seeds = point_seeds(generator, 3)
        assert len(seeds) == 3
