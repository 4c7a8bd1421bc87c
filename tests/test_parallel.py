"""Tests for the shared-memory multi-core trajectory runner.

The contract (ISSUE 2 acceptance): ``average_fidelity(batch_size=k,
workers=n)`` is bit-for-bit equal to the ``workers=1`` path under a
fixed seed for n in {1, 2, 4} — the per-trajectory RNG streams make the
result a pure function of (seed, trajectory index), so worker count and
chunking only move wall-clock.
"""

import numpy as np
import pytest

from repro.core.strategies import Strategy
from repro.experiments.sweep import SweepPoint, SweepRunner, evaluate_point, point_seeds
from repro.noise.model import NoiseModel
from repro.noise.parallel import resolve_workers, run_parallel_fidelities, split_chunks
from repro.noise.trajectory import TrajectorySimulator, simulate_fidelity
from helpers import mixed_physical


def _physical(strategy=Strategy.MIXED_RADIX_CCZ):
    return mixed_physical("parallel-equivalence", strategy=strategy, cswap=False)


class TestHelpers:
    def test_resolve_workers(self):
        assert resolve_workers(None) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers("auto") >= 1

    def test_resolve_workers_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_split_chunks_cover_everything_in_order(self):
        for count, workers in ((10, 4), (3, 8), (7, 1), (5, 5)):
            chunks = split_chunks(count, workers)
            assert chunks[0][0] == 0 and chunks[-1][1] == count
            for (_, stop), (start, _) in zip(chunks, chunks[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in chunks]
            assert max(sizes) - min(sizes) <= 1  # balanced

    def test_split_chunks_rejects_empty(self):
        with pytest.raises(ValueError):
            split_chunks(0, 2)


class TestWorkerEquivalence:
    @pytest.mark.parametrize("workers", (1, 2, 4))
    @pytest.mark.parametrize("batch_size", (None, 3))
    def test_workers_bitwise_equal_to_single_core(self, workers, batch_size):
        physical = _physical()
        reference = TrajectorySimulator(NoiseModel(), rng=42).average_fidelity(
            physical, num_trajectories=10
        )
        parallel = TrajectorySimulator(NoiseModel(), rng=42).average_fidelity(
            physical, num_trajectories=10, batch_size=batch_size, workers=workers
        )
        assert parallel.fidelities == reference.fidelities

    @pytest.mark.parametrize("strategy", (Strategy.QUBIT_ONLY, Strategy.FULL_QUQUART))
    def test_workers_equivalence_across_regimes(self, strategy):
        physical = _physical(strategy)
        reference = TrajectorySimulator(NoiseModel(), rng=7).average_fidelity(
            physical, num_trajectories=6
        )
        parallel = TrajectorySimulator(NoiseModel(), rng=7).average_fidelity(
            physical, num_trajectories=6, workers=2
        )
        assert parallel.fidelities == reference.fidelities

    def test_more_workers_than_trajectories(self):
        physical = _physical()
        reference = TrajectorySimulator(NoiseModel(), rng=1).average_fidelity(
            physical, num_trajectories=3
        )
        parallel = TrajectorySimulator(NoiseModel(), rng=1).average_fidelity(
            physical, num_trajectories=3, workers=8
        )
        assert parallel.fidelities == reference.fidelities

    def test_single_trajectory_stays_inline(self):
        physical = _physical()
        reference = TrajectorySimulator(NoiseModel(), rng=2).average_fidelity(
            physical, num_trajectories=1
        )
        parallel = TrajectorySimulator(NoiseModel(), rng=2).average_fidelity(
            physical, num_trajectories=1, workers=4
        )
        assert parallel.fidelities == reference.fidelities

    def test_workers_validation(self):
        physical = _physical()
        simulator = TrajectorySimulator(NoiseModel(), rng=0)
        with pytest.raises(ValueError):
            simulator.average_fidelity(physical, num_trajectories=2, workers=0)

    def test_simulate_fidelity_passes_workers(self):
        physical = _physical()
        reference = simulate_fidelity(physical, num_trajectories=4, rng=0)
        parallel = simulate_fidelity(physical, num_trajectories=4, rng=0, workers=2)
        assert parallel.fidelities == reference.fidelities

    def test_run_parallel_fidelities_orders_results(self):
        # Streams are stateful: spawn a fresh set per run from the same seed.
        physical = _physical()
        reference = run_parallel_fidelities(
            physical,
            NoiseModel(),
            np.random.default_rng(6).spawn(7),
            sampler=None,
            batch_size=None,
            workers=1,
        )
        chunked = run_parallel_fidelities(
            physical,
            NoiseModel(),
            np.random.default_rng(6).spawn(7),
            sampler=None,
            batch_size=2,
            workers=3,
        )
        assert chunked == reference


class TestSweepScheduling:
    def _points(self, count, num_trajectories=4):
        seeds = point_seeds(0, count)
        return [
            SweepPoint(
                workload="cnu",
                size=5,
                strategy="MIXED_RADIX_CCZ",
                num_trajectories=num_trajectories,
                seed=seed,
            )
            for seed in seeds
        ]

    def test_auto_picks_trajectory_level_for_few_points(self):
        runner = SweepRunner(max_workers=4)
        scheduled, trajectory_level = runner.schedule(self._points(2))
        assert trajectory_level
        assert all(p.workers == 4 for p in scheduled)

    def test_auto_keeps_point_level_for_wide_grids(self):
        runner = SweepRunner(max_workers=2)
        scheduled, trajectory_level = runner.schedule(self._points(6))
        assert not trajectory_level
        assert all(p.workers is None for p in scheduled)

    def test_explicit_point_workers_are_respected(self):
        runner = SweepRunner(max_workers=4)
        points = self._points(2)
        points[0] = SweepPoint(**{**points[0].__dict__, "workers": 1})
        scheduled, trajectory_level = runner.schedule(points)
        assert trajectory_level
        assert scheduled[0].workers == 1 and scheduled[1].workers == 4

    def test_disabled_trajectory_workers(self):
        runner = SweepRunner(max_workers=4, trajectory_workers=None)
        _, trajectory_level = runner.schedule(self._points(2))
        assert not trajectory_level

    def test_eps_only_grids_stay_point_level(self):
        runner = SweepRunner(max_workers=4)
        _, trajectory_level = runner.schedule(self._points(2, num_trajectories=0))
        assert not trajectory_level

    def test_compile_only_padding_does_not_mask_few_point_grids(self):
        # 6 eps-only points + 2 simulated points on 8 workers is still the
        # few-point regime: the threshold counts simulated points only.
        runner = SweepRunner(max_workers=8)
        points = self._points(6, num_trajectories=0) + self._points(2)
        scheduled, trajectory_level = runner.schedule(points)
        assert trajectory_level
        assert [p.workers for p in scheduled] == [None] * 6 + [8, 8]

    def test_invalid_trajectory_workers(self):
        with pytest.raises(ValueError):
            SweepRunner(trajectory_workers=0)
        with pytest.raises(ValueError):
            SweepRunner(trajectory_workers="sideways")

    def test_point_workers_do_not_change_results(self):
        base = self._points(1)[0]
        reference = evaluate_point(base).simulation.fidelities
        parallel = evaluate_point(
            SweepPoint(**{**base.__dict__, "workers": 2})
        ).simulation.fidelities
        assert parallel == reference

    def test_trajectory_level_run_matches_point_level(self):
        points = self._points(2, num_trajectories=4)
        reference = SweepRunner(max_workers=1, trajectory_workers=None).run(points)
        parallel = SweepRunner(max_workers=2, trajectory_workers=2).run(points)
        assert [e.simulation.fidelities for e in reference] == [
            e.simulation.fidelities for e in parallel
        ]
