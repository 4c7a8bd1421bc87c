"""Point-pool equivalence: any ``max_workers`` == ``max_workers=1``.

:class:`~repro.experiments.sweep.SweepRunner`'s point pool is the only
process pool in the package; a point's trajectories always run in the
process that evaluates the point.  Every point owns a seed and every
trajectory draws from its own spawned stream, so the pool size moves
wall-clock only: the CSV and JSON artifacts of ``max_workers`` 2 and 4
must equal the serial run's byte for byte — on grids with fewer simulated
points than pool processes, on a grid wider than the pool, and with an
adaptive point in the grid.
"""

import json
import os
from dataclasses import replace

import pytest

from repro.experiments.sweep import (
    SweepFailure,
    SweepPoint,
    SweepRunner,
    _point_simulates,
    point_key,
)
from repro.noise.adaptive import adaptive_average_fidelity
from repro.noise.trajectory import TrajectorySimulator, simulate_fidelity
from helpers import mini_points, mixed_physical

POOL_SIZES = (2, 4)

#: One adaptive point (a single 16-trajectory round under the default
#: round size), small enough to sit next to the fixed-count mini-grid.
ADAPTIVE_POINT = SweepPoint(
    workload="cnu",
    size=5,
    strategy="MIXED_RADIX_CCZ",
    num_trajectories=16,
    seed=5,
    target_stderr=0.05,
)

GRIDS = ("one-point", "two-points", "one-simulated-among-compile-only", "six-points", "with-adaptive")


def _grid(name):
    simulated = mini_points(num_trajectories=3)
    compile_only = mini_points(num_trajectories=0)
    return {
        "one-point": simulated[:1],
        "two-points": simulated[:2],
        "one-simulated-among-compile-only": compile_only[:2] + simulated[2:3],
        "six-points": simulated,
        "with-adaptive": simulated[:5] + [ADAPTIVE_POINT],
    }[name]


def _pid(_task):
    return os.getpid()


def _artifacts(points, max_workers, directory):
    directory.mkdir(parents=True)
    csv_path, json_path = directory / "sweep.csv", directory / "sweep.json"
    SweepRunner(max_workers=max_workers, csv_path=csv_path, json_path=json_path).run(points)
    return csv_path.read_bytes(), json_path.read_bytes()


@pytest.fixture(scope="module")
def serial_artifacts(tmp_path_factory):
    """The ``max_workers=1`` reference bytes of every grid, built once."""
    root = tmp_path_factory.mktemp("serial")
    return {name: _artifacts(_grid(name), 1, root / name) for name in GRIDS}


@pytest.mark.parametrize("max_workers", POOL_SIZES)
@pytest.mark.parametrize("grid", GRIDS)
def test_pool_writes_the_serial_bytes(grid, max_workers, serial_artifacts, tmp_path):
    serial_csv, serial_json = serial_artifacts[grid]
    pooled_csv, pooled_json = _artifacts(_grid(grid), max_workers, tmp_path / "pool")
    assert pooled_csv == serial_csv
    assert pooled_json == serial_json


def test_grids_cover_both_sides_of_the_pool_width():
    # The narrow grids have fewer simulated points than the largest pool
    # (where a per-point trajectory pool was once chosen instead), the
    # six-point grid more points than the two-process pool.
    for name in ("one-point", "two-points", "one-simulated-among-compile-only"):
        simulated = sum(_point_simulates(point) for point in _grid(name))
        assert simulated < max(POOL_SIZES)
    assert len(_grid("six-points")) > min(POOL_SIZES)


def test_adaptive_grid_writes_adaptive_columns(serial_artifacts):
    # Guards the with-adaptive case against comparing two fixed-count runs.
    csv_bytes, _ = serial_artifacts["with-adaptive"]
    header = csv_bytes.decode().splitlines()[0].split(",")
    assert {"n_used", "stderr", "ess"} <= set(header)


def test_pooled_runs_leave_the_parent_process():
    # With more than one task, max_workers > 1 really evaluates in children.
    assert os.getpid() not in SweepRunner(max_workers=2).map(_pid, range(4))


def _failures(points, max_workers, path):
    runner = SweepRunner(max_workers=max_workers, failures_path=path)
    with pytest.raises(SweepFailure) as raised:
        runner.run(points)
    return [failure.point_key for failure in raised.value.failures], path.read_bytes()


@pytest.mark.parametrize("max_workers", POOL_SIZES)
def test_pool_reports_the_serial_failures(max_workers, tmp_path):
    # A point that dies in a pool process is reported under its own key,
    # in grid order, with the failure-record bytes of the serial run.
    points = _grid("six-points")
    for index in (1, 4):
        points[index] = replace(points[index], workload="no-such-workload")
    serial_keys, serial_bytes = _failures(points, 1, tmp_path / "serial.json")
    pooled_keys, pooled_bytes = _failures(points, max_workers, tmp_path / "pooled.json")
    assert serial_keys == pooled_keys == [point_key(points[1]), point_key(points[4])]
    assert pooled_bytes == serial_bytes
    records = json.loads(pooled_bytes)
    assert all("no-such-workload" in record["message"] for record in records)


@pytest.mark.parametrize("max_workers", POOL_SIZES)
def test_iter_evaluate_streams_in_grid_order(max_workers):
    points = _grid("six-points")
    outcomes = list(SweepRunner(max_workers=max_workers).iter_evaluate(points))
    assert [index for index, _ in outcomes] == list(range(len(points)))
    assert [evaluation.strategy.name for _, evaluation in outcomes] == [
        point.strategy for point in points
    ]


def test_single_task_runs_in_the_calling_process():
    # A pool wider than the work never forks for one task.
    assert SweepRunner(max_workers=4).map(_pid, [0]) == [os.getpid()]


@pytest.mark.parametrize("max_workers", POOL_SIZES)
def test_pool_on_a_cold_shared_cache_writes_the_serial_bytes(
    max_workers, serial_artifacts, shared_cache, tmp_path
):
    # Pool processes racing on one cold $REPRO_CACHE_DIR may duplicate a
    # compilation, never change a row.
    pooled = _artifacts(_grid("six-points"), max_workers, tmp_path / "pool")
    assert pooled == serial_artifacts["six-points"]
    assert any(shared_cache.rglob("*.pkl")), "the pool published no compilation"


@pytest.mark.parametrize(
    "call",
    (
        lambda: SweepPoint(workload="cnu", size=5, strategy="QUBIT_ONLY", workers=2),
        lambda: SweepRunner(max_workers=1, trajectory_workers=2),
        lambda: TrajectorySimulator(rng=0).average_fidelity(
            mixed_physical("no-fan-out"), num_trajectories=2, workers=2
        ),
        lambda: simulate_fidelity(mixed_physical("no-fan-out"), num_trajectories=2, workers=2),
        lambda: adaptive_average_fidelity(
            TrajectorySimulator(rng=0), mixed_physical("no-fan-out"), target_stderr=0.1, workers=2
        ),
    ),
    ids=("SweepPoint", "SweepRunner", "average_fidelity", "simulate_fidelity", "adaptive"),
)
def test_no_entry_point_takes_a_trajectory_worker_count(call):
    # The point pool is the only process fan-out; nothing accepts a
    # per-point trajectory worker count any more.
    with pytest.raises(TypeError, match="workers"):
        call()
