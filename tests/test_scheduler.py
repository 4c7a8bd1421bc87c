"""Tests for the lease-based work-stealing coordinator (repro.experiments.scheduler).

The core invariants: exactly one worker wins any claim/reclaim race (atomic
link/rename decides, the loser re-pulls), dead workers' leases expire and
their points are re-leased, heartbeats keep slow-but-alive workers from
being reclaimed, stale on-disk state from another SHARD_SCHEMA_VERSION is
rejected loudly — and for any worker count, kill schedule and lease-TTL
setting, ``merge_job`` output is **byte-identical** to an unsharded
``SweepRunner`` run of the same grid.

Lease timing runs on an injected fake clock, so no test sleeps to make a
deadline pass; the two heartbeat-thread tests use real (sub-second) clocks
because the renewal thread is real.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.compile_cache import fingerprint, get_cache, reset_cache
from repro.core.emitter import CompilationError
from repro.experiments import scheduler
from repro.experiments import sweep as sweep_mod
from repro.experiments.scheduler import (
    SHARD_SCHEMA_VERSION,
    JobSpec,
    Lease,
    LeaseCoordinator,
    LeasedWorker,
    LeaseLost,
    SchedulerError,
    estimate_point_cost,
    job_status,
    landed_rows,
    load_job,
    merge_job,
    plan_job,
    point_from_json,
    point_to_json,
    retry_failed,
    save_job,
)
from repro.experiments.sweep import SweepPoint, SweepRunner, point_key
from helpers import compile_log_keys
from helpers import mini_points as _shared_mini_points

REPO_ROOT = Path(__file__).parents[1]

#: SHA-256 of the ``fifo`` job file of the ``fig7-mini`` grid at
#: SHARD_SCHEMA_VERSION 4: a job directory planned by an earlier release must
#: keep loading, draining and merging, so these bytes may not drift.  Re-pinned
#: at the v4 bump, which moved each point's row into its done marker: the
#: points are unchanged, only the schema number (and so the fingerprint) moved.
FIG7_MINI_JOB_SHA256 = "991746cb2df399e3ed8e60c4dc1c4bcb2da663fc06a21f7ebef092a7b0e08aaa"


def wait_for_lease_held_by(directory, worker_id, timeout=10.0):
    """Block until ``worker_id`` holds the lease on point 0 (real clock)."""
    lease_path = directory / "leases" / "00000.lease"
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if json.loads(lease_path.read_text())["worker_id"] == worker_id:
                return
        except (OSError, json.JSONDecodeError):
            pass
        time.sleep(0.01)
    pytest.fail(f"worker {worker_id!r} never claimed the lease")


def mini_points(num_trajectories=2):
    """The shared mini-grid, at this suite's lighter default budget."""
    return _shared_mini_points(num_trajectories=num_trajectories)


class FakeClock:
    """Deterministic lease timebase: advances only when a test says so."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def seed_grid():
    """Four points sharing one compilation and one trajectory-program key.

    Only the RNG seed varies (the per-point sampling, not any compiled
    artifact), so every worker draining this grid needs exactly the same
    cached artifacts — the sharpest probe of cross-worker cache sharing.
    """
    return [
        SweepPoint(
            workload="cnu",
            size=5,
            strategy="MIXED_RADIX_CCZ",
            num_trajectories=2,
            seed=seed,
            axis=float(seed),
        )
        for seed in range(4)
    ]


def run_unsharded(points, out_dir):
    """CSV and JSON artifacts of a plain single-process run of ``points``."""
    runner = SweepRunner(
        max_workers=1, csv_path=out_dir / "unsharded.csv", json_path=out_dir / "unsharded.json"
    )
    runner.run(points)
    return runner.csv_path, runner.json_path


def make_job(directory, points=None, policy="fifo", **plan_kwargs):
    spec = plan_job(points if points is not None else mini_points(), policy=policy, **plan_kwargs)
    save_job(spec, directory)
    return spec


def count_evaluations(monkeypatch, delay=0.0):
    """Patch ``evaluate_point`` to log each evaluated point's key (and optionally sleep)."""
    real_evaluate = sweep_mod.evaluate_point
    evaluated = []

    def counting_evaluate(point):
        evaluated.append(point_key(point))
        time.sleep(delay)
        return real_evaluate(point)

    monkeypatch.setattr(sweep_mod, "evaluate_point", counting_evaluate)
    return evaluated


def done_markers(directory):
    """The parsed done markers of a job directory, keyed by point index."""
    return {
        int(path.stem): json.loads(path.read_text())
        for path in sorted((Path(directory) / "done").glob("*.json"))
    }


#: A stand-in row for lease-protocol tests that evaluate nothing.
ROW = {"workload": "cnu", "fidelity": 0.5}


def run_fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that sees only ``src``."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )


def make_worker(directory, worker_id, clock, ttl=10.0, **kwargs):
    kwargs.setdefault("heartbeat", False)
    kwargs.setdefault("sleep", lambda seconds: None)
    return LeasedWorker(directory, worker_id=worker_id, ttl=ttl, clock=clock, **kwargs)


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------


class TestJobSpec:
    def test_round_trips_through_json(self, tmp_path):
        spec = make_job(tmp_path / "job")
        loaded = load_job(tmp_path / "job")
        assert loaded == spec
        assert loaded.fingerprint == spec.fingerprint

    def test_rejects_other_schema_versions(self, tmp_path):
        directory = tmp_path / "job"
        spec = make_job(directory)
        payload = spec.to_json()
        payload["schema"] = SHARD_SCHEMA_VERSION + 1
        (directory / "job.json").write_text(json.dumps(payload))
        with pytest.raises(SchedulerError, match="schema"):
            load_job(directory)

    def test_rejects_tampered_contents(self, tmp_path):
        directory = tmp_path / "job"
        spec = make_job(directory)
        payload = spec.to_json()
        payload["priorities"][0] = 99.0
        (directory / "job.json").write_text(json.dumps(payload))
        with pytest.raises(SchedulerError, match="fingerprint"):
            load_job(directory)

    def test_rejects_unknown_policy_and_bad_priorities(self):
        points = tuple(mini_points())
        with pytest.raises(SchedulerError, match="policy"):
            JobSpec(points=points, policy="lifo", priorities=(0.0,) * len(points))
        with pytest.raises(SchedulerError, match="priorit"):
            JobSpec(points=points, policy="fifo", priorities=(0.0,))

    def test_missing_job_is_a_clean_error(self, tmp_path):
        with pytest.raises(SchedulerError, match="no job"):
            load_job(tmp_path / "nowhere")

    def test_save_refuses_a_different_grid_in_the_same_directory(self, tmp_path):
        directory = tmp_path / "job"
        spec = make_job(directory)
        # Saving the same grid again is a no-op...
        assert save_job(plan_job(mini_points()), directory) == directory / "job.json"
        assert load_job(directory) == spec
        # ...but another grid's markers and rows must never mix with these.
        with pytest.raises(SchedulerError, match="different grid"):
            save_job(plan_job(mini_points(num_trajectories=3)), directory)
        assert load_job(directory) == spec

    def test_point_json_round_trip(self):
        point = SweepPoint(
            workload="synthetic",
            size=5,
            strategy="QUBIT_ONLY",
            error_factor=2.5,
            axis=2.5,
            workload_kwargs=(("num_gates", 6), ("cx_fraction", 0.5), ("seed", 3)),
        )
        restored = point_from_json(json.loads(json.dumps(point_to_json(point))))
        assert restored == point
        assert point_key(restored) == point_key(point)

    def test_point_json_carries_exactly_the_schema_3_fields(self):
        assert list(point_to_json(mini_points()[0])) == [
            "workload",
            "size",
            "strategy",
            "error_factor",
            "coherence_scale",
            "num_trajectories",
            "seed",
            "batch_size",
            "axis",
            "workload_kwargs",
            "target_stderr",
        ]

    def test_rejects_non_json_workload_kwargs(self, tmp_path):
        # A tuple kwarg would come back from JSON as a list, change the
        # point's key and make the stored job read as corrupt — reject it
        # loudly at save time instead.
        point = SweepPoint(
            workload="synthetic",
            size=5,
            strategy="QUBIT_ONLY",
            workload_kwargs=(("taps", (1, 2)),),
        )
        with pytest.raises(SchedulerError, match="taps"):
            point_to_json(point)
        with pytest.raises(SchedulerError, match="taps"):
            save_job(plan_job([point]), tmp_path)
        assert not (tmp_path / "job.json").exists()

    def test_cost_weighted_plan_is_deterministic(self, shared_cache):
        first = plan_job(mini_points(), policy="cost-weighted")
        second = plan_job(mini_points(), policy="cost-weighted")
        assert first.priorities == second.priorities
        assert all(priority > 0 for priority in first.priorities)
        assert first.fingerprint == second.fingerprint

    def test_fifo_order_is_grid_order(self):
        spec = plan_job(mini_points(), policy="fifo")
        assert spec.acquisition_order() == list(range(len(spec.points)))
        assert spec.priorities == (0.0,) * len(spec.points)

    def test_cost_weighted_order_leases_expensive_points_first(self):
        points = mini_points()
        costs = {point_key(p): float(i * i % 7) for i, p in enumerate(points)}
        spec = plan_job(points, policy="cost-weighted", cost_fn=lambda p: costs[point_key(p)])
        order = spec.acquisition_order()
        ordered_costs = [spec.priorities[index] for index in order]
        assert ordered_costs == sorted(ordered_costs, reverse=True)
        # Ties break on the lower index, so the order is fully deterministic.
        assert order == sorted(
            range(len(points)), key=lambda index: (-spec.priorities[index], index)
        )

    def test_job_file_bytes_are_stable_at_schema_4(self, tmp_path):
        assert SHARD_SCHEMA_VERSION == 4
        path = save_job(plan_job(scheduler.named_grid_points("fig7-mini")), tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FIG7_MINI_JOB_SHA256

    def test_schema_2_job_carrying_workers_is_refused(self, tmp_path, capsys):
        # A job planned before v3: every point still carries the dropped
        # trajectory-level ``"workers"`` count, under a v2 fingerprint that
        # was valid then.  It must be refused, never drained with the
        # count silently ignored.
        spec = plan_job(mini_points())
        payload = spec.to_json()
        payload["schema"] = 2
        payload["fingerprint"] = fingerprint(
            [
                "lease-job",
                "schema:2",
                f"policy:{spec.policy}",
                *[point_key(point) for point in spec.points],
                *[f"priority:{priority!r}" for priority in spec.priorities],
            ]
        )
        for point in payload["points"]:
            point["workers"] = 2
        directory = tmp_path / "job"
        directory.mkdir()
        (directory / "job.json").write_text(json.dumps(payload, indent=2))
        with pytest.raises(SchedulerError, match="job schema 2"):
            load_job(directory)
        with pytest.raises(SchedulerError, match="job schema 2"):
            make_worker(directory, "w0", FakeClock())
        assert scheduler.main(["work", "--dir", str(directory), "--no-heartbeat"]) == 2
        assert "job schema 2" in capsys.readouterr().out
        assert not (directory / "done").exists()

    def test_schema_3_job_directory_is_refused_not_merged(self, tmp_path, capsys):
        # A job drained before v4: done markers without rows, and the rows
        # in per-worker row stores vouched for by per-worker manifests.  The
        # whole directory must be refused, never merged from its markers.
        spec = plan_job(mini_points())
        payload = spec.to_json()
        payload["schema"] = 3
        payload["fingerprint"] = fingerprint(
            [
                "lease-job",
                "schema:3",
                f"policy:{spec.policy}",
                *[point_key(point) for point in spec.points],
                *[f"priority:{priority!r}" for priority in spec.priorities],
            ]
        )
        directory = tmp_path / "job"
        (directory / "done").mkdir(parents=True)
        (directory / "job.json").write_text(json.dumps(payload, indent=2))
        worker_dir = directory / "workers" / "w0"
        worker_dir.mkdir(parents=True)
        completed = {}
        for index, point in enumerate(spec.points):
            marker = {"schema": 3, "index": index, "point_key": point_key(point)}
            (directory / "done" / f"{index:05d}.json").write_text(json.dumps(marker, indent=2))
            completed[str(index)] = point_key(point)
        (worker_dir / "rows.json").write_text(json.dumps({key: ROW for key in completed}))
        manifest = {"schema": 3, "worker_id": "w0", "job_fingerprint": payload["fingerprint"]}
        (worker_dir / "manifest.json").write_text(json.dumps({**manifest, "completed": completed}))
        before = sorted(str(path) for path in directory.rglob("*"))

        with pytest.raises(SchedulerError, match="job schema 3"):
            merge_job(directory)
        with pytest.raises(SchedulerError, match="job schema 3"):
            job_status(directory)
        assert scheduler.main(["merge", "--dir", str(directory)]) == 2
        assert "job schema 3" in capsys.readouterr().out
        assert scheduler.main(["work", "--dir", str(directory), "--no-heartbeat"]) == 2
        assert sorted(str(path) for path in directory.rglob("*")) == before

    @pytest.mark.parametrize("grid", ["fig7", "fig7-mini", "fig9a", "fig9a-mini"])
    def test_named_grids_save_as_jobs(self, grid, tmp_path):
        points = scheduler.named_grid_points(grid)
        assert points
        assert len({point_key(point) for point in points}) == len(points)
        save_job(plan_job(points), tmp_path)
        assert load_job(tmp_path).points == tuple(points)

    def test_point_cost_is_op_count_times_trajectories(self, shared_cache):
        two = SweepPoint(workload="cnu", size=5, strategy="QUBIT_ONLY", num_trajectories=2)
        per_two = estimate_point_cost(two)
        assert per_two > 0
        assert estimate_point_cost(replace(two, num_trajectories=4)) == 2 * per_two
        # A compile-only point still costs its compilation: one unit.
        assert estimate_point_cost(replace(two, num_trajectories=0)) == per_two / 2

    def test_adaptive_points_are_costed_at_a_nominal_budget(self, shared_cache):
        fixed = SweepPoint(workload="cnu", size=5, strategy="QUBIT_ONLY", num_trajectories=1)
        per_trajectory = estimate_point_cost(fixed)
        nominal = scheduler._ADAPTIVE_PLANNING_TRAJECTORIES
        auto = replace(fixed, num_trajectories="auto")
        assert estimate_point_cost(auto) == nominal * per_trajectory
        # An explicit integer cap below the nominal budget bounds the cost.
        capped = replace(fixed, num_trajectories=10, target_stderr=0.01)
        assert estimate_point_cost(capped) == 10 * per_trajectory


# ---------------------------------------------------------------------------
# the lease protocol
# ---------------------------------------------------------------------------


class TestLeaseProtocol:
    def test_acquire_follows_priority_order_and_skips_settled(self, tmp_path):
        directory = tmp_path / "job"
        points = mini_points()
        make_job(directory, points, policy="cost-weighted", cost_fn=lambda p: float(p.seed % 5))
        clock = FakeClock()
        coordinator = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        first = coordinator.acquire()
        assert first is not None
        assert first.index == coordinator.spec.acquisition_order()[0]
        coordinator.complete(first, ROW)
        second = coordinator.acquire()
        assert second is not None
        assert second.index == coordinator.spec.acquisition_order()[1]

    def test_live_lease_blocks_other_workers(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        lease = a.acquire()
        assert lease is not None and lease.worker_id == "a"
        assert b.acquire() is None
        clock.advance(9.9)
        assert b.acquire() is None  # still live: deadline has not passed

    def test_expired_lease_is_reclaimed_and_re_leased(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        dead = a.acquire()  # worker a "dies" holding the lease
        assert dead is not None
        clock.advance(10.1)
        release = b.acquire()
        assert release is not None
        assert release.index == dead.index and release.worker_id == "b"
        status = job_status(directory, clock=clock)
        assert status["reclaimed"] == 1 and status["leased"] == 1

    def test_renewal_prevents_reclaim_of_slow_but_alive_worker(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        lease = a.acquire()
        clock.advance(8.0)
        renewed = a.renew(lease)  # the heartbeat fires before the deadline
        assert renewed.expires_at == clock() + 10
        clock.advance(4.0)  # past the *original* deadline, inside the renewed one
        assert b.acquire() is None
        assert job_status(directory, clock=clock)["reclaimed"] == 0

    def test_renewal_only_moves_deadlines_forward(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        lease = a.acquire()
        clock.now -= 5.0  # a backwards clock step must not shrink the lease
        renewed = a.renew(lease)
        assert renewed.expires_at == lease.expires_at

    def test_renew_after_reclaim_raises_lease_lost(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        lease = a.acquire()
        clock.advance(10.1)
        assert b.acquire() is not None  # b reclaims and re-leases the point
        with pytest.raises(LeaseLost, match="reclaimed"):
            a.renew(lease)

    def test_reclaim_race_atomic_rename_decides_and_loser_repulls(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:2])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        dead = a.acquire()
        clock.advance(10.1)
        stale = b._read_lease(dead.index)
        # Both workers see the expired lease; exactly one rename can win.
        assert a._reclaim(dead.index, stale) is True
        assert b._reclaim(dead.index, stale) is False
        # The loser re-pulls and still makes progress (the freed point is
        # unclaimed, so the very next acquire picks it up).
        release = b.acquire()
        assert release is not None and release.index == dead.index

    def test_claim_race_atomic_link_decides(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        assert a._try_claim(0) is not None
        assert b._try_claim(0) is None  # os.link refuses to replace the file
        # Neither claim attempt leaves tmp droppings behind.
        assert sorted(p.name for p in (directory / "leases").iterdir()) == ["00000.lease"]

    def test_stale_lease_from_other_schema_version_is_rejected(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        coordinator = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        lease_dir = directory / "leases"
        lease_dir.mkdir(parents=True, exist_ok=True)
        stale = {
            "schema": SHARD_SCHEMA_VERSION + 1,
            "index": 0,
            "point_key": "k",
            "job_fingerprint": "f",
            "worker_id": "ghost",
            "token": "ghost:1:1",
            "expires_at": 0.0,
        }
        (lease_dir / "00000.lease").write_text(json.dumps(stale))
        with pytest.raises(SchedulerError, match="stale leases are rejected"):
            coordinator.acquire()

    def test_release_leaves_a_successor_lease_alone(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        lost = a.acquire()
        clock.advance(10.1)
        successor = b.acquire()
        # a finishes its (reclaimed) evaluation: the done marker lands, but
        # b's live lease must survive a's release.
        a.complete(lost, ROW)
        current = b._read_lease(successor.index)
        assert current is not None and current.token == successor.token

    def test_done_markers_carry_no_worker_attribution(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        a = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=clock)
        b = LeaseCoordinator(directory, worker_id="b", ttl=10, clock=clock)
        lost = a.acquire()
        clock.advance(10.1)
        successor = b.acquire()
        a.complete(lost, ROW)
        first = (directory / "done" / "00000.json").read_bytes()
        b.complete(successor, ROW)  # benign double execution: byte-identical marker
        assert (directory / "done" / "00000.json").read_bytes() == first
        assert json.loads(first) == {
            "schema": SHARD_SCHEMA_VERSION,
            "index": 0,
            "point_key": point_key(mini_points()[0]),
            "row": ROW,
        }

    @pytest.mark.parametrize(
        "index, edit, reason",
        [
            (0, lambda marker: [marker], "is not a JSON object"),
            (0, lambda marker: {**marker, "schema": 3}, "has schema 3, not 4"),
            (0, lambda marker: {**marker, "index": 1}, "names point 1"),
            (0, lambda marker: {key: marker[key] for key in marker if key != "row"}, "holds no row"),
            (1, lambda marker: {**marker, "index": 1}, "belongs to another job"),
        ],
        ids=["not-an-object", "old-schema", "wrong-index", "no-row", "past-the-grid"],
    )
    def test_landed_rows_quarantines_a_marker_it_cannot_honour(self, index, edit, reason, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        coordinator = LeaseCoordinator(directory, worker_id="a", ttl=10, clock=FakeClock())
        coordinator.complete(coordinator.acquire(), ROW)
        assert landed_rows(directory) == {0: ROW}
        good = directory / "done" / "00000.json"
        path = directory / "done" / f"{index:05d}.json"
        bad = json.dumps(edit(json.loads(good.read_text())))
        good.unlink()
        path.write_text(bad)
        with pytest.raises(SchedulerError, match=f"{path.name} {reason}"):
            landed_rows(directory)
        assert not path.exists()
        assert (directory / "quarantine" / path.name).read_text() == bad
        record = json.loads((directory / "quarantine" / f"{path.name}.reason.json").read_text())
        assert reason in record["reason"]
        assert landed_rows(directory) == {}

    @pytest.mark.parametrize("ttl", [float("nan"), float("inf"), 0.0, -1.0])
    def test_ttl_must_be_finite_and_positive(self, ttl, tmp_path):
        # A NaN deadline never compares as expired, so the lease of a dead
        # worker would never be reclaimed and the job would never drain.
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        with pytest.raises(SchedulerError, match="lease ttl"):
            LeaseCoordinator(directory, worker_id="a", ttl=ttl)

    @pytest.mark.parametrize("value", ["nan", "inf", "-5", "abc"])
    def test_ttl_from_the_environment_is_checked_too(self, value, tmp_path, monkeypatch):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        monkeypatch.setenv("REPRO_LEASE_TTL", value)
        with pytest.raises(SchedulerError, match="lease ttl"):
            LeaseCoordinator(directory, worker_id="a")


# ---------------------------------------------------------------------------
# the worker loop
# ---------------------------------------------------------------------------


class TestLeasedWorker:
    @pytest.mark.parametrize("num_workers", [1, 3, 7])
    def test_kill_schedule_merges_byte_identical_to_unsharded(
        self, num_workers, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points()
        unsharded_csv = tmp_path / "unsharded.csv"
        unsharded_json = tmp_path / "unsharded.json"
        SweepRunner(max_workers=1, csv_path=unsharded_csv, json_path=unsharded_json).run(points)
        cold_keys = compile_log_keys(shared_cache)

        directory = tmp_path / "job"
        make_job(directory, points)
        clock = FakeClock()
        killed = make_worker(directory, "w0", clock, abandon_after=1)
        report = killed.run()
        assert report.abandoned and report.num_completed == 1
        assert job_status(directory, clock=clock)["leased"] == 1

        # The abandoned lease expires; a restarted w0 and its peers drain the
        # rest one point per turn, each starting like a fresh host process
        # with only the disk cache.  The killed worker's landed point is
        # never evaluated again; its abandoned one is, exactly once.
        clock.advance(10.1)
        reset_cache()
        evaluated = count_evaluations(monkeypatch)
        workers = [make_worker(directory, f"w{k}", clock, max_points=1) for k in range(num_workers)]
        for _ in range(len(points)):
            for worker in workers:
                worker.run()
        assert sorted(evaluated) == sorted(point_key(point) for point in points[1:])
        markers = done_markers(directory)
        assert [marker["point_key"] for marker in markers.values()] == [
            point_key(point) for point in points
        ]

        status = job_status(directory, clock=clock)
        assert status["mergeable"] and status["reclaimed"] == 1
        merged = merge_job(directory)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        assert merged.json_path.read_bytes() == unsharded_json.read_bytes()
        # The leased pass reused every compilation the unsharded pass cached,
        # and no key was ever compiled twice.
        keys = compile_log_keys(shared_cache)
        assert keys == cold_keys
        assert len(keys) == len(set(keys))

    def test_failure_is_recorded_not_re_leased_and_blocks_merge(
        self, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points()
        directory = tmp_path / "job"
        make_job(directory, points)
        poison = point_key(points[2])

        real_evaluate = sweep_mod.evaluate_point

        def failing_evaluate(point):
            if point_key(point) == poison:
                raise CompilationError("injected failure", gate="CCX", pass_name="emit")
            return real_evaluate(point)

        monkeypatch.setattr(sweep_mod, "evaluate_point", failing_evaluate)
        clock = FakeClock()
        worker = make_worker(directory, "w0", clock)
        report = worker.run()
        assert report.num_failed == 1 and report.num_completed == len(points) - 1

        status = job_status(directory, clock=clock)
        assert status["failed"] == 1 and not status["mergeable"]
        record = json.loads((directory / "failed" / "00002.json").read_text())
        assert record["point_key"] == poison
        assert record["error_type"] == "CompilationError" and record["gate"] == "CCX"
        with pytest.raises(SchedulerError, match="failed"):
            merge_job(directory)

    def test_failure_key_matches_job_key(self, tmp_path, shared_cache, monkeypatch):
        # The failure marker must carry the *job's* point key, and once
        # retried the point drains to a done marker under that key.
        points = [
            SweepPoint(workload="cnu", size=5, strategy="QUBIT_ONLY", num_trajectories=2, seed=1)
        ]
        directory = tmp_path / "job"
        make_job(directory, points)
        real_evaluate = sweep_mod.evaluate_point

        def failing_evaluate(point):
            raise CompilationError("injected failure", gate="X(0)", pass_name="emit")

        monkeypatch.setattr(sweep_mod, "evaluate_point", failing_evaluate)
        clock = FakeClock()
        assert make_worker(directory, "w0", clock).run().num_failed == 1
        record = json.loads((directory / "failed" / "00000.json").read_text())
        assert record["point_key"] == point_key(points[0])

        monkeypatch.setattr(sweep_mod, "evaluate_point", real_evaluate)
        assert retry_failed(directory) == [0]
        report = make_worker(directory, "w0", clock).run()
        assert report.num_completed == 1
        assert job_status(directory, clock=clock)["mergeable"]
        assert done_markers(directory)[0]["point_key"] == point_key(points[0])

    @pytest.mark.parametrize("poll", [-1.0, float("nan"), float("inf")])
    def test_poll_must_be_finite_and_non_negative(self, poll, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        with pytest.raises(SchedulerError, match="idle poll"):
            make_worker(directory, "w0", FakeClock(), poll=poll)
        assert [path.name for path in directory.iterdir()] == ["job.json"]

    def test_zero_poll_is_a_valid_busy_poll(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        clock = FakeClock()
        LeaseCoordinator(directory, worker_id="holder", ttl=10, clock=clock).acquire()
        naps = []

        def sleep(seconds):
            naps.append(seconds)
            clock.advance(5.0)

        report = make_worker(directory, "w0", clock, poll=0.0, sleep=sleep, max_points=1).run()
        assert report.num_completed == 1
        assert naps == [0.0, 0.0]  # idle until the held lease expires at t+10

    def test_max_points_stops_early_without_draining(self, tmp_path, shared_cache):
        directory = tmp_path / "job"
        make_job(directory, mini_points())
        clock = FakeClock()
        report = make_worker(directory, "w0", clock, max_points=2).run()
        assert report.num_completed == 2 and not report.abandoned
        assert job_status(directory, clock=clock)["done"] == 2

    def test_torn_and_foreign_done_markers_are_quarantined_then_re_drained(
        self, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points()
        unsharded_csv, unsharded_json = run_unsharded(points, tmp_path)
        directory = tmp_path / "job"
        make_job(directory, points)
        clock = FakeClock()
        make_worker(directory, "w0", clock).run()
        done = directory / "done"
        # Point 1's marker names another job's point (same shape, other
        # seed); point 4's was torn mid-publish.
        foreign = json.loads((done / "00001.json").read_text())
        foreign["point_key"] = point_key(replace(points[1], seed=points[1].seed + 1))
        (done / "00001.json").write_text(json.dumps(foreign, indent=2))
        torn = (done / "00004.json").read_bytes()[:40]
        (done / "00004.json").write_bytes(torn)
        assert job_status(directory, clock=clock)["mergeable"]  # status does not parse markers

        with pytest.raises(SchedulerError, match=r"00001\.json belongs to another job.*00004\.json is unreadable"):
            merge_job(directory)
        assert not (directory / "merged.csv").exists()
        quarantine = directory / "quarantine"
        assert (quarantine / "00004.json").read_bytes() == torn  # kept, never deleted
        for name, reason in (("00001.json", "another job"), ("00004.json", "unreadable")):
            assert not (done / name).exists()
            record = json.loads((quarantine / f"{name}.reason.json").read_text())
            assert reason in record["reason"]
        status = job_status(directory, clock=clock)
        assert status["pending"] == 2 and not status["mergeable"]

        # A further worker re-drains exactly those two points, and the merge
        # is the unsharded run's bytes.
        evaluated = count_evaluations(monkeypatch)
        assert make_worker(directory, "w1", clock).run().num_completed == 2
        assert sorted(evaluated) == sorted(point_key(points[index]) for index in (1, 4))
        merged = merge_job(directory)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        assert merged.json_path.read_bytes() == unsharded_json.read_bytes()

    def test_cost_weighted_job_merges_byte_identical_to_unsharded(
        self, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points()
        unsharded_csv, unsharded_json = run_unsharded(points, tmp_path)
        directory = tmp_path / "job"
        spec = make_job(directory, points, policy="cost-weighted")
        clock = FakeClock()
        evaluated = count_evaluations(monkeypatch)
        workers = [make_worker(directory, f"w{k}", clock, max_points=1) for k in range(3)]
        for _ in range(len(points)):
            for worker in workers:
                worker.run()
        # The first round of leases (one point per worker) went to the three
        # most expensive points.
        index_of = {point_key(point): index for index, point in enumerate(points)}
        firsts = [index_of[key] for key in evaluated[:3]]
        assert [spec.priorities[index] for index in firsts] == sorted(spec.priorities)[::-1][:3]
        assert sorted(evaluated) == sorted(index_of)
        merged = merge_job(directory)
        assert merged.num_rows == len(points)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        assert merged.json_path.read_bytes() == unsharded_json.read_bytes()

    def test_restarted_worker_never_re_evaluates_its_landed_points(
        self, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points()
        directory = tmp_path / "job"
        make_job(directory, points)
        clock = FakeClock()
        report = make_worker(directory, "w0", clock, abandon_after=2).run()
        assert report.abandoned and report.num_completed == 2
        markers = done_markers(directory)
        assert {index: marker["point_key"] for index, marker in markers.items()} == {
            0: point_key(points[0]),
            1: point_key(points[1]),
        }

        # Restart w0 as a fresh process would: a cold in-memory cache front
        # (any recompilation must go through the disk layer and its log) and
        # the abandoned lease past its deadline.
        clock.advance(10.1)
        reset_cache()
        evaluated = count_evaluations(monkeypatch)
        report = make_worker(directory, "w0", clock).run()
        assert report.num_completed == len(points) - 2
        assert sorted(evaluated) == sorted(point_key(point) for point in points[2:])
        keys = compile_log_keys(shared_cache)
        assert len(keys) == len(set(keys))

        merged = merge_job(directory)
        unsharded_csv, unsharded_json = run_unsharded(points, tmp_path)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        assert merged.json_path.read_bytes() == unsharded_json.read_bytes()

    def test_merge_refuses_an_incomplete_job(self, tmp_path, shared_cache):
        directory = tmp_path / "partial"
        make_job(directory, mini_points())
        clock = FakeClock()
        make_worker(directory, "w0", clock, max_points=2).run()
        with pytest.raises(SchedulerError, match="not yet evaluated"):
            merge_job(directory)
        status = job_status(directory, clock=clock)
        assert not status["mergeable"]
        assert status["done"] == 2 and status["pending"] == 4
        assert not (directory / "merged.csv").exists()

    def test_retry_numbers_each_attempt_and_keeps_every_record(
        self, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points(num_trajectories=0)[:2]
        directory = tmp_path / "job"
        make_job(directory, points)
        real_evaluate = sweep_mod.evaluate_point

        def failing_evaluate(point):
            if point_key(point) == point_key(points[1]):
                raise CompilationError("injected failure", gate="CCX", pass_name="emit")
            return real_evaluate(point)

        monkeypatch.setattr(sweep_mod, "evaluate_point", failing_evaluate)
        clock = FakeClock()
        for attempt in (1, 2):
            assert make_worker(directory, "w0", clock).run().num_failed == 1
            assert retry_failed(directory) == [1]
            record = json.loads((directory / "retried" / f"00001.{attempt}.json").read_text())
            assert record["point_key"] == point_key(points[1])

        monkeypatch.setattr(sweep_mod, "evaluate_point", real_evaluate)
        assert make_worker(directory, "w0", clock).run().num_completed == 1
        retried = sorted(path.name for path in (directory / "retried").iterdir())
        assert retried == ["00001.1.json", "00001.2.json"]
        assert job_status(directory, clock=clock)["mergeable"]

    def test_retry_never_replaces_an_existing_record(self, tmp_path):
        directory = tmp_path / "job"
        make_job(directory, mini_points(num_trajectories=0)[:2])
        (directory / "failed").mkdir()
        (directory / "failed" / "00001.json").write_text('{"record": "new"}\n')
        # Two records exist, so the count picks attempt 3 -- the number a
        # racing retrier already published.  Neither may be replaced.
        retried_dir = directory / "retried"
        retried_dir.mkdir()
        (retried_dir / "00001.1.json").write_text('{"record": "first"}\n')
        (retried_dir / "00001.3.json").write_text('{"record": "racer"}\n')
        assert retry_failed(directory) == [1]
        assert (retried_dir / "00001.1.json").read_text() == '{"record": "first"}\n'
        assert (retried_dir / "00001.3.json").read_text() == '{"record": "racer"}\n'
        assert (retried_dir / "00001.4.json").read_text() == '{"record": "new"}\n'
        assert sorted(path.name for path in retried_dir.iterdir()) == [
            "00001.1.json",
            "00001.3.json",
            "00001.4.json",
        ]
        assert not (directory / "failed" / "00001.json").exists()

    def test_heartbeat_keeps_slow_worker_alive_under_a_real_clock(
        self, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points(num_trajectories=0)[:1]  # compile-only: fast
        directory = tmp_path / "job"
        make_job(directory, points)
        count_evaluations(monkeypatch, delay=0.8)  # several TTLs long
        worker = LeasedWorker(directory, worker_id="slow", ttl=0.3, heartbeat=True)
        thread = threading.Thread(target=worker.run)
        thread.start()
        wait_for_lease_held_by(directory, "slow")
        rival = LeaseCoordinator(directory, worker_id="rival", ttl=0.3)
        stolen = 0
        while thread.is_alive():
            if rival.acquire() is not None:
                stolen += 1
            time.sleep(0.02)
        thread.join()
        assert stolen == 0, "heartbeat renewal failed to keep the slow worker's lease alive"
        assert job_status(directory)["done"] == 1

    def test_without_heartbeat_the_same_slow_worker_is_reclaimed(
        self, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points(num_trajectories=0)[:1]
        directory = tmp_path / "job"
        make_job(directory, points)
        real_evaluate = sweep_mod.evaluate_point
        count_evaluations(monkeypatch, delay=0.8)
        worker = LeasedWorker(directory, worker_id="slow", ttl=0.15, heartbeat=False)
        thread = threading.Thread(target=worker.run)
        thread.start()
        wait_for_lease_held_by(directory, "slow")
        rival = LeaseCoordinator(directory, worker_id="rival", ttl=0.15)
        stolen = None
        deadline = time.monotonic() + 5.0
        while stolen is None and time.monotonic() < deadline:
            stolen = rival.acquire()
            time.sleep(0.02)
        thread.join()
        assert stolen is not None, "an unrenewed lease should expire and be reclaimed"
        # Both executions finish; their done markers are byte-identical, so
        # the double execution is benign and the job still merges.
        marker = (directory / "done" / "00000.json").read_bytes()
        rival.complete(stolen, sweep_mod.sweep_rows(points, [real_evaluate(points[0])])[0])
        assert (directory / "done" / "00000.json").read_bytes() == marker
        assert job_status(directory)["done"] == 1
        assert merge_job(directory).num_rows == 1

    def test_sigkilled_worker_subprocess_points_are_reclaimed(self, tmp_path, shared_cache):
        """A worker killed with SIGKILL strands its lease; expiry frees it.

        The worker runs in its own process group and the whole group is
        killed, as when its host dies.
        """
        points = mini_points()
        directory = tmp_path / "job"
        make_job(directory, points)
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.experiments.scheduler",
                "work",
                "--dir",
                str(directory),
                "--worker-id",
                "victim",
                "--ttl",
                "600",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            leases = directory / "leases"
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if leases.is_dir() and any(leases.glob("*.lease")):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("subprocess worker never claimed a lease")
        finally:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()

        # The victim's lease has a 600 s deadline in real wall-clock time; a
        # clock injected 601 s ahead sees it expired, reclaims and drains.
        clock = FakeClock(start=time.time() + 601.0)
        drainer = make_worker(directory, "drainer", clock, ttl=600)
        drainer.run()
        status = job_status(directory, clock=clock)
        assert status["mergeable"] and status["reclaimed"] >= 1
        merge_job(directory)


# ---------------------------------------------------------------------------
# the compilation cache shared by workers
# ---------------------------------------------------------------------------


class TestSharedCacheAcrossWorkers:
    def test_two_workers_compile_each_unique_key_at_most_once(self, tmp_path, shared_cache):
        points = seed_grid()
        directory = tmp_path / "job"
        make_job(directory, points)
        clock = FakeClock()
        make_worker(directory, "w0", clock, max_points=2).run()
        keys_after_first = compile_log_keys(shared_cache)
        assert keys_after_first, "the cold worker must have compiled something"

        # w1 starts as a separate process on the same host would: no shared
        # memory front, only the disk layer under REPRO_CACHE_DIR.
        reset_cache()
        assert make_worker(directory, "w1", clock).run().num_completed == 2
        keys = compile_log_keys(shared_cache)
        assert keys == keys_after_first, "the warm worker must not recompile anything"
        assert get_cache().stats.disk_hits >= 1

        merged = merge_job(directory)
        unsharded_csv, _ = run_unsharded(points, tmp_path)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()

    def test_corrupted_cache_entry_falls_back_to_clean_recompile(self, tmp_path, shared_cache):
        points = seed_grid()
        clock = FakeClock()
        first = tmp_path / "first"
        make_job(first, points)
        make_worker(first, "w0", clock).run()
        clean_csv = merge_job(first).csv_path.read_bytes()
        keys_before = compile_log_keys(shared_cache)

        # Corrupt every published artifact, then drain the same grid as a
        # fresh job with a cold memory front: the cache must treat the torn
        # entries as misses and recompile to identical results.
        corrupted = 0
        for artifact in shared_cache.rglob("*.pkl"):
            artifact.write_bytes(b"not a pickle")
            corrupted += 1
        assert corrupted >= 1
        reset_cache()
        second = tmp_path / "second"
        make_job(second, points)
        assert make_worker(second, "w0", clock).run().num_failed == 0
        assert merge_job(second).csv_path.read_bytes() == clean_csv
        assert len(compile_log_keys(shared_cache)) > len(keys_before)
        assert get_cache().stats.disk_errors >= 1


# ---------------------------------------------------------------------------
# command-line interfaces
# ---------------------------------------------------------------------------


class TestCommandLine:
    def test_plan_work_status_merge_cycle(self, tmp_path, shared_cache, capsys):
        directory = str(tmp_path / "cli")
        grid = ["plan", "--grid", "fig7-mini", "--policy", "cost-weighted", "--dir", directory]
        assert scheduler.main(grid) == 0
        assert scheduler.main(["merge", "--dir", directory]) == 2  # nothing landed yet
        work = ["work", "--dir", directory, "--max-points", "3"]
        assert scheduler.main(work + ["--worker-id", "w0"]) == 0
        assert scheduler.main(["merge", "--dir", directory]) == 2  # half the grid is missing
        assert "not yet evaluated" in capsys.readouterr().out
        assert scheduler.main(work + ["--worker-id", "w1"]) == 0
        assert scheduler.main(["status", "--dir", directory]) == 0
        out = capsys.readouterr().out
        status = json.loads(out[out.index("{"):])
        assert status["mergeable"] and status["done"] == 6
        assert scheduler.main(["merge", "--dir", directory]) == 0

        points = scheduler.named_grid_points("fig7-mini")
        local_csv = tmp_path / "local.csv"
        local_json = tmp_path / "local.json"
        SweepRunner(max_workers=1, csv_path=local_csv, json_path=local_json).run(points)
        assert (tmp_path / "cli" / "merged.csv").read_bytes() == local_csv.read_bytes()
        assert (tmp_path / "cli" / "merged.json").read_bytes() == local_json.read_bytes()

    def test_unknown_grid_is_a_clean_error(self, tmp_path, capsys):
        assert scheduler.main(["plan", "--grid", "nope", "--dir", str(tmp_path / "x")]) == 2
        assert "error: unknown grid 'nope'" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["merge", "status", "retry"])
    def test_command_without_a_job_is_a_clean_error(self, command, tmp_path, capsys):
        empty = tmp_path / "empty"
        assert scheduler.main([command, "--dir", str(empty)]) == 2
        assert "error: no job" in capsys.readouterr().out
        assert not empty.exists()

    def test_retry_re_leases_a_failed_point_and_keeps_its_record(
        self, tmp_path, shared_cache, monkeypatch, capsys
    ):
        points = mini_points()
        directory = tmp_path / "job"
        make_job(directory, points)
        real_evaluate = sweep_mod.evaluate_point

        def failing_evaluate(point):
            if point_key(point) == point_key(points[2]):
                raise CompilationError("injected failure", gate="CCX", pass_name="emit")
            return real_evaluate(point)

        monkeypatch.setattr(sweep_mod, "evaluate_point", failing_evaluate)
        clock = FakeClock()
        assert make_worker(directory, "w0", clock).run().num_failed == 1
        failed_record = (directory / "failed" / "00002.json").read_bytes()
        assert scheduler.main(["merge", "--dir", str(directory)]) == 2
        assert "failed" in capsys.readouterr().out

        # The fault is fixed; retry makes exactly the failed point leasable
        # again and moves (never deletes) its record.
        monkeypatch.setattr(sweep_mod, "evaluate_point", real_evaluate)
        assert scheduler.main(["retry", "--dir", str(directory)]) == 0
        assert "retried 1 failed point(s): [2]" in capsys.readouterr().out
        assert not any((directory / "failed").iterdir())
        assert (directory / "retried" / "00002.1.json").read_bytes() == failed_record
        assert job_status(directory, clock=clock)["pending"] == 1

        report = make_worker(directory, "w1", clock).run()
        assert report.num_acquired == 1 and report.num_completed == 1
        assert scheduler.main(["retry", "--dir", str(directory)]) == 0  # nothing left to retry
        assert "retried 0" in capsys.readouterr().out
        merged = merge_job(directory)
        local_csv = tmp_path / "local.csv"
        SweepRunner(max_workers=1, csv_path=local_csv).run(points)
        assert merged.csv_path.read_bytes() == local_csv.read_bytes()

    def test_fidelity_sweep_driver_saves_a_job_that_merges_like_a_local_run(self, tmp_path, shared_cache):
        from repro.experiments import fidelity_sweep

        directory = str(tmp_path / "driver")
        base = ["--workloads", "cnu", "--sizes", "5", "--trajectories", "2"]
        assert fidelity_sweep.main(base + ["--dir", directory]) == 0
        assert fidelity_sweep.main(base + ["--dir", directory]) == 0  # same grid: no-op
        # A different grid must not land in the same job directory, and the
        # local-run flags do not apply to a saved job.
        assert fidelity_sweep.main(base[:-1] + ["3", "--dir", directory]) == 2
        assert fidelity_sweep.main(base + ["--dir", directory, "--csv", "x.csv"]) == 2
        assert len(load_job(directory).points) == 6
        assert not (tmp_path / "driver" / "leases").exists()  # saved, not run

        assert scheduler.main(["work", "--dir", directory]) == 0
        merged_csv = tmp_path / "driver-merged.csv"
        assert scheduler.main(["merge", "--dir", directory, "--csv", str(merged_csv)]) == 0
        local_csv = tmp_path / "driver-local.csv"
        assert fidelity_sweep.main(base + ["--csv", str(local_csv), "--max-workers", "1"]) == 0
        assert merged_csv.read_bytes() == local_csv.read_bytes()

    def test_cswap_driver_job_merges_like_a_local_run(self, tmp_path, shared_cache):
        from repro.experiments import cswap_study

        directory = str(tmp_path / "cswap")
        base = ["--sizes", "5", "--trajectories", "0"]
        assert cswap_study.main(base + ["--dir", directory]) == 0
        spec = load_job(directory)
        assert spec.policy == "fifo"
        assert len(spec.points) == 7  # seven Figure 9a strategies
        assert job_status(directory)["pending"] == 7  # saved, not run

        assert scheduler.main(["work", "--dir", directory]) == 0
        merged_csv = tmp_path / "cswap-merged.csv"
        assert scheduler.main(["merge", "--dir", directory, "--csv", str(merged_csv)]) == 0
        local_csv = tmp_path / "cswap-local.csv"
        assert cswap_study.main(base + ["--csv", str(local_csv), "--max-workers", "1"]) == 0
        assert merged_csv.read_bytes() == local_csv.read_bytes()

    def test_work_has_no_max_workers_flag(self, tmp_path, capsys):
        # A leased worker evaluates one point per lease; more cores mean
        # more `work` processes, not a per-worker process count.
        with pytest.raises(SystemExit) as exited:
            scheduler.main(["work", "--dir", str(tmp_path), "--max-workers", "2"])
        assert exited.value.code == 2
        assert "--max-workers" in capsys.readouterr().err

    def test_concurrent_work_processes_merge_like_a_serial_run(self, tmp_path, shared_cache):
        # Several `scheduler work` processes on one host are the multi-core
        # path for a job: they race for leases and still merge to the bytes
        # of one in-process run.
        points = mini_points()
        unsharded_csv, unsharded_json = run_unsharded(points, tmp_path)
        directory = tmp_path / "job"
        make_job(directory, points)
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        command = [sys.executable, "-m", "repro.experiments.scheduler", "work", "--dir", str(directory)]
        processes = [
            subprocess.Popen(
                command + ["--worker-id", f"p{k}", "--poll", "0.05"],
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
            )
            for k in range(2)
        ]
        try:
            for process in processes:
                _, stderr = process.communicate(timeout=120)
                assert process.returncode == 0, stderr
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        assert job_status(directory)["mergeable"]
        merged = merge_job(directory)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        assert merged.json_path.read_bytes() == unsharded_json.read_bytes()

    def test_plan_refuses_a_different_grid_in_the_same_directory(self, tmp_path, capsys):
        directory = str(tmp_path / "job")
        assert scheduler.main(["plan", "--grid", "fig7-mini", "--dir", directory]) == 0
        assert scheduler.main(["plan", "--grid", "fig7-mini", "--dir", directory]) == 0  # no-op
        capsys.readouterr()
        assert scheduler.main(["plan", "--grid", "fig9a-mini", "--dir", directory]) == 2
        assert "different grid" in capsys.readouterr().out
        assert load_job(directory).points == tuple(scheduler.named_grid_points("fig7-mini"))

    def test_work_exits_one_when_a_point_fails(self, tmp_path, shared_cache, monkeypatch):
        points = mini_points(num_trajectories=0)
        directory = tmp_path / "job"
        make_job(directory, points)
        real_evaluate = sweep_mod.evaluate_point

        def failing_evaluate(point):
            if point_key(point) == point_key(points[0]):
                raise CompilationError("injected failure", gate="CCX", pass_name="emit")
            return real_evaluate(point)

        monkeypatch.setattr(sweep_mod, "evaluate_point", failing_evaluate)
        work = ["work", "--dir", str(directory), "--no-heartbeat"]
        assert scheduler.main(work) == 1
        status = job_status(directory)
        assert status["failed"] == 1 and status["done"] == len(points) - 1

    @pytest.mark.parametrize("flag", [["--ttl", "nan"], ["--poll", "-1"]])
    def test_work_rejects_bad_timing_flags(self, flag, tmp_path, capsys):
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        assert scheduler.main(["work", "--dir", str(directory), *flag]) == 2
        assert "error:" in capsys.readouterr().out
        assert job_status(directory)["pending"] == 1

    def test_work_rejects_a_malformed_ttl_knob(self, tmp_path, capsys, monkeypatch):
        """A TTL knob that is not a number exits 2 with ``error:``, no traceback."""
        directory = tmp_path / "job"
        make_job(directory, mini_points()[:1])
        monkeypatch.setenv("REPRO_LEASE_TTL", "abc")
        assert scheduler.main(["work", "--dir", str(directory), "--no-heartbeat"]) == 2
        assert "error: lease ttl from REPRO_LEASE_TTL" in capsys.readouterr().out
        assert job_status(directory)["pending"] == 1

    def test_help_runs_clean_in_a_subprocess(self):
        result = run_fresh_python("-m", "repro.experiments.scheduler", "--help")
        assert result.returncode == 0, result.stderr
        for command in ("plan", "work", "status", "retry", "merge"):
            assert command in result.stdout


class TestLazyImports:
    def test_scheduler_import_does_not_pull_figure_drivers(self):
        """The figure drivers import the scheduler, never the reverse at import time."""
        script = (
            "import sys; import repro.experiments.scheduler; "
            "heavy = [name for name in sys.modules "
            "if 'fidelity_sweep' in name or 'cswap_study' in name]; "
            "print('clean' if not heavy else 'leaked: ' + ', '.join(heavy))"
        )
        result = run_fresh_python("-c", script)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "clean", result.stdout

    def test_package_lazily_re_exports_scheduler_names(self):
        import repro.experiments as experiments

        assert experiments.LeaseCoordinator is LeaseCoordinator
        assert experiments.plan_job is plan_job
        for name in ("no_such_name", "submit_job", "watch_job", "queue_status"):
            with pytest.raises(AttributeError):
                getattr(experiments, name)
