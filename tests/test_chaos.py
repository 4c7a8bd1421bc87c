"""Crash-consistency property harness over the durable-storage layer.

The property: for every injected crash/fault point during a durable
operation (cache put, record-bundle publish, manifest write, lease
claim/reclaim, point-result publish and read), a rerun after the crash
converges to output **byte identical** to a fault-free run — with corrupt artifacts quarantined
(reason-recorded), never honoured and never silently deleted.

The harness enumerates crash points mechanically: a plan with one
``crash``-at-the-*i*-th-operation rule is installed, the operation runs
until it dies (or survives, which ends the enumeration because every
point has been visited), the plan is cleared, and the operation reruns to
completion.  Every scenario asserts at least two crash points actually
fired, so a silent change to the storage layer's operation count cannot
hollow the property out.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro import faults
from repro.artifacts.figures import compute_table
from repro.core import storage
from repro.core.compile_cache import CompileCache, get_cache
from repro.experiments.scheduler import LeaseCoordinator, WorkerManifest, plan_job, save_job
from repro.experiments.sweep import SweepRunner
from repro.noise.fastpath import get_record_store, reset_fastpath
from helpers import mini_points, result_key


def crash_rule_at(index: int) -> faults.FaultPlan:
    """A plan that kills the process at the ``index``-th durable operation."""
    return faults.FaultPlan([faults.FaultRule(op="*", path="*", kind="crash", at=index)])


def enumerate_crashes(operation, recover, max_points: int = 32) -> int:
    """Crash ``operation`` at every durable-op index; ``recover`` after each.

    Returns how many crash points actually fired.  The enumeration stops at
    the first index the operation survives (all points visited); hitting
    ``max_points`` instead means the operation's durable-op count exploded,
    which is itself a failure.
    """
    fired = 0
    for index in range(max_points):
        plan = crash_rule_at(index)
        crashed = False
        with faults.fault_plan(plan):
            try:
                operation()
            except faults.SimulatedCrash:
                crashed = True
        if not crashed:
            return fired
        fired += 1
        recover()
    pytest.fail(f"operation still crashing after {max_points} injected points")


class TestCachePutCrashConsistency:
    def test_every_crash_point_converges_to_fault_free_bytes(self, tmp_path):
        reference_cache = CompileCache(directory=tmp_path / "ref")
        reference_cache.put("feed" * 16, {"artifact": list(range(8))})
        reference = reference_cache.path_for("feed" * 16).read_bytes()

        cache = CompileCache(directory=tmp_path / "chaos")
        path = cache.path_for("feed" * 16)

        def operation():
            cache.put("feed" * 16, {"artifact": list(range(8))})

        def recover():
            # A crash mid-put must leave the destination either absent or
            # fully published — never torn, never a stray temp honoured.
            if path.exists():
                assert path.read_bytes() == reference
            operation()
            assert path.read_bytes() == reference
            cache.clear_memory()
            assert cache.get("feed" * 16) == {"artifact": list(range(8))}

        fired = enumerate_crashes(operation, recover)
        assert fired >= 2  # tmp-write and publish-rename at minimum

    def test_torn_cache_entry_is_quarantined_then_recomputed(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        key = "feed" * 16
        plan = faults.FaultPlan(
            [faults.FaultRule(op="write", path="*.pkl", kind="torn", at=0, arg=7)]
        )
        with faults.fault_plan(plan):
            cache.put(key, {"artifact": 1})
        cache.clear_memory()

        computed = []
        value = cache.get_or_create(key, lambda: computed.append(1) or {"artifact": 1})
        assert value == {"artifact": 1}
        assert computed == [1]  # the torn entry triggered a clean recompute
        quarantined = tmp_path / "quarantine" / f"{key}.pkl"
        assert len(quarantined.read_bytes()) == 7
        assert quarantined.with_name(f"{key}.pkl.reason.json").exists()
        # The recompute republished a healthy artifact.
        assert pickle.loads(cache.path_for(key).read_bytes()) == {"artifact": 1}
        # And the compile log stays a compilation-only audit: "pid key" lines.
        log_lines = (tmp_path / "compile-log.txt").read_text().splitlines()
        assert [line.split()[1] for line in log_lines] == [key]


class TestRecordBundleCrashConsistency:
    def test_bundle_publish_crash_points_converge(self, tmp_path, monkeypatch):
        bundle = {"k1": [1.0, 2.0], "k2": [3.0]}
        reference_cache = CompileCache(directory=tmp_path / "ref")
        reference_cache.disk_put("bundle" * 10 + "abcd", bundle)
        reference = reference_cache.path_for("bundle" * 10 + "abcd").read_bytes()

        cache = CompileCache(directory=tmp_path / "chaos")
        path = cache.path_for("bundle" * 10 + "abcd")

        def operation():
            cache.disk_put("bundle" * 10 + "abcd", bundle)

        def recover():
            if path.exists():
                assert path.read_bytes() == reference
            operation()
            assert path.read_bytes() == reference

        assert enumerate_crashes(operation, recover) >= 2

    def test_non_dict_bundle_is_quarantined_on_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.core.compile_cache import get_cache, reset_cache

        reset_cache()
        bundle_key = "feed" * 16
        get_cache().disk_put(bundle_key, ["not", "a", "record", "dict"])
        found = get_record_store().get_many(["k1"], bundle_key, None, 0)
        assert found == {}
        quarantined = tmp_path / "quarantine" / f"{bundle_key}.pkl"
        assert quarantined.exists()
        reason = json.loads(quarantined.with_name(f"{bundle_key}.pkl.reason.json").read_text())
        assert "record dict" in reason["reason"]
        reset_cache()


def table_bytes(points, out_dir, tag):
    """Compute ``points`` as a graph table from a fresh-process state; CSV+JSON bytes."""
    reset_fastpath()
    get_cache().clear_memory()
    runner = SweepRunner(
        max_workers=1, csv_path=out_dir / f"{tag}.csv", json_path=out_dir / f"{tag}.json"
    )
    compute_table(points, runner, name="chaos")
    return runner.csv_path.read_bytes(), runner.json_path.read_bytes()


class TestPointResultFaults:
    """The table provider's per-point result layer under injected faults."""

    @pytest.mark.filterwarnings("ignore:compile cache disk layer:RuntimeWarning")
    @pytest.mark.parametrize(
        "seed, minimum",
        [(7, {"torn": 1, "crash": 2}), (9, {"enospc": 1, "crash": 2})],
        ids=["torn", "enospc"],
    )
    def test_seeded_result_faults_reconverge_byte_identical(
        self, seed, minimum, tmp_path, shared_cache, monkeypatch
    ):
        points = mini_points()
        reference = table_bytes(points, tmp_path, "reference")  # cold, fault-free
        keys = [result_key(point) for point in points]
        for key in keys:
            get_cache().path_for(key).unlink()  # the chaos passes start cold
        targets = [(op, f"*{key}.pkl") for key in keys for op in ("write", "read")]
        plan = faults.seeded_plan(seed, targets, num_faults=8, max_at=3)
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(plan.to_json()))

        crashes = 0
        for attempt in range(6):
            try:
                assert table_bytes(points, tmp_path, f"chaos{attempt}") == reference
            except faults.SimulatedCrash:
                crashes += 1
        injected = faults.active_plan().stats.as_dict()
        assert injected["crash"] == crashes
        assert all(injected[kind] >= count for kind, count in minimum.items()), injected

        # A torn result read back is quarantined with its reason record.
        quarantined = sorted(shared_cache.glob("quarantine/*.pkl"))
        assert len(quarantined) == injected["torn"]
        for path in quarantined:
            assert path.stem in keys
            assert path.with_name(f"{path.name}.reason.json").exists()

        # Fault-free, the layer heals: one pass repairs whatever the last
        # faulty pass left torn, the next is served from healthy entries.
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        assert table_bytes(points, tmp_path, "healed") == reference
        healthy = [
            pickle.loads(get_cache().path_for(key).read_bytes()).fidelities for key in keys
        ]
        assert all(healthy)
        assert table_bytes(points, tmp_path, "replayed") == reference

    def test_foreign_result_entry_is_quarantined_then_recomputed(self, tmp_path, shared_cache):
        points = mini_points()[:2]
        reference = table_bytes(points, tmp_path, "reference")
        key = result_key(points[0])
        get_cache().disk_put(key, ["not", "a", "trajectory", "result"])
        assert table_bytes(points, tmp_path, "recomputed") == reference
        quarantined = shared_cache / "quarantine" / f"{key}.pkl"
        assert quarantined.exists()
        reason = json.loads(quarantined.with_name(f"{key}.pkl.reason.json").read_text())
        assert "TrajectoryResult" in reason["reason"]
        # The recompute republished a healthy entry.
        assert pickle.loads(get_cache().path_for(key).read_bytes()).fidelities


class TestManifestWriteCrashConsistency:
    def test_worker_manifest_crash_points_converge(self, tmp_path):
        manifest = WorkerManifest(
            worker_id="w0",
            job_fingerprint="f" * 64,
            completed={"0": "k" * 64},
        )
        reference_dir = tmp_path / "ref"
        manifest.save(reference_dir)
        reference = (reference_dir / "manifest.json").read_bytes()

        chaos_dir = tmp_path / "chaos"
        path = chaos_dir / "manifest.json"

        def operation():
            manifest.save(chaos_dir)

        def recover():
            if path.exists():
                assert path.read_bytes() == reference
            operation()
            assert path.read_bytes() == reference
            assert WorkerManifest.load(chaos_dir).completed == {"0": "k" * 64}

        assert enumerate_crashes(operation, recover) >= 2


class FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestLeaseCrashConsistency:
    @pytest.fixture()
    def job_dir(self, tmp_path):
        directory = tmp_path / "job"
        save_job(plan_job(mini_points(num_trajectories=2)), directory)
        return directory

    def test_claim_crash_points_always_leave_point_claimable(self, job_dir):
        clock = FakeClock()
        lease_path = job_dir / "leases" / "00000.lease"

        def operation():
            coordinator = LeaseCoordinator(job_dir, worker_id="crashy", ttl=10.0, clock=clock)
            assert coordinator.acquire() is not None

        def recover():
            # The canonical lease name is either absent or a fully valid
            # claim — a crash mid-claim never publishes partial bytes.
            assert not lease_path.exists()
            operation()
            lease = json.loads(lease_path.read_text())
            assert lease["index"] == 0
            lease_path.unlink()  # release for the next enumeration round

        fired = enumerate_crashes(operation, recover)
        assert fired >= 2  # private write and exclusive link at minimum
        lease_path.unlink(missing_ok=True)

    def test_reclaim_crash_points_always_reconverge(self, job_dir):
        clock = FakeClock()
        lease_path = job_dir / "leases" / "00000.lease"

        def claim():
            coordinator = LeaseCoordinator(job_dir, worker_id="dying", ttl=1.0, clock=clock)
            assert coordinator.acquire() is not None
            clock.advance(5.0)  # the claim expires immediately

        claim()

        def operation():
            reclaimer = LeaseCoordinator(job_dir, worker_id="reclaimer", ttl=10.0, clock=clock)
            assert reclaimer.acquire() is not None

        def recover():
            # Whatever point the crash hit, a fresh worker converges: the
            # stale or half-reclaimed lease is reclaimed/requarantined and
            # the point ends claimed by the recovering worker.
            operation()
            lease = json.loads(lease_path.read_text())
            assert lease["index"] == 0 and lease["worker_id"] == "reclaimer"
            lease_path.unlink()
            claim()

        fired = enumerate_crashes(operation, recover, max_points=48)
        assert fired >= 3  # graveyard rename + record write + re-claim points

    def test_torn_lease_is_quarantined_and_point_reclaimed(self, job_dir):
        clock = FakeClock()
        coordinator = LeaseCoordinator(job_dir, worker_id="w0", ttl=10.0, clock=clock)
        assert coordinator.acquire() is not None
        lease_path = job_dir / "leases" / "00000.lease"
        lease_path.write_text("{")  # torn lease: invalid JSON

        rival = LeaseCoordinator(job_dir, worker_id="w1", ttl=10.0, clock=clock)
        lease = rival.acquire()
        assert lease is not None and lease.index == 0 and lease.worker_id == "w1"
        quarantined = job_dir / "quarantine" / "00000.lease"
        assert quarantined.read_text() == "{"
        reason = json.loads(quarantined.with_name("00000.lease.reason.json").read_text())
        assert "unreadable lease" in reason["reason"]
        assert storage.STATS.quarantined == 1
