"""Throughput of the lease-based scheduler versus an unsharded run.

Evaluates the same Figure 7 mini-grid twice on one machine — once as a
plain ``SweepRunner(max_workers=1)`` run, once as two sequential
``LeasedWorker`` passes pulling from one job — checks that the merge is
byte-identical to the plain run, and reports points/second for each, plus
their ratio.  The scheduler's overhead budget is lease churn (claim, renew
bookkeeping, one done marker per point carrying its row), so the ratio
should stay near 1.0 on a quiet machine; the benchmark is report-only
because both numbers are dominated by the evaluation itself.

A second, fake-clock pass measures **reclaim latency** — the time between
a lease's deadline passing and another worker moving it to the graveyard —
across a staggered kill schedule, and ships the histogram alongside the
throughput numbers in ``BENCH_scheduler.json``.

A third, fault-injected pass claims and reclaims under a seeded
:class:`repro.faults.FaultPlan` and ships the injected/retried/quarantined
counters, so the benchmark artifact records how the lease protocol behaves
under storage-layer faults, not just on a healthy disk.
"""

from __future__ import annotations

import json
import time

from repro import faults
from repro.core import storage
from repro.core.compile_cache import get_cache
from repro.experiments.fidelity_sweep import fidelity_sweep_points
from repro.experiments.scheduler import (
    LeaseCoordinator,
    LeasedWorker,
    job_status,
    merge_job,
    plan_job,
    save_job,
)
from repro.experiments.sweep import SweepRunner

WORKLOADS = ("cnu",)
SIZES = (5,)
NUM_TRAJECTORIES = 2
NUM_WORKERS = 2

#: The row the lease-protocol passes (which evaluate nothing) publish.
_LEASE_ONLY_ROW = {"workload": "lease-only"}


def _grid():
    return fidelity_sweep_points(
        workloads=WORKLOADS, sizes=SIZES, num_trajectories=NUM_TRAJECTORIES, rng=0
    )


class _FakeClock:
    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now


def _reclaim_latencies(tmp_path, points):
    """Deterministic reclaim-latency samples from a staggered kill schedule.

    Each round, a doomed worker claims a point and dies (abandons the
    lease); the clock jumps past the deadline by a different margin each
    time and a live worker reclaims.  The graveyard records' ``reclaimed_at
    - expires_at`` gaps are exactly those margins.
    """
    directory = tmp_path / "reclaim-job"
    save_job(plan_job(points), directory)
    clock = _FakeClock()
    ttl = 30.0
    margins = [0.5 * (round + 1) for round in range(min(4, len(points)))]
    for round, margin in enumerate(margins):
        doomed = LeaseCoordinator(directory, worker_id=f"doomed-{round}", ttl=ttl, clock=clock)
        lease = doomed.acquire()
        assert lease is not None
        clock.now = lease.expires_at + margin
        reaper = LeaseCoordinator(directory, worker_id="reaper", ttl=ttl, clock=clock)
        reclaimed = reaper.acquire()
        assert reclaimed is not None and reclaimed.index == lease.index
        reaper.complete(reclaimed, _LEASE_ONLY_ROW)
    samples = []
    for path in sorted((directory / "reclaimed").glob("*.json")):
        record = json.loads(path.read_text())
        samples.append(record["reclaimed_at"] - record["expires_at"])
    return samples


def _fault_injection_counters(tmp_path, points):
    """Claim/reclaim cycles under a seeded fault plan: injected/retried/quarantined.

    Runs the lease protocol (no point evaluation) against a plan injecting
    torn lease writes, failed links and EIO-on-read, and reports what the
    storage layer absorbed.  The cycle count is fixed and the plan seeded,
    so the counters are deterministic run to run.
    """
    directory = tmp_path / "fault-job"
    save_job(plan_job(points), directory)
    clock = _FakeClock()
    ttl = 30.0
    plan = faults.seeded_plan(
        2024,
        targets=(("write", "*.lease*"), ("read", "*.lease"), ("link", "*.lease")),
        num_faults=6,
        max_at=4,
        max_arg=16,
    )
    storage.reset_storage_stats()
    crashes = 0
    with faults.fault_plan(plan):
        for cycle in range(min(4, len(points))):
            doomed = LeaseCoordinator(directory, worker_id=f"doomed-{cycle}", ttl=ttl, clock=clock)
            try:
                lease = doomed.acquire()
            except faults.SimulatedCrash:
                crashes += 1
                continue
            if lease is None:
                continue
            clock.now = lease.expires_at + 1.0
            reaper = LeaseCoordinator(directory, worker_id=f"reaper-{cycle}", ttl=ttl, clock=clock)
            try:
                reclaimed = reaper.acquire()
            except faults.SimulatedCrash:
                crashes += 1
                continue
            if reclaimed is not None:
                reaper.complete(reclaimed, _LEASE_ONLY_ROW)
    return {
        "plan_seed": 2024,
        "injected": plan.stats.as_dict(),
        "injected_total": plan.stats.total,
        "worker_crashes": crashes,
        "retried": storage.STATS.retries,
        "quarantined": storage.STATS.quarantined,
    }


def _histogram(samples, bucket_width=0.5):
    buckets = {}
    for sample in samples:
        floor = int(sample / bucket_width) * bucket_width
        label = f"[{floor:.1f}, {floor + bucket_width:.1f})"
        buckets[label] = buckets.get(label, 0) + 1
    return dict(sorted(buckets.items()))


def test_scheduler_throughput_vs_unsharded(once, benchmark, tmp_path, bench_artifact_dir):
    points = _grid()

    # Baseline: the same grid in one plain in-process run.
    unsharded = SweepRunner(
        max_workers=1,
        csv_path=tmp_path / "unsharded.csv",
        json_path=tmp_path / "unsharded.json",
    )
    get_cache().clear_memory()
    start = time.perf_counter()
    unsharded.run(points)
    unsharded_seconds = time.perf_counter() - start

    # Contender: one lease-coordinated job, drained by the same worker count.
    job_dir = tmp_path / "job"
    save_job(plan_job(points, policy="cost-weighted"), job_dir)

    def drain_leased():
        for worker in range(NUM_WORKERS):
            get_cache().clear_memory()
            LeasedWorker(
                job_dir,
                worker_id=f"w{worker}",
                ttl=600,
                heartbeat=False,
                sleep=lambda seconds: None,
            ).run()

    start = time.perf_counter()
    once(benchmark, drain_leased)
    leased_seconds = time.perf_counter() - start
    assert job_status(job_dir)["mergeable"]
    leased_merged = merge_job(job_dir)

    # Same points, same bytes — the scheduler only changes who ran what.
    assert leased_merged.csv_path.read_bytes() == unsharded.csv_path.read_bytes()
    assert leased_merged.json_path.read_bytes() == unsharded.json_path.read_bytes()

    unsharded_pps = len(points) / max(unsharded_seconds, 1e-9)
    leased_pps = len(points) / max(leased_seconds, 1e-9)
    latencies = _reclaim_latencies(tmp_path, points)
    fault_counters = _fault_injection_counters(tmp_path, points)
    print(f"\nscheduler throughput ({len(points)} points, {NUM_WORKERS} sequential workers):")
    print(f"  unsharded run:  {unsharded_seconds:6.2f} s  ({unsharded_pps:6.2f} points/s)")
    print(f"  leased workers: {leased_seconds:6.2f} s  ({leased_pps:6.2f} points/s)")
    print(f"  relative throughput: {leased_pps / unsharded_pps:6.2f} x")
    print(f"  reclaim latency samples: {[f'{sample:.2f}' for sample in latencies]}")
    print(f"  fault injection: {fault_counters}")

    if bench_artifact_dir is not None:
        artifact = {
            "num_points": len(points),
            "num_workers": NUM_WORKERS,
            "unsharded": {"seconds": unsharded_seconds, "points_per_sec": unsharded_pps},
            "leased_scheduler": {"seconds": leased_seconds, "points_per_sec": leased_pps},
            "relative_throughput": leased_pps / unsharded_pps,
            "reclaim_latency": {
                "num_samples": len(latencies),
                "min_s": min(latencies),
                "max_s": max(latencies),
                "mean_s": sum(latencies) / len(latencies),
                "histogram": _histogram(latencies),
            },
            "fault_injection": fault_counters,
        }
        path = bench_artifact_dir / "BENCH_scheduler.json"
        path.write_text(json.dumps(artifact, indent=2) + "\n", encoding="utf-8")
        print(f"  artifact: {path}")
