"""CI gate: lease-scheduled sweeps must merge byte-identically, kills included.

Runs the Figure 7 mini-grid twice against one ``$REPRO_CACHE_DIR``:

1. **unsharded** — a plain single-machine ``SweepRunner`` run, which also
   cold-compiles every artifact into the shared cache,
2. **lease-scheduled** — the same grid frozen into a job and drained by
   three ``LeasedWorker``\\ s in sequence (each with the in-process cache
   front dropped first, so they can only reuse work through the disk
   layer, the way separate machines on a common mount would):

   * worker ``w0`` completes one point, then **abandons its next lease
     without releasing it** — the fault-injection equivalent of a SIGKILL
     between acquire and complete,
   * worker ``w1`` drains a couple more points and stops,
   * after the abandoned lease's TTL passes, worker ``w2`` reclaims the
     stranded point and drains the rest of the job.

The check fails unless the job reports at least one reclaim, the merged
CSV **and** JSON artifacts are byte-identical to the unsharded ones, the
scheduler pass performed **zero** recompilations, and the cache's
``compile-log.txt`` holds no duplicate keys (each unique key compiled at
most once across both passes).

Usage::

    PYTHONPATH=src REPRO_CACHE_DIR=/tmp/repro-cache \
        python examples/scheduler_equivalence_check.py
"""

import os
import sys
import tempfile
import time
from pathlib import Path

LEASE_TTL_S = 2.0


def main() -> int:
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("error: REPRO_CACHE_DIR must be set for the scheduler-equivalence check")
        return 2

    from repro.core.compile_cache import get_cache
    from repro.experiments.fidelity_sweep import fidelity_sweep_points
    from repro.experiments.scheduler import (
        LeasedWorker,
        job_status,
        merge_job,
        plan_job,
        save_job,
    )
    from repro.experiments.sweep import SweepRunner

    out_dir = Path(tempfile.mkdtemp(prefix="scheduler-equivalence-"))
    points = fidelity_sweep_points(workloads=("cnu",), sizes=(5,), num_trajectories=4, rng=0)

    # Pass 1: unsharded reference run (cold-compiles into the shared cache).
    unsharded_csv = out_dir / "unsharded.csv"
    unsharded_json = out_dir / "unsharded.json"
    SweepRunner(max_workers=1, csv_path=unsharded_csv, json_path=unsharded_json).run(points)

    cache = get_cache()
    log_path = cache.directory / "compile-log.txt"
    compiles_after_unsharded = len(log_path.read_text().splitlines())

    # Pass 2: the same grid as one lease-coordinated job, drained by three
    # workers sharing only the disk cache — one of them killed mid-lease.
    job_dir = out_dir / "job"
    save_job(plan_job(points, policy="cost-weighted"), job_dir)

    def worker(worker_id, **kwargs):
        cache.clear_memory()  # each worker starts like a fresh host process
        return LeasedWorker(
            job_dir,
            worker_id=worker_id,
            ttl=LEASE_TTL_S,
            poll=0.2,
            **kwargs,
        )

    report = worker("w0", abandon_after=1).run()
    if not report.abandoned:
        print("FAIL: fault injection did not trip (w0 should abandon its second lease)")
        return 1
    print(report.describe())
    report = worker("w1", max_points=2).run()
    print(report.describe())

    # Let the abandoned lease expire for real before w2 sweeps up.
    time.sleep(LEASE_TTL_S + 0.5)
    report = worker("w2").run()
    print(report.describe())

    status = job_status(job_dir)
    merged = merge_job(job_dir)

    recompiles = len(log_path.read_text().splitlines()) - compiles_after_unsharded
    keys = [line.split()[1] for line in log_path.read_text().splitlines()]
    duplicates = len(keys) - len(set(keys))
    csv_identical = merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
    json_identical = merged.json_path.read_bytes() == unsharded_json.read_bytes()
    print(
        f"reclaims: {status['reclaimed']}, cold compilations: {compiles_after_unsharded}, "
        f"scheduler-pass recompilations: {recompiles}, duplicate compile-log keys: {duplicates}, "
        f"identical CSV: {csv_identical}, identical JSON: {json_identical}"
    )

    if status["reclaimed"] < 1:
        print("FAIL: the killed worker's lease was never reclaimed")
        return 1
    if recompiles > 0 or duplicates > 0:
        print("FAIL: the scheduler pass recompiled artifacts the unsharded run already cached")
        return 1
    if not csv_identical or not json_identical:
        print("FAIL: merged scheduler artifacts differ from the unsharded run")
        return 1
    print("OK: the lease-scheduled job merged byte-identical to the unsharded sweep")
    return 0


if __name__ == "__main__":
    sys.exit(main())
