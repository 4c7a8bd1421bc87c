"""CI gate: a seeded fault plan must not change one merged byte.

Runs the Figure 7 mini-grid twice against one ``$REPRO_CACHE_DIR``:

1. **fault-free reference** — a plain single-machine ``SweepRunner`` run,
2. **chaos pass** — the same grid frozen into a lease-coordinated job and
   drained by a sequence of workers while a *seeded, deterministic*
   :class:`repro.faults.FaultPlan` injects torn cache writes, EIO reads,
   failed lease links/renames and simulated crash points into every
   durable operation the storage layer performs.  Workers that die to an
   injected crash are simply replaced — their expired leases get
   reclaimed, exactly as a real fleet heals around a dead host.

The check fails unless the fault plan actually fired, the merged CSV
**and** JSON artifacts are byte-identical to the fault-free run, and no
corruption incident was ever honoured (every quarantined artifact carries
a reason record; the job still converged).  Because the plan is seeded,
a CI failure replays exactly with the same seed on any machine.

Usage::

    PYTHONPATH=src REPRO_CACHE_DIR=/tmp/repro-chaos-cache \
        python examples/chaos_equivalence_check.py
"""

import json
import os
import sys
import tempfile
import time
from pathlib import Path

CHAOS_SEED = 1234
LEASE_TTL_S = 2.0
MAX_WORKERS = 12

#: Where the plan may inject: cache artifacts and the lease protocol.
#: Done-marker *content* writes stay un-torn (their publish renames may
#: still fail or crash; an unpublished point's lease expires and it is
#: re-drained).  A torn marker is found only when the merge reads it, and
#: this loop merges once, after the status reads mergeable, so a tear would
#: end the gate at the quarantine instead of exercising the re-drain.  That
#: recovery (quarantine with a reason, re-drain, byte-identical merge) is
#: tests/test_scheduler.py::TestLeasedWorker::
#: test_torn_and_foreign_done_markers_are_quarantined_then_re_drained.
FAULT_TARGETS = (
    ("write", "*.pkl"),
    ("read", "*.pkl"),
    ("write", "*.lease*"),
    ("link", "*.lease"),
    ("rename", "*.lease"),
    ("rename", "*.json"),
)


def main() -> int:
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("error: REPRO_CACHE_DIR must be set for the chaos-equivalence check")
        return 2

    from repro import faults
    from repro.core import storage
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

    out_dir = Path(tempfile.mkdtemp(prefix="chaos-equivalence-"))
    points = fidelity_sweep_points(workloads=("cnu",), sizes=(5,), num_trajectories=4, rng=0)

    # Pass 1: fault-free reference run (cold-compiles into the shared cache).
    reference_csv = out_dir / "reference.csv"
    reference_json = out_dir / "reference.json"
    SweepRunner(max_workers=1, csv_path=reference_csv, json_path=reference_json).run(points)

    cache = get_cache()

    # Pass 2: the same grid as a lease-coordinated job under a seeded plan.
    job_dir = out_dir / "job"
    save_job(plan_job(points), job_dir)
    plan = faults.seeded_plan(CHAOS_SEED, FAULT_TARGETS, num_faults=10, max_at=6, max_arg=48)
    print(f"chaos plan (seed {CHAOS_SEED}):")
    for rule in plan.rules:
        print(f"  {json.dumps(rule.to_json())}")

    crashes = 0
    faults.install_plan(plan)
    try:
        for round_index in range(MAX_WORKERS):
            if job_status(job_dir)["mergeable"]:
                break
            cache.clear_memory()  # each worker starts like a fresh host process
            worker = LeasedWorker(
                job_dir,
                worker_id=f"chaos-{round_index}",
                ttl=LEASE_TTL_S,
                poll=0.1,
                heartbeat=False,
            )
            try:
                print(worker.run().describe())
            except faults.SimulatedCrash as crash:
                crashes += 1
                print(f"worker chaos-{round_index} died to an injected crash: {crash}")
            except OSError as error:
                print(f"worker chaos-{round_index} died to an injected fault: {error}")
            if not job_status(job_dir)["mergeable"]:
                time.sleep(LEASE_TTL_S + 0.5)  # let any orphaned lease expire
    finally:
        faults.clear_plan()

    status = job_status(job_dir)
    if not status["mergeable"]:
        print(f"FAIL: the job never drained under the fault plan: {status}")
        return 1
    merged = merge_job(job_dir)

    injected = plan.stats.as_dict()
    reasons = sorted(
        path
        for root in (cache.directory, job_dir)
        for path in Path(root).glob("quarantine/*.reason.json")
    )
    unreasoned = [
        str(item)
        for root in (cache.directory, job_dir)
        for item in Path(root).glob("quarantine/*")
        if not item.name.endswith(".reason.json")
        and not item.with_name(item.name + ".reason.json").exists()
    ]
    csv_identical = merged.csv_path.read_bytes() == reference_csv.read_bytes()
    json_identical = merged.json_path.read_bytes() == reference_json.read_bytes()
    print(
        f"injected: {injected} (total {plan.stats.total}), worker crashes: {crashes}, "
        f"retries: {storage.STATS.retries}, quarantined: {storage.STATS.quarantined} "
        f"({len(reasons)} reason records), reclaims: {status['reclaimed']}, "
        f"identical CSV: {csv_identical}, identical JSON: {json_identical}"
    )

    if plan.stats.total < 1:
        print("FAIL: the seeded fault plan never fired — the gate tested nothing")
        return 1
    if unreasoned:
        print(f"FAIL: quarantined artifacts missing reason records: {unreasoned}")
        return 1
    if not csv_identical or not json_identical:
        print("FAIL: merged chaos-run artifacts differ from the fault-free run")
        return 1
    print("OK: the seeded fault plan changed no merged byte and honoured no corruption")
    return 0


if __name__ == "__main__":
    sys.exit(main())
