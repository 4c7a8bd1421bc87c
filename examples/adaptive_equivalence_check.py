"""CI gate: adaptive sampling must be reproducible and statistically honest.

Runs a small adaptive grid (``num_trajectories="auto"`` with an explicit
``target_stderr``) twice against one ``$REPRO_CACHE_DIR``:

1. **serial** — ``SweepRunner(max_workers=1)``, the reference bytes: every
   round's deviating streams resume from the prescan's checkpoints,
2. **parallel** — ``max_workers=2``, the point pool: each point runs in
   its own worker process.

The check fails unless both CSV **and** JSON artifacts are byte-identical
and the serial pass resumed at least one deviating stream, so the rows
really carry resumed fidelities.  It then re-evaluates every point as a
plain fixed-count run with **10x** the trajectories the adaptive run
consumed and requires each adaptive estimate to land within ``z = 3``
combined standard errors of that reference — a reproducible-but-wrong
estimator fails here.

Usage::

    PYTHONPATH=src REPRO_CACHE_DIR=/tmp/repro-cache \
        python examples/adaptive_equivalence_check.py
"""

import dataclasses
import math
import os
import sys
import tempfile
from pathlib import Path

TARGET_STDERR = 2e-2
Z_LIMIT = 3.0


def main() -> int:
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("error: REPRO_CACHE_DIR must be set for the adaptive-equivalence check")
        return 2

    from repro.experiments.sweep import SweepPoint, SweepRunner, evaluate_point, point_seeds
    from repro.noise.fastpath import stats as fastpath_stats

    seeds = point_seeds(0, 2)
    points = [
        SweepPoint(
            workload=workload,
            size=5,
            strategy="MIXED_RADIX_CCZ",
            num_trajectories="auto",
            target_stderr=TARGET_STDERR,
            seed=seed,
        )
        for workload, seed in zip(("cnu", "qram"), seeds)
    ]
    out_dir = Path(tempfile.mkdtemp(prefix="adaptive-equivalence-"))

    def run(tag: str, max_workers: int):
        csv_path = out_dir / f"{tag}.csv"
        json_path = out_dir / f"{tag}.json"
        runner = SweepRunner(max_workers=max_workers, csv_path=csv_path, json_path=json_path)
        return runner.run(points), csv_path, json_path

    serial, serial_csv, serial_json = run("serial", max_workers=1)
    serial_resumed = fastpath_stats()["resumed"]
    _, parallel_csv, parallel_json = run("parallel", max_workers=2)

    csv_identical = serial_csv.read_bytes() == parallel_csv.read_bytes()
    json_identical = serial_json.read_bytes() == parallel_json.read_bytes()
    print(
        f"serial-vs-parallel identical CSV: {csv_identical}, "
        f"identical JSON: {json_identical}, streams resumed by the serial pass: "
        f"{serial_resumed}"
    )
    if not csv_identical or not json_identical:
        print("FAIL: adaptive sweep bytes depend on scheduling")
        return 1
    if serial_resumed < 1:
        print("FAIL: the serial pass resumed no deviating stream; the diff is vacuous")
        return 1

    failures = 0
    for point, evaluation in zip(points, serial):
        adaptive = evaluation.simulation
        if not adaptive.converged:
            print(f"FAIL: {point.workload}-{point.size} never reached its stderr target")
            failures += 1
            continue
        reference_point = dataclasses.replace(
            point, num_trajectories=10 * adaptive.n_used, target_stderr=None
        )
        reference = evaluate_point(reference_point).simulation
        combined = math.hypot(adaptive.std_error, reference.std_error)
        z = abs(adaptive.mean_fidelity - reference.mean_fidelity) / combined
        print(
            f"{point.workload}-{point.size}: adaptive {adaptive.mean_fidelity:.6f} "
            f"+/- {adaptive.std_error:.2e} ({adaptive.n_used} draws, "
            f"{adaptive.n_deviating} simulated) vs 10x reference "
            f"{reference.mean_fidelity:.6f} +/- {reference.std_error:.2e} -> z = {z:.2f}"
        )
        if z > Z_LIMIT:
            print(f"FAIL: adaptive estimate is {z:.2f} combined sigma from the reference")
            failures += 1
    if failures:
        return 1
    print("OK: adaptive rows are byte-stable and the estimates match the 10x references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
