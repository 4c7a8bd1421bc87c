"""Regenerate ``reference.json``, the benchmark's correctness reference.

Run from the repository root (about five minutes on two CPUs)::

    python3 perfbench/make_reference.py

Compile columns come from the workloads' own grids.  Fidelity references
are fixed-count trajectory means over budgets far above the workloads'
(64 trajectories per Fig. 7 / Fig. 9a point, 256 per Fig. 9b point), on a
seed no benchmark run uses, through the explicit engines
(``REPRO_NO_FASTPATH=1``: bit-identical to the fast path, and faster cold).
Regenerate it only when the program's intended output changes.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_SEED = 20230617
FIGURE_TRAJECTORIES = 64
SENSITIVITY_TRAJECTORIES = 256


def main() -> int:
    os.environ["REPRO_NO_FASTPATH"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import check
    import workloads
    from repro.artifacts.figures import compute_table
    from repro.experiments.cswap_study import cswap_study_points
    from repro.experiments.fidelity_sweep import fidelity_sweep_points
    from repro.experiments.sweep import SweepRunner, sweep_rows

    grids = [
        fidelity_sweep_points(num_trajectories=FIGURE_TRAJECTORIES, rng=REFERENCE_SEED),
        cswap_study_points(num_trajectories=FIGURE_TRAJECTORIES, rng=REFERENCE_SEED),
        workloads.sensitivity_points(
            REFERENCE_SEED, num_trajectories=SENSITIVITY_TRAJECTORIES, target_stderr=None
        ),
        workloads.eps_points(REFERENCE_SEED),
    ]
    reference: dict[str, dict] = {}
    for grid in grids:
        evaluations = compute_table(grid, SweepRunner(max_workers=2), name="reference")
        for row, evaluation in zip(sweep_rows(grid, evaluations), evaluations):
            key = check.point_id(row)
            if key in reference:  # Fig. 9a repeats some Fig. 7 points
                continue
            entry = {column: row[column] for column in check.COMPILE_COLUMNS}
            if evaluation.simulation is not None:
                fidelities = evaluation.simulation.fidelities
                entry.update(
                    fidelity=statistics.fmean(fidelities),
                    trajectory_std=statistics.stdev(fidelities),
                    trajectories=len(fidelities),
                )
            reference[key] = entry
        print(f"{len(grid)} points done", flush=True)
    document = {"seed": REFERENCE_SEED, "points": dict(sorted(reference.items()))}
    check.REFERENCE.write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
