"""Correctness verdict: compare a workload's sweep rows with the reference.

Compile columns must equal the committed reference exactly.  A simulated
fidelity (or adaptive estimate) must fall within ``5 * sigma + 0.02`` of
the reference mean, where ``sigma`` combines the run's and the reference's
standard errors; the band of ``benchmarks/test_fig7_sweep_speedup.py``.  A
run of one or two trajectories can report a standard error of zero, so the
run's error is at least the reference's per-trajectory spread over the
square root of the run's trajectory count.

At one trajectory per point that band is wider than a fidelity's range, so
a point alone cannot fail it.  The run is therefore also checked as a
whole (:func:`pooled_failure`): the mean deviation from the reference over
every simulated point of every repetition must fall within the same band,
with ``sigma`` the standard error of that mean.  If it does not, every
simulated point fails.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
COMPILE_COLUMNS = ("duration_ns", "num_ops", "gate_eps", "coherence_eps", "total_eps")
SIGMAS = 5.0
SLACK = 0.02
#: A disk-warm rerun may differ from the cold run in the last bits of a
#: fidelity (last-ulp drift seen at 4^9 registers); beyond this it fails.
WARM_REL_TOL = 1e-12
WARM_ABS_TOL = 1e-15


def point_id(row: dict) -> str:
    return f"{row['workload']}-{row['size']}/{row['strategy']}/x{row['error_factor']!r}"


def trajectories(row: dict) -> int:
    """Trajectories the row's point simulated (``n_used`` when adaptive)."""
    return int(row.get("n_used", row["num_trajectories"]))


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["points"]


def band(variance: float) -> float:
    return SIGMAS * math.sqrt(variance) + SLACK


def check_rows(rows: list[dict], reference: dict) -> tuple[dict[str, str], list[list]]:
    """Failing points (id -> reason) and each simulated point's deviation.

    A deviation is ``[id, fidelity - reference, variance of that difference]``,
    the input of :func:`pooled_failure`.
    """
    failures = {}
    deviations = []
    for row in rows:
        key = point_id(row)
        expected = reference.get(key)
        if expected is None:
            failures[key] = "no reference"
            continue
        wrong = [c for c in COMPILE_COLUMNS if row[c] != expected[c]]
        if wrong:
            failures[key] = f"compile columns differ: {wrong}"
            continue
        n = trajectories(row)
        if n == 0:
            continue
        spread = expected["trajectory_std"]
        run_error = max(row["std_error"], spread / math.sqrt(n))
        ref_error = spread / math.sqrt(expected["trajectories"])
        variance = run_error**2 + ref_error**2
        delta = row["fidelity"] - expected["fidelity"]
        deviations.append([key, delta, variance])
        if abs(delta) > band(variance):
            failures[key] = (
                f"fidelity {row['fidelity']:.4f} outside "
                f"{expected['fidelity']:.4f} +- {band(variance):.4f}"
            )
    return failures, deviations


def pooled_failure(deviations: list[list]) -> str | None:
    """Why the mean deviation of many points is out of band, or ``None``."""
    if not deviations:
        return None
    n = len(deviations)
    mean = sum(delta for _, delta, _ in deviations) / n
    limit = band(sum(variance for *_, variance in deviations) / n**2)
    if abs(mean) <= limit:
        return None
    return f"mean fidelity deviation over {n} points {mean:+.4f} outside +-{limit:.4f}"


def _same(warm, cold) -> bool:
    if isinstance(warm, float) and isinstance(cold, float):
        return math.isclose(warm, cold, rel_tol=WARM_REL_TOL, abs_tol=WARM_ABS_TOL)
    return warm == cold


def compare_warm(rows: list[dict], cold_rows: list[dict]) -> tuple[dict[str, str], int]:
    """Failures of a warm rerun against its cold rows, and how many rows drifted.

    A drifted row is not bit-identical to its cold row but agrees within the
    last digits; it fails only beyond ``WARM_REL_TOL``.
    """
    if len(rows) != len(cold_rows):
        return {"table": f"warm run has {len(rows)} rows, cold run {len(cold_rows)}"}, 0
    failures, drifted = {}, 0
    for row, cold in zip(rows, cold_rows):
        if row == cold:
            continue
        drifted += 1
        if row.keys() != cold.keys() or not all(_same(row[k], cold[k]) for k in row):
            failures[point_id(row)] = "warm row differs from the cold row"
    return failures, drifted
