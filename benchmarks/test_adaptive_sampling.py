"""Time-to-answer win of adaptive sampling over fixed-count Monte Carlo.

Both contenders buy the *same statistical precision* on the Figure 7
paper-regime points (the mixed-radix compilations the paper champions,
which sit in the mostly-clean-trajectory regime):

* **fixed** — the default pipeline at a fixed trajectory budget
  (``NUM_FIXED`` draws per point), whose achieved standard error defines
  the precision target,
* **adaptive** — ``num_trajectories="auto"`` targeting exactly that
  achieved stderr: first-deviation importance sampling simulates only the
  deviating trajectories of each round (clean rows are scored from the
  no-jump prescan) and the variance-targeted stopper quits as soon as
  the running stderr of the stratified estimator clears the target.

Each point runs once untimed first, timings are best-of-two per
point, and the ``REPRO_ADAPTIVE_SPEEDUP_GATE`` gate (default 2.0, 0.0 =
report-only) applies to the aggregate fixed/adaptive wall-clock ratio.
The adaptive estimates must converge and land inside the combined
confidence interval of the fixed references — a speedup that changed the
answer would be a bug, not a win.

The benchmark emits ``BENCH_adaptive_sampling.json`` — per-point wall
times, draws used, effective sample size (ESS), ESS/sec for both sides
and the speedups — into ``$REPRO_BENCH_DIR`` for the bench workflow.
"""

from __future__ import annotations

import json
import math
import time

from repro.core.compile_cache import reset_cache
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.experiments.sweep import point_seeds
from repro.noise.model import NoiseModel
from repro.noise.trajectory import TrajectorySimulator
from repro.workloads import workload_by_name

POINTS = (
    ("cnu", 5, Strategy.MIXED_RADIX_CCZ),
    ("qram", 5, Strategy.MIXED_RADIX_CCZ),
    ("qram", 7, Strategy.MIXED_RADIX_CCZ),
)
NUM_FIXED = 256
BATCH_SIZE = 16


def _label(point) -> str:
    workload, size, strategy = point
    return f"{workload}-{size}/{strategy.name}"


def _fixed_run(physical, seed):
    simulator = TrajectorySimulator(NoiseModel(), rng=seed)
    start = time.perf_counter()
    result = simulator.average_fidelity(
        physical, num_trajectories=NUM_FIXED, batch_size=BATCH_SIZE
    )
    return result, time.perf_counter() - start


def _adaptive_run(physical, seed, target):
    simulator = TrajectorySimulator(NoiseModel(), rng=seed)
    start = time.perf_counter()
    result = simulator.average_fidelity(
        physical,
        num_trajectories=4 * NUM_FIXED,  # hard cap; stops at the stderr target
        target_stderr=target,
        batch_size=BATCH_SIZE,
    )
    return result, time.perf_counter() - start


def _adaptive_pass(physicals, targets):
    return {
        point: _adaptive_run(physical, seed, targets[point])
        for (point, seed), physical in physicals
    }


def test_adaptive_sampling_speedup(
    once, benchmark, adaptive_speedup_gate, bench_artifact_dir, tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    reset_cache()
    seeds = point_seeds(0, len(POINTS))
    physicals = [
        ((point, seed), compile_circuit(workload_by_name(point[0], point[1]), point[2]).physical_circuit)
        for point, seed in zip(POINTS, seeds)
    ]

    # Warm-up: one untimed fixed pass per point, so program compilation
    # stays out of the timings.
    for (point, seed), physical in physicals:
        _fixed_run(physical, seed)

    fixed_results, fixed_first, fixed_second = {}, {}, {}
    for (point, seed), physical in physicals:
        fixed_results[point], fixed_first[point] = _fixed_run(physical, seed)
        _, fixed_second[point] = _fixed_run(physical, seed)
    targets = {point: fixed_results[point].std_error for point in fixed_results}
    assert all(target > 0.0 for target in targets.values())

    first_pass = _adaptive_pass(physicals, targets)
    second_pass = once(benchmark, _adaptive_pass, physicals, targets)

    adaptive_results = {point: result for point, (result, _) in second_pass.items()}
    adaptive_times = {
        point: min(first_pass[point][1], second_pass[point][1]) for point in first_pass
    }
    fixed_times = {point: min(fixed_first[point], fixed_second[point]) for point in fixed_first}

    for point, (result, _) in first_pass.items():
        # Both adaptive passes are the same computation: bit-identical.
        assert result.fidelities == adaptive_results[point].fidelities

    for point, result in adaptive_results.items():
        fixed = fixed_results[point]
        assert result.converged, (
            f"{_label(point)}: adaptive run hit its cap without reaching the "
            f"fixed reference's stderr {targets[point]:.2e}"
        )
        assert result.stderr <= targets[point]
        # Same answer to combined statistical tolerance (the estimators
        # share early draws, so this is loose by construction).
        combined = math.hypot(result.stderr, fixed.std_error)
        assert abs(result.estimate - fixed.mean_fidelity) <= 5.0 * combined

    fixed_seconds = sum(fixed_times.values())
    adaptive_seconds = sum(adaptive_times.values())
    speedup = fixed_seconds / adaptive_seconds
    point_speedups = {point: fixed_times[point] / adaptive_times[point] for point in fixed_times}

    print(
        f"\nAdaptive sampling vs fixed-count ({NUM_FIXED} draws) at matched stderr, "
        f"best-of-two timings:"
    )
    for point in fixed_times:
        result = adaptive_results[point]
        print(
            f"  {_label(point)}: fixed {fixed_times[point] * 1e3:7.1f} ms "
            f"(stderr {targets[point]:.2e}) -> adaptive {adaptive_times[point] * 1e3:7.1f} ms "
            f"({result.n_used} draws, {result.n_deviating} simulated, "
            f"ESS {result.ess:7.1f}, {point_speedups[point]:.2f}x)"
        )
    print(f"  aggregate: {fixed_seconds:.2f} s -> {adaptive_seconds:.2f} s, {speedup:.2f}x")

    if bench_artifact_dir is not None:
        payload = {
            "config": {
                "points": [_label(point) for point in fixed_times],
                "num_fixed": NUM_FIXED,
                "batch_size": BATCH_SIZE,
            },
            "speedup": {
                "aggregate": speedup,
                "per_point": {
                    _label(point): round(point_speedups[point], 3) for point in point_speedups
                },
            },
            "per_point": {
                _label(point): {
                    "target_stderr": targets[point],
                    "fixed_seconds": fixed_times[point],
                    "adaptive_seconds": adaptive_times[point],
                    "n_used": adaptive_results[point].n_used,
                    "n_deviating": adaptive_results[point].n_deviating,
                    "ess": adaptive_results[point].ess,
                    "ess_per_sec": adaptive_results[point].ess / adaptive_times[point],
                    "fixed_ess_per_sec": NUM_FIXED / fixed_times[point],
                    "estimate": adaptive_results[point].estimate,
                    "fixed_mean": fixed_results[point].mean_fidelity,
                }
                for point in fixed_times
            },
        }
        path = bench_artifact_dir / "BENCH_adaptive_sampling.json"
        path.write_text(json.dumps(payload, indent=2))
        print(f"  artifact: {path}")

    reset_cache()
    if adaptive_speedup_gate > 0:
        assert speedup >= adaptive_speedup_gate, (
            f"expected >= {adaptive_speedup_gate}x adaptive-vs-fixed speedup at matched "
            f"stderr on the paper-regime points, got {speedup:.2f}x "
            f"(per point: { {_label(p): round(s, 2) for p, s in point_speedups.items()} })"
        )
