"""Figure 7: simulated fidelity versus circuit size per strategy."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

import numpy as np

from repro.core.strategies import Strategy
from repro.experiments.runner import StrategyEvaluation
from repro.experiments.sweep import SweepPoint, SweepRunner, point_seeds

__all__ = ["run_fidelity_sweep", "summarize_improvements", "DEFAULT_WORKLOADS", "fidelity_sweep_points"]

#: The four parameterised circuits plotted in Figure 7a-d.
DEFAULT_WORKLOADS: tuple[str, ...] = ("qram", "cnu", "cuccaro", "select")


def fidelity_sweep_points(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    sizes: Sequence[int] = (5, 7, 9),
    strategies: Sequence[Strategy] | None = None,
    num_trajectories: int = 30,
    simulate_mixed_radix_up_to: int = 12,
    rng: np.random.Generator | int | None = 0,
    batch_size: int | str | None = "auto",
) -> list[SweepPoint]:
    """Build the Figure 7 grid as declarative sweep points.

    ``simulate_mixed_radix_up_to`` mirrors the paper's memory ceiling: above
    that qubit count the mixed-radix strategies fall back to the EPS
    estimate instead of trajectory simulation (their error bars are missing
    in the paper for the same reason).
    """
    strategies = list(strategies) if strategies is not None else Strategy.figure7_strategies()
    grid = [
        (workload, size, strategy)
        for workload in workloads
        for size in sizes
        for strategy in strategies
    ]
    seeds = point_seeds(rng, len(grid))
    points = []
    for seed, (workload, size, strategy) in zip(seeds, grid):
        trajectories = num_trajectories
        if strategy.regime == "mixed" and size > simulate_mixed_radix_up_to:
            trajectories = 0
        points.append(
            SweepPoint(
                workload=workload,
                size=size,
                strategy=strategy.name,
                num_trajectories=trajectories,
                seed=seed,
                batch_size=batch_size,
            )
        )
    return points


def run_fidelity_sweep(
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    sizes: Sequence[int] = (5, 7, 9),
    strategies: Sequence[Strategy] | None = None,
    num_trajectories: int = 30,
    simulate_mixed_radix_up_to: int = 12,
    rng: np.random.Generator | int | None = 0,
    batch_size: int | str | None = "auto",
    runner: SweepRunner | None = None,
) -> list[StrategyEvaluation]:
    """Run the Figure 7 sweep and return one evaluation per point."""
    points = fidelity_sweep_points(
        workloads=workloads,
        sizes=sizes,
        strategies=strategies,
        num_trajectories=num_trajectories,
        simulate_mixed_radix_up_to=simulate_mixed_radix_up_to,
        rng=rng,
        batch_size=batch_size,
    )
    from repro.artifacts.figures import compute_table

    runner = runner or SweepRunner(max_workers=1)
    return compute_table(points, runner, name="fig7")


def summarize_improvements(
    evaluations: Iterable[StrategyEvaluation],
    baseline: Strategy = Strategy.QUBIT_ONLY,
) -> dict[int, dict[str, float]]:
    """Return Figure 7e: average fidelity improvement over the baseline per size.

    The result maps circuit size to ``{strategy name: mean fidelity ratio}``
    where the ratio is averaged over workloads.
    """
    evaluations = list(evaluations)
    baseline_fidelity: dict[tuple[str, int], float] = {}
    for evaluation in evaluations:
        if evaluation.strategy is baseline:
            baseline_fidelity[(evaluation.circuit_name, evaluation.num_qubits)] = (
                evaluation.mean_fidelity
            )

    ratios: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for evaluation in evaluations:
        if evaluation.strategy is baseline:
            continue
        key = (evaluation.circuit_name, evaluation.num_qubits)
        reference = baseline_fidelity.get(key)
        if not reference:
            continue
        ratios[evaluation.num_qubits][evaluation.strategy.name].append(
            evaluation.mean_fidelity / max(reference, 1e-12)
        )

    return {
        size: {name: float(np.mean(values)) for name, values in by_strategy.items()}
        for size, by_strategy in sorted(ratios.items())
    }


def main(argv=None) -> int:
    """CLI: run the Figure 7 sweep here, or save it as a lease job.

    ``--dir DIR`` saves the grid as a job for workers on any number of
    machines to drain (see :mod:`repro.experiments.scheduler`); its merge
    is byte-identical to a local run of the same grid.
    """
    import argparse

    from repro.experiments.scheduler import add_driver_arguments, run_driver

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.fidelity_sweep",
        description="Figure 7: fidelity vs circuit size per strategy.",
    )
    parser.add_argument("--workloads", nargs="+", default=list(DEFAULT_WORKLOADS))
    parser.add_argument("--sizes", nargs="+", type=int, default=[5, 7, 9])
    parser.add_argument("--trajectories", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    add_driver_arguments(parser)
    args = parser.parse_args(argv)

    points = fidelity_sweep_points(
        workloads=tuple(args.workloads),
        sizes=tuple(args.sizes),
        num_trajectories=args.trajectories,
        rng=args.seed,
    )
    return run_driver(points, args)


if __name__ == "__main__":
    raise SystemExit(main())
