"""Figure 9a: CSWAP orientation case study on the QRAM circuit."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.strategies import Strategy
from repro.experiments.runner import StrategyEvaluation
from repro.experiments.sweep import SweepPoint, SweepRunner, point_seeds

__all__ = ["run_cswap_study", "cswap_study_points", "CSWAP_STUDY_STRATEGIES"]

#: Strategies compared in Figure 9a.
CSWAP_STUDY_STRATEGIES: tuple[Strategy, ...] = (
    Strategy.QUBIT_ONLY,
    Strategy.QUBIT_ITOFFOLI,
    Strategy.MIXED_RADIX_CCZ,
    Strategy.MIXED_RADIX_CSWAP,
    Strategy.FULL_QUQUART,
    Strategy.FULL_QUQUART_CSWAP_BASIC,
    Strategy.FULL_QUQUART_CSWAP_TARGETS,
)


def cswap_study_points(
    sizes: Sequence[int] = (5, 7, 9),
    strategies: Sequence[Strategy] = CSWAP_STUDY_STRATEGIES,
    num_trajectories: int = 30,
    rng: np.random.Generator | int | None = 0,
) -> list[SweepPoint]:
    """Build the Figure 9a grid as declarative sweep points."""
    grid = [(size, strategy) for size in sizes for strategy in strategies]
    seeds = point_seeds(rng, len(grid))
    return [
        SweepPoint(
            workload="qram",
            size=size,
            strategy=strategy.name,
            num_trajectories=num_trajectories,
            seed=seed,
        )
        for seed, (size, strategy) in zip(seeds, grid)
    ]


def run_cswap_study(
    sizes: Sequence[int] = (5, 7, 9),
    strategies: Sequence[Strategy] = CSWAP_STUDY_STRATEGIES,
    num_trajectories: int = 30,
    rng: np.random.Generator | int | None = 0,
    runner: SweepRunner | None = None,
) -> list[StrategyEvaluation]:
    """Compare CSWAP-aware strategies against CCZ decomposition on QRAM."""
    points = cswap_study_points(
        sizes=sizes, strategies=strategies, num_trajectories=num_trajectories, rng=rng
    )
    from repro.artifacts.figures import compute_table

    runner = runner or SweepRunner(max_workers=1)
    return compute_table(points, runner, name="fig9a")


def main(argv=None) -> int:
    """CLI: run the Figure 9a study here, or save it as a lease job (``--dir``)."""
    import argparse

    from repro.experiments.scheduler import add_driver_arguments, run_driver

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.cswap_study",
        description="Figure 9a: CSWAP orientation case study on QRAM.",
    )
    parser.add_argument("--sizes", nargs="+", type=int, default=[5, 7, 9])
    parser.add_argument("--trajectories", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    add_driver_arguments(parser)
    args = parser.parse_args(argv)

    points = cswap_study_points(
        sizes=tuple(args.sizes), num_trajectories=args.trajectories, rng=args.seed
    )
    return run_driver(points, args)


if __name__ == "__main__":
    raise SystemExit(main())
