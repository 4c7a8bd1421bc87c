"""The benchmark's four workloads: their grids and the driver call each times.

Every workload runs a paper figure's grid through a public driver entry
point with ``SweepRunner(max_workers=1)``; the runner writes the table's CSV
and JSON renderings, so the timed call ends with the last artifact written.
Trajectory budgets, and the largest sizes of two grids, are trimmed from
the paper's so a run fits several repetitions in the benchmark's run length.
``repro`` is imported inside the functions only, so the orchestrating
process never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

FIGURE_WORKLOADS = ("qram", "cnu", "cuccaro", "select")

FIG7_TRAJECTORIES = 1
# The paper's 30-trajectory grid holds far more no-jump records than the
# default 512 MB record store, so each record is built in the prescan,
# evicted, and built again by the run.  At one trajectory the grid's records
# fit, so the store is shrunk until they no longer do: every record is built
# twice, as at paper scale.
FIG7_ENV = (("REPRO_FASTPATH_MEMORY_MB", "64"),)
# Fig. 9a without its 9-qubit size: the 4^9 points put most of a warm rerun
# into replaying a handful of deviating trajectories, so its wall time swung
# by 20-40% from seed to seed.
FIG9A_SIZES = (5, 7)
FIG9A_TRAJECTORIES = 64
# 61 and 81 would triple the run and more; the regime is the same, and a
# short run leaves room for several repetitions to take the median of.
EPS_SIZES = (21, 41)
SENSITIVITY_SIZE = 7
SENSITIVITY_FACTORS = (1.0, 2.0, 4.0, 8.0)
# About half the points reach this error after four 16-trajectory rounds;
# the rest need a fifth, which the cap cuts short, so both ways of stopping
# are exercised.  Rounds of 16 rather than the default 32 let each point
# stop closer to its target.
ADAPTIVE_TARGET_STDERR = 0.03
ADAPTIVE_CAP = 72
ADAPTIVE_ENV = (("REPRO_ADAPTIVE_ROUND", "16"),)


def fig7_run(seed: int, runner: Any) -> None:
    from repro.experiments.fidelity_sweep import run_fidelity_sweep

    run_fidelity_sweep(num_trajectories=FIG7_TRAJECTORIES, rng=seed, runner=runner)


def fig9a_run(seed: int, runner: Any) -> None:
    from repro.experiments.cswap_study import run_cswap_study

    run_cswap_study(
        sizes=FIG9A_SIZES, num_trajectories=FIG9A_TRAJECTORIES, rng=seed, runner=runner
    )


def eps_points(seed: int) -> list:
    """Fig. 8's EPS regime past the simulation ceiling: compile-only points."""
    from repro.core.strategies import Strategy
    from repro.experiments.sweep import SweepPoint, point_seeds

    grid = [(w, size, s) for w in FIGURE_WORKLOADS for size in EPS_SIZES for s in Strategy]
    return [
        SweepPoint(workload=workload, size=size, strategy=strategy.name, seed=point_seed)
        for point_seed, (workload, size, strategy) in zip(point_seeds(seed, len(grid)), grid)
    ]


def eps_run(seed: int, runner: Any) -> None:
    from repro.artifacts.figures import compute_table

    compute_table(eps_points(seed), runner, name="fig8-large")


def sensitivity_points(
    seed: int,
    num_trajectories: int = ADAPTIVE_CAP,
    target_stderr: float | None = ADAPTIVE_TARGET_STDERR,
) -> list:
    """A Fig. 9b grid (Cuccaro adder x ququart error factor), adaptive by default."""
    from repro.experiments.sensitivity import SENSITIVITY_STRATEGIES
    from repro.experiments.sweep import SweepPoint, point_seeds

    grid = [(f, s) for f in SENSITIVITY_FACTORS for s in SENSITIVITY_STRATEGIES]
    return [
        SweepPoint(
            workload="cuccaro",
            size=SENSITIVITY_SIZE,
            strategy=strategy.name,
            error_factor=factor,
            num_trajectories=num_trajectories,
            seed=point_seed,
            axis=factor,
            target_stderr=target_stderr,
        )
        for point_seed, (factor, strategy) in zip(point_seeds(seed, len(grid)), grid)
    ]


def sensitivity_run(seed: int, runner: Any) -> None:
    from repro.artifacts.figures import compute_table

    compute_table(sensitivity_points(seed), runner, name="fig9b")


@dataclass(frozen=True)
class Workload:
    name: str
    table: str  # file stem of the CSV/JSON artifacts the driver writes
    run: Callable[[int, Any], None]
    warm: bool  # set-up populates a REPRO_CACHE_DIR the measured run reads
    simulates: bool
    env: tuple[tuple[str, str], ...] = ()  # REPRO_* knobs the workload sets


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fig7-cold", "fig7", fig7_run, warm=False, simulates=True, env=FIG7_ENV),
        Workload("fig9a-warm", "fig9a", fig9a_run, warm=True, simulates=True),
        Workload("eps-large", "fig8-large", eps_run, warm=False, simulates=False),
        Workload(
            "adaptive-sens", "fig9b", sensitivity_run, warm=False, simulates=True, env=ADAPTIVE_ENV
        ),
    )
}
