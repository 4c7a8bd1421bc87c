"""Adaptive Monte-Carlo sampling: the opt-in variance-targeted mode.

Requested explicitly via ``average_fidelity(target_stderr=...)`` or
``SweepPoint(num_trajectories="auto", target_stderr=...)``, this module
estimates the mean trajectory fidelity with two cooperating techniques on
top of the no-jump draw replay (:mod:`repro.noise.fastpath`):

**Sequential early stopping.**  Trajectories run in deterministic
fixed-size rounds (``REPRO_ADAPTIVE_ROUND`` draws per round, spawned from
the simulator's generator exactly like a fixed-count run — stream ``j`` of
an adaptive run is bit-identical to stream ``j`` of
``average_fidelity(n)`` under the same seed).  After each round a streaming
accumulator (:class:`repro.noise.stats.RunningStats`) decides whether the
estimator's standard error has reached ``target_stderr``.  Stopping is
round-granular and the statistic is accumulated in trajectory-index order,
so the decision — and therefore every reported number — is a pure function
of the seeded draw sequence: identical for any sweep pool size, lease
schedule or batch size.

**First-deviation importance sampling.**  Each round is first classified by
:func:`~repro.noise.fastpath.prescan_trajectories`: the draw replay
locates every trajectory's first deviation without touching a statevector
and yields, per trajectory, the *exact* clean-stratum probability ``p_i``
and the clean fidelity ``F_c,i`` straight from the no-jump record.  Only
the deviating trajectories are then actually simulated — resumed from the
round's own checkpoints, bit-identically to the explicit engine — so their
fidelities are the standard values; clean ones are served by the record at
near-zero cost.  The round's records are dropped when the round ends.  The per-trajectory
estimator contribution is the stratified form

    ``g_i = p_i * F_c,i + (1 - p_i) * c  +  [deviated] * (F_i - c)``

whose conditional expectation is exactly ``p_i F_c,i + (1 - p_i) mu_dev``
for *any* control constant ``c`` chosen before the round's deviation draws
— there is no division by a random deviation count, hence no
self-normalization bias.  ``c`` approximates the mean deviating fidelity
(the running mean of previously observed deviating fidelities; the first
round, with nothing observed yet, uses the round's mean clean fidelity — a
function of the input states only), which removes most of the
``(1 - p_i)``-stratum variance.

The whole mode is opt-in and sealed off from the default paths (rule
``STAT001``: importing this module or :mod:`repro.noise.stats` at module
level anywhere else in ``repro`` is a lint error), so the bit-for-bit
default invariants are untouched.  Within the mode, results are exactly
reproducible but *statistically* subtle in one standard way: sequential
stopping makes the final mean very slightly biased (optional stopping);
the estimator itself is exactly unbiased at any fixed round count, which
is what the regression tests pin.  One rare-event trap is guarded
explicitly: while no deviating draw has been observed, the sample stderr
cannot see the deviating stratum at all, so the stopper additionally
requires the stratum's exact probability mass (known from the prescan) to
bound its worst-case impact below the target before it may declare
convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core import env
from repro.noise.stats import RunningStats
from repro.noise.trajectory import TrajectoryResult, _default_state_sampler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.physical import PhysicalCircuit
    from repro.noise.trajectory import TrajectorySimulator

__all__ = [
    "AdaptiveResult",
    "AdaptiveRound",
    "adaptive_average_fidelity",
    "adaptive_round_size",
    "default_max_trajectories",
    "stratified_contributions",
]

#: Trajectories per adaptive round (the early-stopping granularity).
ROUND_ENV = "REPRO_ADAPTIVE_ROUND"

#: Hard trajectory cap when the point does not set one explicitly.
MAX_TRAJ_ENV = "REPRO_ADAPTIVE_MAX_TRAJ"

_DEFAULT_ROUND = 32
_DEFAULT_MAX_TRAJECTORIES = 4096


def adaptive_round_size() -> int:
    """Round size in trajectories (``REPRO_ADAPTIVE_ROUND``, default 32)."""
    value = env.read_int(ROUND_ENV)
    if value is None:
        return _DEFAULT_ROUND
    if value < 1:
        raise ValueError(f"{ROUND_ENV} must be a positive integer, got {value!r}")
    return value


def default_max_trajectories() -> int:
    """Default trajectory cap (``REPRO_ADAPTIVE_MAX_TRAJ``, default 4096)."""
    value = env.read_int(MAX_TRAJ_ENV)
    if value is None:
        return _DEFAULT_MAX_TRAJECTORIES
    if value < 1:
        raise ValueError(f"{MAX_TRAJ_ENV} must be a positive integer, got {value!r}")
    return value


@dataclass
class AdaptiveRound:
    """Per-round diagnostics of one adaptive run (reproducible, seed-pure)."""

    size: int  # trajectories drawn this round
    deviating: int  # how many actually needed simulation
    baseline: float  # the control constant c used for this round
    estimate: float  # running estimate after the round
    stderr: float  # running standard error after the round


@dataclass
class AdaptiveResult(TrajectoryResult):
    """Result of one adaptive run.

    ``fidelities`` holds the per-trajectory estimator *contributions*
    ``g_i`` (their plain mean equals :attr:`estimate`), so downstream code
    that only knows :class:`TrajectoryResult` keeps working;
    :attr:`mean_fidelity`/:attr:`std_error` are overridden to return the
    sequentially accumulated values exactly as the stopping rule saw them.
    ``ess`` is the equivalent fixed-count sample size: the number of naive
    trajectories that would have been needed for the same standard error
    (``naive variance / g variance`` per draw, times ``n_used``).
    """

    target_stderr: float = 0.0
    estimate: float = 0.0
    stderr: float = 0.0
    n_used: int = 0
    n_deviating: int = 0
    ess: float = 0.0
    converged: bool = False
    rounds: list[AdaptiveRound] = field(default_factory=list)

    @property
    def mean_fidelity(self) -> float:
        return self.estimate

    @property
    def std_error(self) -> float:
        return self.stderr

    def adaptive_row(self) -> dict:
        """The adaptive row columns (``n_used``/``stderr``/``ess``).

        Native Python scalars only: sweep rows must JSON round-trip exactly
        (the leased-merge byte-identity contract).
        """
        return {
            "n_used": int(self.n_used),
            "stderr": float(self.stderr),
            "ess": float(self.ess),
        }


def stratified_contributions(
    clean_probability: np.ndarray,
    clean_fidelity: np.ndarray,
    clean: np.ndarray,
    deviating_fidelities: list[float],
    baseline: float,
) -> np.ndarray:
    """Per-trajectory unbiased contributions of one round.

    ``deviating_fidelities`` are the simulated fidelities of the rows where
    ``clean`` is False, in ascending row order.  For any ``baseline``
    independent of this round's deviation outcomes,
    ``E[g_i | state_i] = p_i F_c,i + (1 - p_i) E[F_i | deviated]`` exactly —
    the clean stratum enters with its analytic weight, the deviating stratum
    through the natural indicator, and no random quantity ever divides.
    """
    contributions = clean_probability * clean_fidelity + (1.0 - clean_probability) * baseline
    deviating_rows = np.flatnonzero(~clean)
    if len(deviating_rows) != len(deviating_fidelities):
        raise ValueError(
            f"{len(deviating_rows)} deviating rows but "
            f"{len(deviating_fidelities)} simulated fidelities"
        )
    for j, row in enumerate(deviating_rows):
        contributions[row] += deviating_fidelities[j] - baseline
    return contributions


def adaptive_average_fidelity(
    simulator: "TrajectorySimulator",
    physical: "PhysicalCircuit",
    *,
    target_stderr: float,
    max_trajectories: int | None = None,
    initial_state_sampler: Callable[[np.random.Generator], np.ndarray] | None = None,
    batch_size: int | None = None,
) -> AdaptiveResult:
    """Estimate the mean fidelity to ``target_stderr`` with adaptive rounds.

    Rounds of :func:`adaptive_round_size` streams are spawned from
    ``simulator.rng`` (the same spawn sequence as a fixed-count run),
    classified by the no-jump prescan, and only the deviating streams are
    simulated, each resumed from its own prescan checkpoint.  The run stops
    at the end of the first round whose accumulated standard error reaches
    ``target_stderr``, or at ``max_trajectories`` (default
    ``REPRO_ADAPTIVE_MAX_TRAJ``), whichever comes first — check
    :attr:`AdaptiveResult.converged`.

    The returned numbers are a pure function of the seed and the
    configuration: each resumed stream returns exactly the fidelity a
    fixed-count run computes for it (the standing invariants).
    """
    import math

    from repro.noise.fastpath import prescan_trajectories, run_fastpath_fidelities

    if not (isinstance(target_stderr, (int, float)) and math.isfinite(target_stderr)):
        raise ValueError(f"target_stderr must be a finite float, got {target_stderr!r}")
    if target_stderr <= 0.0:
        raise ValueError(f"target_stderr must be positive, got {target_stderr!r}")
    cap = max_trajectories if max_trajectories is not None else default_max_trajectories()
    if cap < 1:
        raise ValueError("need at least one trajectory")
    per_round = adaptive_round_size()
    program = simulator.program_for(physical)
    sampler = initial_state_sampler or _default_state_sampler(physical, program.dims)

    g_stats = RunningStats()  # the estimator (stopping statistic)
    naive_stats = RunningStats()  # what fixed-count sampling would have seen
    dev_stats = RunningStats()  # observed deviating fidelities (baseline feed)
    contributions_log: list[float] = []
    rounds: list[AdaptiveRound] = []
    n_deviating = 0
    deviation_mass = 0.0  # sum over draws of the exact deviation probability
    converged = False
    while g_stats.count < cap and not converged:
        size = min(per_round, cap - g_stats.count)
        streams = simulator.rng.spawn(size)
        prescan = prescan_trajectories(
            physical,
            simulator.noise_model,
            program,
            streams,
            sampler,
            block_size=batch_size,
        )
        # The control constant must predate this round's deviation draws:
        # earlier rounds' observed deviating mean, else (first round) the
        # round's mean clean fidelity — a function of the input states only.
        baseline = dev_stats.mean if dev_stats.count else float(np.mean(prescan.clean_fidelity))
        deviating_rows = np.flatnonzero(~prescan.clean)
        deviating_fidelities = run_fastpath_fidelities(
            physical,
            simulator.noise_model,
            program,
            [streams[int(row)] for row in deviating_rows],
            sampler,
            prescan.resumes,
            block_size=batch_size,
        )
        contributions = stratified_contributions(
            prescan.clean_probability,
            prescan.clean_fidelity,
            prescan.clean,
            deviating_fidelities,
            baseline,
        )
        for i in range(size):
            value = float(contributions[i])
            g_stats.push(value)
            contributions_log.append(value)
        naive = np.array(prescan.clean_fidelity)
        naive[deviating_rows] = deviating_fidelities
        for i in range(size):
            naive_stats.push(float(naive[i]))
        for value in deviating_fidelities:
            dev_stats.push(float(value))
        n_deviating += len(deviating_fidelities)
        deviation_mass += float(np.sum(1.0 - prescan.clean_probability))
        del prescan  # the round's no-jump records die with the round
        # Rare-event guard: until a deviating draw has been *observed*, the
        # sample stderr is blind to the deviating stratum (every g_i has
        # effectively assumed F_dev == baseline).  The prescan knows the
        # stratum's exact probability mass, and with fidelities in [0, 1]
        # the unseen stratum can move the estimate by at most the mean
        # deviation mass — refuse to stop while that bound still exceeds
        # the target.  Genuinely clean regimes pass the bound quickly;
        # heavy-tailed ones must keep drawing until the tail shows up (at
        # which point the sample variance prices it honestly).
        unseen_risk = deviation_mass / g_stats.count if dev_stats.count == 0 else 0.0
        converged = (
            g_stats.count >= 2
            and g_stats.std_error <= target_stderr
            and unseen_risk <= target_stderr
        )
        rounds.append(
            AdaptiveRound(
                size=size,
                deviating=len(deviating_fidelities),
                baseline=baseline,
                estimate=g_stats.mean,
                stderr=g_stats.std_error,
            )
        )

    if g_stats.variance > 0.0:
        ess = naive_stats.variance / g_stats.variance * g_stats.count
    else:
        ess = float(g_stats.count)
    return AdaptiveResult(
        fidelities=contributions_log,
        target_stderr=float(target_stderr),
        estimate=g_stats.mean,
        stderr=g_stats.std_error,
        n_used=g_stats.count,
        n_deviating=n_deviating,
        ess=float(ess),
        converged=converged,
        rounds=rounds,
    )
