"""Numerically stable streaming moments for the adaptive sampling mode.

:class:`RunningStats` implements Welford's online mean/variance update with
Chan's pairwise merge — the textbook formulation that stays accurate when
the values are tightly clustered (fidelities at paper error rates sit in a
narrow band near 1.0, exactly the regime where the naive
``sum(x**2) - sum(x)**2 / n`` form cancels catastrophically).

The adaptive estimator (:mod:`repro.noise.adaptive`) pushes one value per
trajectory **in trajectory-index order**, so the accumulated mean and
standard error are a pure function of the seeded draw sequence — identical
for any worker count or lease schedule.  :meth:`merge` exists
for pairwise combination of independently accumulated partitions (and is
pinned by property tests against ``numpy.var``); the sequential path does
not use it, keeping the stopping statistic order-exact.

This module is intentionally stdlib-only and type-checked under
``mypy --strict`` (see ``mypy.ini``): it is the contract-bearing numeric
core the early-stopping decision rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = ["RunningStats"]


@dataclass
class RunningStats:
    """Streaming count/mean/variance accumulator (Welford + Chan merge).

    ``m2`` is the running sum of squared deviations from the current mean;
    :attr:`variance` applies the sample (``ddof=1``) correction to match
    ``TrajectoryResult.std_error``.  With fewer than two values both
    :attr:`variance` and :attr:`std_error` are 0.0, mirroring the
    fixed-count result's convention.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "RunningStats":
        """Accumulate ``values`` in iteration order into a fresh instance."""
        stats = cls()
        for value in values:
            stats.push(value)
        return stats

    def push(self, value: float) -> None:
        """Welford update with one value (exact single-pass recurrence)."""
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Return the combination of two independent accumulations (Chan).

        Neither operand is mutated.  Merging an empty side reproduces the
        other side exactly; the general case agrees with a single-pass
        accumulation of the concatenated values to floating-point rounding
        (pinned by the property tests in ``tests/test_stats.py``).
        """
        if self.count == 0:
            return RunningStats(other.count, other.mean, other.m2)
        if other.count == 0:
            return RunningStats(self.count, self.mean, self.m2)
        total = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / total)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / total)
        return RunningStats(total, mean, m2)

    @property
    def variance(self) -> float:
        """Sample variance (``ddof=1``); 0.0 with fewer than two values."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        """Standard error of the mean; 0.0 with fewer than two values."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self.variance / self.count)
