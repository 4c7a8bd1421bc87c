"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  The heavy
lifting runs exactly once per benchmark (``rounds=1``) because the interesting
output is the regenerated rows/series, not the wall-clock time of the
experiment driver; pytest-benchmark still records the timing for reference.

Speedup gates are configured through environment variables, parsed in one
place (:func:`parse_speedup_gate`) so every benchmark validates them the
same way:

* ``REPRO_SPEEDUP_GATE`` — minimum batched-vs-seed speedup of the Figure 7
  sweep (default 4.0, one cold pass of the default pipeline; CI relaxes it
  for noisy shared runners),
* ``REPRO_ADAPTIVE_SPEEDUP_GATE`` — minimum adaptive-vs-fixed-count speedup
  to reach the same statistical error on the Figure 7 paper-regime points
  (default 2.0: the importance-sampled estimator needs several times fewer
  draws for the same stderr, and clean draws cost a prescan instead of a
  simulation; 0.0 makes the benchmark report-only),
* ``REPRO_BENCH_DIR`` — when set, benchmarks write their ``BENCH_*.json`` /
  CSV artifacts into this directory (used by the ``bench.yml`` workflow).
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest

from repro.core import env


def run_once(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def parse_speedup_gate(env_name: str, default: float) -> float:
    """Parse a speedup gate from the environment: one validated float.

    A gate of 0.0 disables the assertion (report-only).  Malformed values
    fail loudly instead of silently disabling a performance contract.
    """
    raw = env.read_raw(env_name)
    if raw is None or raw.strip() == "":
        return float(default)
    try:
        value = float(raw)
    except ValueError as error:
        raise ValueError(f"{env_name} must be a float, got {raw!r}") from error
    if not math.isfinite(value) or value < 0.0:
        raise ValueError(f"{env_name} must be a finite, non-negative float, got {raw!r}")
    return value


@pytest.fixture
def once():
    """Fixture exposing :func:`run_once`."""
    return run_once


@pytest.fixture
def speedup_gate() -> float:
    """Figure 7 batched-vs-seed pipeline gate (``REPRO_SPEEDUP_GATE``).

    Default 4.0: the contender is one cold pass of the default pipeline.
    """
    return parse_speedup_gate("REPRO_SPEEDUP_GATE", default=4.0)


@pytest.fixture
def adaptive_speedup_gate() -> float:
    """Adaptive-sampling gate (``REPRO_ADAPTIVE_SPEEDUP_GATE``).

    Applied to the wall-clock ratio fixed-count / adaptive at matched
    statistical error on the paper-regime points: the adaptive run targets
    the stderr the fixed-count reference actually achieved, so both sides
    buy the same precision and the ratio is the real time-to-answer win.
    """
    return parse_speedup_gate("REPRO_ADAPTIVE_SPEEDUP_GATE", default=2.0)


@pytest.fixture
def bench_artifact_dir() -> Path | None:
    """Directory for benchmark artifacts (``REPRO_BENCH_DIR``), or None."""
    raw = env.read_raw("REPRO_BENCH_DIR")
    if not raw:
        return None
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path
