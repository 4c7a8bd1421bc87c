"""Noise channels and the trajectory-method simulator (Sections 6.4-6.5)."""

from repro.noise.channels import (
    depolarizing_operators,
    qudit_amplitude_damping,
    sample_depolarizing_error,
)
from repro.noise.fastpath import reset_fastpath
from repro.noise.fastpath import stats as fastpath_stats
from repro.noise.model import NoiseModel
from repro.noise.trajectory import (
    TrajectoryResult,
    TrajectorySimulator,
    simulate_fidelity,
)

__all__ = [
    "NoiseModel",
    "TrajectoryResult",
    "TrajectorySimulator",
    "depolarizing_operators",
    "fastpath_stats",
    "qudit_amplitude_damping",
    "reset_fastpath",
    "sample_depolarizing_error",
    "simulate_fidelity",
]
