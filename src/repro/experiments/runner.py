"""Shared experiment runner utilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.core.compiler import CompilationResult, QuantumWaltzCompiler
from repro.core.gateset import ErrorModel, GateSet
from repro.core.metrics import CircuitMetrics, evaluate_metrics
from repro.core.strategies import Strategy
from repro.noise.model import NoiseModel
from repro.noise.trajectory import TrajectoryResult, TrajectorySimulator
from repro.topology.device import CoherenceModel

__all__ = ["StrategyEvaluation", "evaluate_strategy"]


@dataclass
class StrategyEvaluation:
    """Everything measured for one (circuit, strategy) pair."""

    circuit_name: str
    num_qubits: int
    strategy: Strategy
    compilation: CompilationResult
    metrics: CircuitMetrics
    simulation: TrajectoryResult | None = None

    @property
    def mean_fidelity(self) -> float:
        """Simulated mean fidelity, falling back to the total EPS estimate."""
        if self.simulation is not None and self.simulation.num_trajectories:
            return self.simulation.mean_fidelity
        return self.metrics.total_eps

    @property
    def std_error(self) -> float:
        return self.simulation.std_error if self.simulation is not None else 0.0

    def as_row(self) -> dict:
        """Return a flat dict suitable for CSV-style reporting.

        Adaptive simulations (:class:`~repro.noise.adaptive.AdaptiveResult`)
        append their extra columns through ``adaptive_row()`` — duck-typed,
        so this module never imports the opt-in estimator (rule STAT001) and
        fixed-count rows keep exactly their historical keys.
        """
        row = {
            "circuit": self.circuit_name,
            "num_qubits": self.num_qubits,
            "strategy": self.strategy.name,
            "duration_ns": self.metrics.duration_ns,
            "num_ops": self.metrics.num_ops,
            "gate_eps": self.metrics.gate_eps,
            "coherence_eps": self.metrics.coherence_eps,
            "total_eps": self.metrics.total_eps,
            "fidelity": self.mean_fidelity,
            "std_error": self.std_error,
        }
        extras = getattr(self.simulation, "adaptive_row", None)
        if callable(extras):
            row.update(extras())
        return row


def evaluate_strategy(
    circuit: QuantumCircuit,
    strategy: Strategy,
    error_model: ErrorModel | None = None,
    coherence: CoherenceModel | None = None,
    num_trajectories: int = 0,
    rng: np.random.Generator | int | None = None,
    batch_size: int | None = None,
) -> StrategyEvaluation:
    """Compile, estimate EPS and (optionally) simulate one strategy.

    ``num_trajectories = 0`` skips the trajectory simulation and relies on
    the EPS estimate alone — the same fall-back the paper uses for circuit
    sizes beyond its simulation memory budget.  ``batch_size`` is forwarded
    to :meth:`TrajectorySimulator.average_fidelity` (``None``: one-row blocks).
    """
    coherence = coherence or CoherenceModel()
    gate_set = GateSet(error_model=error_model)
    compiler = QuantumWaltzCompiler(gate_set=gate_set)
    compilation = compiler.compile(circuit, strategy=strategy)
    metrics = evaluate_metrics(compilation.physical_circuit, coherence)

    simulation = None
    if num_trajectories > 0:
        simulator = TrajectorySimulator(NoiseModel(coherence=coherence), rng=rng)
        simulation = simulator.average_fidelity(
            compilation.physical_circuit,
            num_trajectories=num_trajectories,
            batch_size=batch_size,
        )
    return StrategyEvaluation(
        circuit_name=circuit.name,
        num_qubits=circuit.num_qubits,
        strategy=strategy,
        compilation=compilation,
        metrics=metrics,
        simulation=simulation,
    )
