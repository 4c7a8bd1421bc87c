"""Quantum Waltz — compiling three-qubit gates on four-level architectures.

A reproduction of Litteken et al., ISCA 2023 (arXiv:2303.14069).  The package
provides:

* a qubit/qudit circuit IR (:mod:`repro.circuits`),
* the mixed-radix / full-ququart gate set with calibrated durations
  (:mod:`repro.core.gateset`),
* the Quantum Waltz compiler and its compilation strategies
  (:mod:`repro.core`),
* a transmon optimal-control substrate for direct-to-pulse gate synthesis
  (:mod:`repro.pulse`),
* a qudit noise model and trajectory simulator (:mod:`repro.noise`),
* the paper's benchmark workloads (:mod:`repro.workloads`) and evaluation
  drivers for every table and figure (:mod:`repro.experiments`).

Quickstart::

    from repro import QuantumCircuit, Strategy, compile_circuit, simulate_fidelity

    circuit = QuantumCircuit(3).h(0).ccx(0, 1, 2)
    result = compile_circuit(circuit, Strategy.MIXED_RADIX_CCZ)
    print(result.duration_ns, simulate_fidelity(result, num_trajectories=50).mean_fidelity)
"""

from repro.circuits import Gate, QuantumCircuit
from repro.core import (
    CompilationResult,
    ErrorModel,
    GateSet,
    QuantumWaltzCompiler,
    Strategy,
    compile_circuit,
    evaluate_metrics,
)
from repro.noise import NoiseModel, TrajectorySimulator, simulate_fidelity
from repro.topology import CoherenceModel, Device

__version__ = "1.0.0"

__all__ = [
    "CoherenceModel",
    "CompilationResult",
    "Device",
    "ErrorModel",
    "Gate",
    "GateSet",
    "NoiseModel",
    "QuantumCircuit",
    "QuantumWaltzCompiler",
    "Strategy",
    "TrajectorySimulator",
    "compile_circuit",
    "evaluate_metrics",
    "simulate_fidelity",
    "__version__",
]
