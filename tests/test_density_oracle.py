"""The trajectory engine's mean against an exact density-matrix evolution.

:mod:`density_reference` evolves ``rho`` exactly through the unfused
program; here the engine's trajectory mean must land within a few standard
errors of it, at fixed seeds:

* **fixed input** — one embedded Haar-random logical state for every
  trajectory; the mean fidelity to the ideal output and every device's
  mean level populations are compared,
* **Haar average** — the default sampler's mean fidelity against the exact
  average over Haar-random logical inputs,

for toffoli, cnu-3 and qram-3 under all nine strategies, plus stressed
cases whose error mechanisms are strong enough to show a wrong unravelling:
an 80x shorter T1 (``base_t1_ns=2000``) and one ququart whose gate draws a
depolarizing error half the time.  The adaptive estimator
(``average_fidelity(target_stderr=...)``) is held to the exact Haar average
on the stressed cases, within ``Z_BOUND`` of the standard error it reports.

Out of scope: hypothesis-drawn circuits.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.core.compiler import compile_circuit
from repro.core.encoding import embed_logical_state
from repro.core.gateset import GateClass
from repro.core.physical import PhysicalCircuit, PhysicalOp
from repro.core.strategies import Strategy
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.model import NoiseModel
from repro.noise.trajectory import TrajectorySimulator, _default_state_sampler
from repro.qudit.random import haar_random_state
from repro.topology.device import CoherenceModel
from repro.workloads import workload_by_name

from density_reference import (
    device_level_populations,
    exact_final_rho,
    haar_average_fidelity,
    state_fidelity,
)

#: Standard errors a mean may sit from the exact value.
Z_BOUND = 4.5
TRAJECTORIES = 1500
STRESSED = NoiseModel(coherence=CoherenceModel(base_t1_ns=2000.0))


def _toffoli() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="oracle-toffoli")
    circuit.h(0)
    circuit.h(1)
    circuit.ccx(0, 1, 2)
    return circuit


@lru_cache(maxsize=None)
def _physical(name: str, strategy: Strategy) -> PhysicalCircuit:
    circuit = _toffoli() if name == "toffoli" else workload_by_name(*name.split("-")[:1], 3)
    return compile_circuit(circuit, strategy).physical_circuit


def _check_mean(samples: np.ndarray, exact: float, label: str) -> None:
    """The sample mean lies within ``Z_BOUND`` standard errors of ``exact``.

    The standard error is floored at ``1/n``: an effect rarer than one in
    ``n`` trajectories may not show up in the samples at all.
    """
    n = samples.shape[0]
    stderr = max(float(np.std(samples, ddof=1)) / np.sqrt(n), 1.0 / n)
    z = (float(np.mean(samples)) - exact) / stderr
    assert abs(z) <= Z_BOUND, f"{label}: mean {np.mean(samples):.6f} vs exact {exact:.6f} (z={z:.1f})"


def _check_fixed_input(physical, noise_model, state, count, seed, label):
    dims = tuple(physical.device_dims)
    rho, ideal = exact_final_rho(physical, noise_model, state)
    engine = BatchedTrajectoryEngine(physical, noise_model)
    streams = np.random.default_rng(seed).spawn(count)
    noisy = engine.run_trajectories(np.repeat(state[None, :], count, axis=0), streams)
    overlaps = noisy @ ideal.conj()
    _check_mean(np.abs(overlaps) ** 2, state_fidelity(rho, ideal), f"{label} fidelity")
    amplitudes = np.abs(noisy.reshape((count,) + dims)) ** 2
    for device, exact in enumerate(device_level_populations(rho, dims)):
        others = tuple(1 + a for a in range(len(dims)) if a != device)
        populations = amplitudes.sum(axis=others)
        for level, value in enumerate(exact):
            _check_mean(populations[:, level], float(value), f"{label} device {device} |{level}>")


def _check_haar(physical, noise_model, count, seed, label):
    engine = BatchedTrajectoryEngine(physical, noise_model)
    streams = np.random.default_rng(seed).spawn(count)
    fidelities = np.array(engine.run_fidelities(streams, _default_state_sampler(physical)))
    _check_mean(fidelities, haar_average_fidelity(physical, noise_model), f"{label} Haar")


def _fixed_state(physical, seed):
    logical = haar_random_state(2**physical.num_logical_qubits, np.random.default_rng(seed))
    return embed_logical_state(logical, physical.initial_placement, physical.device_dims)


CASES = [(name, strategy) for name in ("toffoli", "cnu-3", "qram-3") for strategy in Strategy]


@pytest.mark.parametrize("name,strategy", CASES, ids=[f"{name}-{strategy.name}" for name, strategy in CASES])
def test_fixed_input_matches_exact_rho(name, strategy):
    physical = _physical(name, strategy)
    state = _fixed_state(physical, 3)
    _check_fixed_input(physical, NoiseModel(), state, TRAJECTORIES, 17, name)


@pytest.mark.parametrize("name,strategy", CASES, ids=[f"{name}-{strategy.name}" for name, strategy in CASES])
def test_haar_average_matches_exact(name, strategy):
    physical = _physical(name, strategy)
    _check_haar(physical, NoiseModel(), TRAJECTORIES, 29, name)


STRESSED_CASES = (Strategy.FULL_QUQUART, Strategy.MIXED_RADIX_CCZ, Strategy.QUBIT_ONLY)


@pytest.mark.parametrize("strategy", STRESSED_CASES, ids=[s.name for s in STRESSED_CASES])
def test_stressed_t1_matches_exact(strategy):
    """80x stronger damping: the no-jump scaling and the jump target show."""
    physical = _physical("toffoli", strategy)
    state = _fixed_state(physical, 5)
    _check_fixed_input(physical, STRESSED, state, 4000, 41, f"stressed {strategy.name}")
    _check_haar(physical, STRESSED, 4000, 43, f"stressed {strategy.name}")


@pytest.mark.parametrize("strategy", STRESSED_CASES, ids=[s.name for s in STRESSED_CASES])
def test_stressed_adaptive_estimate_matches_exact(strategy):
    """The adaptive estimate sits within its own reported standard error."""
    physical = _physical("toffoli", strategy)
    result = TrajectorySimulator(STRESSED, rng=47).average_fidelity(
        physical, num_trajectories=4096, target_stderr=0.003
    )
    assert result.converged, f"stressed {strategy.name}: {result.n_used} trajectories, not converged"
    exact = haar_average_fidelity(physical, STRESSED)
    z = (result.estimate - exact) / result.stderr
    assert abs(z) <= Z_BOUND, (
        f"stressed {strategy.name} adaptive: estimate {result.estimate:.6f} vs exact {exact:.6f} "
        f"(reported stderr {result.stderr:.6f}, z={z:.1f})"
    )


def _noisy_ququart() -> PhysicalCircuit:
    """One ququart in full-level mode whose X draws an error half the time."""
    physical = PhysicalCircuit(1, device_dims=4, name="oracle-noisy-ququart")
    physical.initial_modes[0] = 3
    physical.append(
        PhysicalOp(
            label="X",
            logical_name="X",
            devices=(0,),
            operand_slots=((0, 1),),
            duration_ns=100.0,
            error_rate=0.5,
            gate_class=GateClass.SINGLE_QUQUART,
        )
    )
    return physical


def test_depolarizing_operator_set_matches_exact():
    """Each of the 15 ququart Weyl errors lands where the exact channel puts it."""
    physical = _noisy_ququart()
    state = np.zeros(4, dtype=np.complex128)
    state[0] = 1.0
    _check_fixed_input(physical, NoiseModel(), state, 20000, 7, "noisy ququart |0>")
    spread = np.full(4, 0.5, dtype=np.complex128)
    _check_fixed_input(physical, NoiseModel(), spread, 20000, 8, "noisy ququart |+>")
