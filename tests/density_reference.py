"""Exact density-matrix reference for the trajectory engine (a test oracle).

Every other equivalence gate compares one execution path of the engine with
another.  A physics error that all paths share (the no-jump scaling of an
idle window, the damping jump, the depolarizing operator set) passes all of
them.  This module evolves the density matrix ``rho`` exactly through the
steps of an *unfused* compiled program, so the trajectory mean can be
checked against the channel it is supposed to unravel.

It shares only the step list (schedule, error dimensions and rates, idle
durations) and the model's Kraus definitions with the engine:

* an op applies ``U rho U^dagger`` with :func:`apply_unitary` on the op's
  embedded unitary,
* an idle window applies ``NoiseModel.idle_kraus`` on the idle device,
* a depolarizing error applies ``(1 - p) rho + p/K sum_k E_k rho E_k^dagger``
  over the ``K`` operators of ``depolarizing_operators(error_dims)``; a
  qubit-mode factor ``F`` on a ququart is lifted here onto the ququart's
  slot-1 qubit, its low level bit: ``I_2 (x) F``.

It never calls the engine's sampler, ``_sample_error_indices`` or
``_error_factor``.  ``rho`` lives on the full physical register, whatever
register the engine simulates.

Channels act on ``rho`` flattened over the doubled register
``dims + dims`` (row axes, then column axes): a superoperator
``S = sum_k kron(K_k, conj(K_k))`` is one :func:`apply_unitary` call on the
row and column axes of its devices.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.encoding import embed_logical_state
from repro.core.physical import PhysicalCircuit
from repro.noise.channels import depolarizing_operators
from repro.noise.model import NoiseModel
from repro.noise.program import GateStep, compile_program
from repro.qudit.states import apply_unitary

__all__ = [
    "exact_final_rho",
    "haar_average_fidelity",
    "device_level_populations",
    "state_fidelity",
]


# ---------------------------------------------------------------------------
# the error operators, built here from the public operator set
# ---------------------------------------------------------------------------


def _lift(factor: np.ndarray, err_dim: int, actual_dim: int) -> np.ndarray:
    """A single-device error factor of dimension ``err_dim`` on ``actual_dim`` levels."""
    if err_dim == actual_dim:
        return factor
    if err_dim == 2 and actual_dim == 4:
        # A qubit-mode ququart keeps its qubit in slot 1: level = 2 * slot0 + slot1.
        return np.kron(np.eye(2), factor)
    raise ValueError(f"no lift from {err_dim} to {actual_dim} levels")


@lru_cache(maxsize=None)
def _error_superoperator(
    error_dims: tuple[int, ...], actual_dims: tuple[int, ...], rate: float
) -> np.ndarray:
    """``(1 - p) I + p/K sum_k kron(E_k, conj(E_k))`` over the lifted error set.

    The set is ``depolarizing_operators(error_dims)``.  Each element is a
    product of per-device factors, so it is rebuilt here from the per-device
    options (identity first) in the same enumeration order, checked equal
    to the library's element, and lifted factor by factor.
    """
    operators = depolarizing_operators(error_dims)
    options = [[np.eye(dim, dtype=np.complex128)] + depolarizing_operators((dim,)) for dim in error_dims]
    combos = [()]
    for device_options in options:
        combos = [combo + (choice,) for combo in combos for choice in range(len(device_options))]
    combos = [combo for combo in combos if any(combo)]  # drop all-identity
    assert len(combos) == len(operators)
    m = math.prod(actual_dims)
    superop = np.zeros((m * m, m * m), dtype=np.complex128)
    for operator, combo in zip(operators, combos):
        plain = np.ones((1, 1), dtype=np.complex128)
        lifted = np.ones((1, 1), dtype=np.complex128)
        for device, choice in enumerate(combo):
            factor = options[device][choice]
            plain = np.kron(plain, factor)
            lifted = np.kron(lifted, _lift(factor, error_dims[device], actual_dims[device]))
        assert np.array_equal(plain, operator)
        superop += np.kron(lifted, lifted.conj())
    superop *= rate / len(operators)
    superop += (1.0 - rate) * np.eye(m * m)
    return superop


def _kraus_superoperator(kraus: Sequence[np.ndarray]) -> np.ndarray:
    return sum(np.kron(k, k.conj()) for k in kraus)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def _apply_superoperator(rho, superop, targets, dims):
    n = len(dims)
    doubled = tuple(targets) + tuple(t + n for t in targets)
    return apply_unitary(rho, superop, doubled, dims + dims)


def _apply_op(rho, unitary, targets, dims):
    n = len(dims)
    rho = apply_unitary(rho, unitary, targets, dims + dims)
    return apply_unitary(rho, unitary.conj(), tuple(t + n for t in targets), dims + dims)


def _evolve(
    physical: PhysicalCircuit,
    noise_model: NoiseModel,
    rho: np.ndarray,
    dims: tuple[int, ...],
) -> np.ndarray:
    """Evolve a flat ``rho`` over ``dims + dims`` through the noisy program.

    ``dims`` may extend the physical register with untouched reference
    devices after it (the Haar average below uses one).
    """
    program = compile_program(physical, noise_model, fuse=False)
    physical_dims = tuple(physical.device_dims)
    for step in program.steps:
        if isinstance(step, GateStep):
            devices = step.op.devices
            rho = _apply_op(rho, physical.op_unitary(step.op), devices, dims)
            if step.error_dims is not None:
                actual = tuple(physical_dims[d] for d in devices)
                superop = _error_superoperator(step.error_dims, actual, step.error_rate)
                rho = _apply_superoperator(rho, superop, devices, dims)
        else:
            kraus = noise_model.idle_kraus(physical_dims[step.device], step.idle_ns)
            rho = _apply_superoperator(rho, _kraus_superoperator(kraus), (step.device,), dims)
    return rho


def _ideal(physical: PhysicalCircuit, state: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    for op in physical.ops:
        state = apply_unitary(state, physical.op_unitary(op), op.devices, dims)
    return state


def exact_final_rho(
    physical: PhysicalCircuit, noise_model: NoiseModel, state: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(rho, ideal)``: the noisy final density matrix and the ideal final state.

    ``state`` is a flat statevector on the full physical register; ``rho``
    comes back as a ``(dim, dim)`` matrix.
    """
    dims = tuple(physical.device_dims)
    state = np.asarray(state, dtype=np.complex128)
    rho = np.outer(state, state.conj()).reshape(-1)
    rho = _evolve(physical, noise_model, rho, dims)
    dim = state.size
    return rho.reshape(dim, dim), _ideal(physical, state, dims)


def state_fidelity(rho: np.ndarray, ideal: np.ndarray) -> float:
    """``<ideal| rho |ideal>``."""
    return float(np.real(np.vdot(ideal, rho @ ideal)))


def device_level_populations(rho: np.ndarray, dims: Sequence[int]) -> list[np.ndarray]:
    """Per-device level populations (the diagonal's marginals) of ``rho``."""
    diagonal = np.real(np.diagonal(rho)).reshape(tuple(dims))
    axes = range(len(dims))
    return [diagonal.sum(axis=tuple(a for a in axes if a != device)) for device in axes]


def haar_average_fidelity(physical: PhysicalCircuit, noise_model: NoiseModel) -> float:
    """The exact mean fidelity over Haar-random logical inputs.

    With ``|i>`` the embedded logical basis states, ``U`` the ideal circuit
    and ``Lambda`` the noisy channel, the average is
    ``(sum_ij <Ui|Lambda(|i><j|)|Uj> + sum_ij <Uj|Lambda(|i><i|)|Uj>) / (d (d+1))``.
    All ``d^2`` evolutions run at once: a reference device of dimension
    ``d`` is appended to the register, and ``Lambda (x) id`` is applied to
    ``|Phi><Phi|`` with ``|Phi> = sum_i |i>|i>_R``.
    """
    placement = physical.initial_placement
    num_qubits = physical.num_logical_qubits
    physical_dims = tuple(physical.device_dims)
    d = 2**num_qubits
    dims = physical_dims + (d,)
    phi = np.zeros((math.prod(physical_dims), d), dtype=np.complex128)
    for i in range(d):
        basis = np.zeros(d, dtype=np.complex128)
        basis[i] = 1.0
        phi[:, i] = embed_logical_state(basis, placement, physical_dims)
    phi = phi.reshape(-1)
    choi = _evolve(physical, noise_model, np.outer(phi, phi.conj()).reshape(-1), dims)
    size = phi.size
    choi = choi.reshape(size, size)
    psi_u = _ideal(physical, phi, dims)
    first = np.real(np.vdot(psi_u, choi @ psi_u))
    # sum_ij <Uj|Lambda(|i><i|)|Uj> = Tr(P_U Tr_R(C)), P_U = sum_j |Uj><Uj|.
    u_columns = psi_u.reshape(-1, d)
    reduced = np.trace(choi.reshape(size // d, d, size // d, d), axis1=1, axis2=3)
    second = np.real(np.trace(u_columns.conj().T @ reduced @ u_columns))
    return float((first + second) / (d * (d + 1)))
