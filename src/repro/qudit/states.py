"""Mixed-radix statevector utilities.

A *mixed-radix* register is a collection of physical devices whose Hilbert
space dimensions may differ — in this work, bare qubits (dimension 2) and
ququarts (dimension 4).  The joint state of ``n`` devices with dimensions
``dims = (d_0, ..., d_{n-1})`` is a complex vector of length
``prod(dims)`` whose basis states are labelled by tuples of per-device
levels, ordered with device 0 as the most significant "digit".

The functions in this module are deliberately free of any circuit or noise
semantics; they are the raw tensor algebra used by the simulator
(:mod:`repro.noise.trajectory`) and by unit tests that check gate
equivalences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "MixedRadixState",
    "UnitaryAxesPlan",
    "apply_unitary",
    "apply_unitary_batch",
    "basis_state",
    "fidelity",
    "index_to_levels",
    "levels_to_index",
    "state_dimension",
    "unitary_axes_plan",
]


@dataclass(frozen=True)
class UnitaryAxesPlan:
    """Precomputed transpose/reshape plan for applying a unitary to targets.

    Shared by :func:`apply_unitary` and :func:`apply_unitary_batch`, so the
    one-state and batched paths perform the same axis bookkeeping.
    """

    perm: tuple[int, ...]  # axes order bringing the targets to the front
    inverse: tuple[int, ...]  # argsort(perm), undoing the permutation
    op_dim: int  # product of the target dimensions
    rest_dim: int  # product of the non-target dimensions (excl. batch)
    permuted_shape: tuple[int, ...]  # shape after the GEMM, pre-inverse


def unitary_axes_plan(
    targets: Sequence[int], dims: Sequence[int], batch: int | None = None
) -> UnitaryAxesPlan:
    """Validate targets and build the axis plan (``batch=None``: one state).

    For a batched plan the batch axis of the ``(batch,) + dims`` tensor is
    kept immediately after the target axes, matching the layout
    :func:`apply_unitary_batch` has always used.
    """
    dims = tuple(dims)
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target devices: {targets}")
    for t in targets:
        if not 0 <= t < len(dims):
            raise ValueError(f"target {t} out of range for {len(dims)} devices")
    target_dims = tuple(dims[t] for t in targets)
    op_dim = math.prod(target_dims)
    n = len(dims)
    if batch is None:
        rest = [axis for axis in range(n) if axis not in targets]
        perm = tuple(targets) + tuple(rest)
        permuted_shape = target_dims + tuple(dims[axis] for axis in rest)
    else:
        rest = [axis for axis in range(1, n + 1) if axis - 1 not in targets]
        perm = tuple(t + 1 for t in targets) + (0,) + tuple(rest)
        permuted_shape = target_dims + (batch,) + tuple(dims[axis - 1] for axis in rest)
    if batch is None:
        rest_dims = [dims[axis] for axis in rest]
    else:
        rest_dims = [dims[axis - 1] for axis in rest]
    rest_dim = int(np.prod(rest_dims, dtype=np.int64)) if rest_dims else 1
    inverse = tuple(int(axis) for axis in np.argsort(perm))
    return UnitaryAxesPlan(
        perm=perm,
        inverse=inverse,
        op_dim=op_dim,
        rest_dim=rest_dim,
        permuted_shape=permuted_shape,
    )


def state_dimension(dims: Sequence[int]) -> int:
    """Return the total Hilbert-space dimension for per-device ``dims``."""
    total = 1
    for d in dims:
        if d < 2:
            raise ValueError(f"every device dimension must be >= 2, got {d}")
        total *= d
    return total


def levels_to_index(levels: Sequence[int], dims: Sequence[int]) -> int:
    """Convert per-device levels to a flat basis-state index.

    Device 0 is the most significant digit, matching ``numpy.reshape`` of the
    flat statevector into shape ``dims``.

    >>> levels_to_index((1, 0), (2, 2))
    2
    >>> levels_to_index((3, 1), (4, 2))
    7
    """
    if len(levels) != len(dims):
        raise ValueError("levels and dims must have the same length")
    index = 0
    for level, dim in zip(levels, dims):
        if not 0 <= level < dim:
            raise ValueError(f"level {level} out of range for dimension {dim}")
        index = index * dim + level
    return index


def index_to_levels(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Convert a flat basis-state index to per-device levels.

    >>> index_to_levels(7, (4, 2))
    (3, 1)
    """
    total = state_dimension(dims)
    if not 0 <= index < total:
        raise ValueError(f"index {index} out of range for dims {tuple(dims)}")
    levels = []
    for dim in reversed(dims):
        levels.append(index % dim)
        index //= dim
    return tuple(reversed(levels))


def basis_state(levels: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Return the computational basis state ``|levels>`` as a statevector."""
    vec = np.zeros(state_dimension(dims), dtype=np.complex128)
    vec[levels_to_index(levels, dims)] = 1.0
    return vec


def fidelity(state_a: np.ndarray, state_b: np.ndarray) -> float:
    """Return ``|<a|b>|^2`` for two pure statevectors."""
    if state_a.shape != state_b.shape:
        raise ValueError("states must have the same dimension")
    return float(abs(np.vdot(state_a, state_b)) ** 2)


def apply_unitary(
    state: np.ndarray,
    unitary: np.ndarray,
    targets: Sequence[int],
    dims: Sequence[int],
) -> np.ndarray:
    """Apply ``unitary`` to the ``targets`` devices of a mixed-radix state.

    Parameters
    ----------
    state:
        Flat statevector of length ``prod(dims)``.
    unitary:
        Square matrix whose dimension equals the product of the target
        devices' dimensions, with the *first* target as the most significant
        digit of the operator's own basis ordering.
    targets:
        Indices of the devices acted on, in operator order.
    dims:
        Per-device dimensions of the full register.

    Returns
    -------
    numpy.ndarray
        The new statevector (a fresh array; the input is not modified).
    """
    dims = tuple(dims)
    targets = tuple(targets)
    plan = unitary_axes_plan(targets, dims)
    if unitary.shape != (plan.op_dim, plan.op_dim):
        raise ValueError(
            f"unitary shape {unitary.shape} does not match target dims "
            f"{tuple(dims[t] for t in targets)} (expected {(plan.op_dim, plan.op_dim)})"
        )

    tensor = np.asarray(state, dtype=np.complex128).reshape(dims)
    # Move the target axes to the front, contract, then move them back.
    tensor = np.transpose(tensor, plan.perm)
    tensor = tensor.reshape(plan.op_dim, plan.rest_dim)
    tensor = unitary @ tensor
    tensor = tensor.reshape(plan.permuted_shape)
    tensor = np.transpose(tensor, plan.inverse)
    return tensor.reshape(-1)


def apply_unitary_batch(
    states: np.ndarray,
    unitary: np.ndarray,
    targets: Sequence[int],
    dims: Sequence[int],
) -> np.ndarray:
    """Apply ``unitary`` to the ``targets`` devices of a batch of states.

    ``states`` has shape ``(batch, prod(dims))``; the operation is the batch
    analogue of :func:`apply_unitary` and produces, for every row, exactly
    the same floating-point result as applying :func:`apply_unitary` to that
    row alone (each batch slice goes through an identical GEMM), which is
    what lets the batched trajectory engine match the sequential loop
    simulator bit for bit.
    """
    dims = tuple(dims)
    targets = tuple(targets)
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2:
        raise ValueError("states must be a (batch, dim) array")
    batch = states.shape[0]
    plan = unitary_axes_plan(targets, dims, batch=batch)
    if unitary.shape != (plan.op_dim, plan.op_dim):
        raise ValueError(
            f"unitary shape {unitary.shape} does not match target dims "
            f"{tuple(dims[t] for t in targets)} (expected {(plan.op_dim, plan.op_dim)})"
        )
    tensor = states.reshape((batch,) + dims)
    tensor = np.transpose(tensor, plan.perm)
    tensor = tensor.reshape(plan.op_dim, -1)
    tensor = unitary @ tensor
    tensor = tensor.reshape(plan.permuted_shape)
    tensor = np.transpose(tensor, plan.inverse)
    return np.ascontiguousarray(tensor).reshape(batch, -1)


@dataclass
class MixedRadixState:
    """A convenience wrapper bundling a statevector with its device dims.

    The heavy lifting is done by the free functions in this module; this
    class exists so that simulator code can pass a single object around and
    so that examples read naturally::

        state = MixedRadixState.ground((4, 2))
        state = state.apply(ccx_unitary, targets=(0, 1))
    """

    vector: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        self.dims = tuple(self.dims)
        self.vector = np.asarray(self.vector, dtype=np.complex128)
        expected = state_dimension(self.dims)
        if self.vector.shape != (expected,):
            raise ValueError(
                f"vector length {self.vector.shape} does not match dims "
                f"{self.dims} (expected {expected})"
            )

    # -- constructors ------------------------------------------------------
    @classmethod
    def ground(cls, dims: Sequence[int]) -> "MixedRadixState":
        """Return ``|0...0>`` over devices with the given dimensions."""
        return cls(basis_state([0] * len(dims), dims), tuple(dims))

    @classmethod
    def from_levels(
        cls, levels: Sequence[int], dims: Sequence[int]
    ) -> "MixedRadixState":
        """Return the computational basis state with the given levels."""
        return cls(basis_state(levels, dims), tuple(dims))

    # -- queries ------------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.dims)

    def norm(self) -> float:
        """Return the 2-norm of the statevector."""
        return float(np.linalg.norm(self.vector))

    def probabilities(self) -> np.ndarray:
        """Return the basis-state probability distribution."""
        return np.abs(self.vector) ** 2

    def probability_of(self, levels: Sequence[int]) -> float:
        """Return the probability of measuring the given per-device levels."""
        return float(self.probabilities()[levels_to_index(levels, self.dims)])

    def fidelity(self, other: "MixedRadixState | np.ndarray") -> float:
        """Return ``|<self|other>|^2``."""
        other_vec = other.vector if isinstance(other, MixedRadixState) else other
        return fidelity(self.vector, np.asarray(other_vec))

    def level_populations(self, device: int) -> np.ndarray:
        """Return the marginal level populations of a single device."""
        tensor = self.vector.reshape(self.dims)
        axes = tuple(ax for ax in range(self.num_devices) if ax != device)
        probs = np.abs(tensor) ** 2
        return probs.sum(axis=axes)

    # -- evolution ----------------------------------------------------------
    def apply(
        self, unitary: np.ndarray, targets: Sequence[int]
    ) -> "MixedRadixState":
        """Return a new state with ``unitary`` applied to ``targets``."""
        return MixedRadixState(
            apply_unitary(self.vector, unitary, targets, self.dims), self.dims
        )

    def renormalized(self) -> "MixedRadixState":
        """Return the state scaled to unit norm (used after Kraus updates)."""
        norm = self.norm()
        if norm == 0.0:
            raise ValueError("cannot renormalize the zero vector")
        return MixedRadixState(self.vector / norm, self.dims)

    def copy(self) -> "MixedRadixState":
        return MixedRadixState(self.vector.copy(), self.dims)
