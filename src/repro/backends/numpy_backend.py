"""Reference :class:`ArrayBackend` on host numpy arrays.

Every primitive maps to the numpy call the kernels used before the backend
abstraction existed, so routing through this backend is bit-for-bit
identical to the historical hard-coded path (enforced by
``tests/test_backends.py``).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backends.base import ArrayBackend
from repro.qudit.states import apply_unitary, apply_unitary_batch

__all__ = ["NumpyBackend"]


class NumpyBackend(ArrayBackend):
    """Host numpy arrays; ``asarray``/``to_numpy`` avoid copies when possible."""

    name = "numpy"
    host_memory = True

    @classmethod
    def is_available(cls) -> bool:
        return True

    # -- host <-> device ---------------------------------------------------------
    def asarray(self, array: Any) -> np.ndarray:
        return np.asarray(array, dtype=np.complex128)

    def to_numpy(self, array: Any) -> np.ndarray:
        return np.asarray(array)

    def constant(self, host_array: np.ndarray) -> np.ndarray:
        # Already in host memory: share directly, skipping the device cache
        # (which would only pin the array and cost a lookup per kernel).
        return host_array

    def asarray_constant(self, host_array: np.ndarray) -> np.ndarray:
        return host_array

    # -- allocation --------------------------------------------------------------
    def empty_like(self, array: np.ndarray) -> np.ndarray:
        return np.empty_like(array)

    def zeros_like(self, array: np.ndarray) -> np.ndarray:
        return np.zeros_like(array)

    def copy(self, array: np.ndarray) -> np.ndarray:
        return array.copy()

    # -- shape manipulation ------------------------------------------------------
    def reshape(self, array: np.ndarray, shape: Sequence[int]) -> np.ndarray:
        return array.reshape(shape)

    def transpose(self, array: np.ndarray, axes: Sequence[int]) -> np.ndarray:
        return np.transpose(array, axes)

    def ascontiguous(self, array: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(array)

    # -- kernels -----------------------------------------------------------------
    def take_batch(self, states: np.ndarray, indices: np.ndarray, out=None) -> np.ndarray:
        # mode="clip" gathers straight into ``out``; the default mode="raise"
        # always gathers into a buffer and copies it over.  The indices are in
        # range by contract, so clipping never fires; an aliased ``out`` would
        # make numpy buffer again, so it is refused outright.
        if out is not None and np.may_share_memory(states, out):
            raise ValueError("take_batch: out must not overlap states")
        return np.take(states, indices, axis=1, out=out, mode="clip")

    def multiply(self, a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
        return np.multiply(a, b, out=out)

    def einsum(self, spec: str, *operands: np.ndarray, out=None) -> np.ndarray:
        if out is None:
            return np.einsum(spec, *operands)
        return np.einsum(spec, *operands, out=out)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b

    # -- generic dense unitary ---------------------------------------------------
    def apply_unitary(self, state, unitary, targets, dims):
        return apply_unitary(state, unitary, targets, dims)

    def apply_unitary_batch(self, states, unitary, targets, dims):
        return apply_unitary_batch(states, unitary, targets, dims)
