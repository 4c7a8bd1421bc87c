"""CuPy :class:`ArrayBackend` adapter (auto-detected, optional).

CuPy mirrors the numpy API, so every primitive is the numpy call with
``cupy`` substituted; the statevector block stays on the GPU across gate
kernels and only the scalar noise decisions cross the PCIe boundary.  The
module imports cleanly when cupy is absent — construction then raises
:class:`~repro.backends.base.BackendUnavailable` with an actionable message,
and adapter tests skip.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backends.base import ArrayBackend, BackendUnavailable

__all__ = ["CupyBackend"]


def _import_cupy():
    try:
        import cupy
    except ImportError as error:  # pragma: no cover - exercised without cupy
        raise BackendUnavailable(
            "the 'cupy' backend needs the cupy package (pip install cupy-cuda12x "
            "matching your CUDA toolkit); set REPRO_BACKEND=numpy to use the "
            "reference backend"
        ) from error
    return cupy


class CupyBackend(ArrayBackend):
    """GPU arrays through cupy's numpy-compatible API."""

    name = "cupy"
    host_memory = False

    def __init__(self) -> None:
        super().__init__()
        self._cp = _import_cupy()

    @classmethod
    def is_available(cls) -> bool:
        try:
            import cupy  # noqa: F401
        except ImportError:
            return False
        return True

    # -- host <-> device ---------------------------------------------------------
    def asarray(self, array: Any) -> Any:
        return self._cp.asarray(array, dtype=self._cp.complex128)

    def to_numpy(self, array: Any) -> np.ndarray:
        return self._cp.asnumpy(array)

    def asarray_constant(self, host_array: np.ndarray) -> Any:
        return self._cp.asarray(host_array)  # keep integer index dtypes

    # -- allocation --------------------------------------------------------------
    def empty_like(self, array: Any) -> Any:
        return self._cp.empty_like(array)

    def zeros_like(self, array: Any) -> Any:
        return self._cp.zeros_like(array)

    def copy(self, array: Any) -> Any:
        return array.copy()

    # -- shape manipulation ------------------------------------------------------
    def reshape(self, array: Any, shape: Sequence[int]) -> Any:
        return array.reshape(shape)

    def transpose(self, array: Any, axes: Sequence[int]) -> Any:
        return self._cp.transpose(array, axes)

    def ascontiguous(self, array: Any) -> Any:
        return self._cp.ascontiguousarray(array)

    # -- kernels -----------------------------------------------------------------
    def take_batch(self, states: Any, indices: Any, out: Any | None = None) -> Any:
        return self._cp.take(states, indices, axis=1, out=out)

    def multiply(self, a: Any, b: Any, out: Any | None = None) -> Any:
        return self._cp.multiply(a, b, out=out)

    def einsum(self, spec: str, *operands: Any, out: Any | None = None) -> Any:
        result = self._cp.einsum(spec, *operands)
        if out is None:
            return result
        out[...] = result  # cupy.einsum has no out= parameter
        return out

    def matmul(self, a: Any, b: Any) -> Any:
        return a @ b

    # -- bookkeeping -------------------------------------------------------------
    def synchronize(self) -> None:
        self._cp.cuda.get_current_stream().synchronize()
