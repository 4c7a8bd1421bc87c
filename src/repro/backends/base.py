"""The :class:`ArrayBackend` protocol behind the statevector kernels.

A backend owns the array type the trajectory kernels operate on and exposes
exactly the primitives those kernels use (gather, broadcast multiply, einsum,
GEMM, reshape/transpose).  The numpy reference backend
(:mod:`repro.backends.numpy_backend`) maps every primitive to the identical
numpy call the kernels made before the abstraction existed, so the default
path is bit-for-bit unchanged; accelerator adapters
(:mod:`repro.backends.cupy_backend`, :mod:`repro.backends.torch_backend`)
keep the statevector block on the device across gate kernels and only cross
the host boundary for the (tiny, scalar) stochastic noise decisions.

Backends also memoize host→device transfers of compile-time constants
(gather indices, phase tensors, unitaries) per source array, so a compiled
:class:`~repro.noise.program.TrajectoryProgram` is shipped to the device once
per program, not once per trajectory.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

__all__ = ["ArrayBackend", "BackendUnavailable"]


class BackendUnavailable(RuntimeError):
    """Raised when a requested backend's library is not importable."""


#: Device-constant cache entries kept per backend instance before the cache
#: resets.  One compiled program holds at most a few hundred constants; the
#: cap only matters for very long-lived processes cycling through many
#: programs, where it bounds pinned device memory.
_MAX_CONSTANT_ENTRIES = 4096


class ArrayBackend:
    """Primitive array operations the trajectory kernels dispatch through.

    Subclasses implement the primitives for one array library.  ``xp`` is the
    backing array module for numpy-API-compatible libraries (numpy, cupy);
    adapters for libraries with a different calling convention (torch)
    override the individual methods instead.
    """

    #: Registry name ("numpy", "cupy", "torch").
    name: str = "abstract"
    #: True when arrays live in host memory as plain ``numpy.ndarray``s, so
    #: the executors may hand them straight to the host-side noise helpers.
    host_memory: bool = False

    def __init__(self) -> None:
        # id(host_array) -> (host_array, device_array): the strong reference
        # to the host array keeps the id stable for the cache's lifetime.
        self._constant_cache: dict[int, tuple[np.ndarray, Any]] = {}

    # -- availability ------------------------------------------------------------
    @classmethod
    def is_available(cls) -> bool:
        """Whether the backing library can be imported (cheaply checked)."""
        raise NotImplementedError

    def spawn_spec(self) -> tuple[str, dict]:
        """``(registry name, constructor kwargs)`` to rebuild this backend
        in a worker process.  Backends with constructor state (e.g. a device
        selection) override this so workers reproduce it exactly."""
        return self.name, {}

    # -- host <-> device ---------------------------------------------------------
    def asarray(self, array: Any) -> Any:
        """Copy/move a host array onto the backend's device as complex128."""
        raise NotImplementedError

    def to_numpy(self, array: Any) -> np.ndarray:
        """Return a host ``numpy.ndarray`` view/copy of a device array."""
        raise NotImplementedError

    def constant(self, host_array: np.ndarray) -> Any:
        """Device copy of a compile-time constant, memoized per source array."""
        key = id(host_array)
        hit = self._constant_cache.get(key)
        if hit is not None and hit[0] is host_array:
            return hit[1]
        device_array = self.asarray_constant(host_array)
        if len(self._constant_cache) >= _MAX_CONSTANT_ENTRIES:
            self._constant_cache.clear()
        self._constant_cache[key] = (host_array, device_array)
        return device_array

    def asarray_constant(self, host_array: np.ndarray) -> Any:
        """Transfer one constant (indices may be integer dtyped)."""
        raise NotImplementedError

    # -- allocation --------------------------------------------------------------
    def empty_like(self, array: Any) -> Any:
        raise NotImplementedError

    def zeros_like(self, array: Any) -> Any:
        raise NotImplementedError

    def copy(self, array: Any) -> Any:
        raise NotImplementedError

    # -- shape manipulation ------------------------------------------------------
    def reshape(self, array: Any, shape: Sequence[int]) -> Any:
        raise NotImplementedError

    def transpose(self, array: Any, axes: Sequence[int]) -> Any:
        raise NotImplementedError

    def ascontiguous(self, array: Any) -> Any:
        raise NotImplementedError

    # -- kernels -----------------------------------------------------------------
    def take_batch(self, states: Any, indices: Any, out: Any | None = None) -> Any:
        """Axis-1 gather of a 3-D ``(rows, span, right)`` block.

        ``out[r, j, k] = states[r, indices[j], k]``.  Callers guarantee
        ``0 <= indices < span`` (kernels range-check their indices once, when
        they are built), so implementations may skip bounds checks; ``out``,
        when given, must not overlap ``states``.
        """
        raise NotImplementedError

    def multiply(self, a: Any, b: Any, out: Any | None = None) -> Any:
        raise NotImplementedError

    def einsum(self, spec: str, *operands: Any, out: Any | None = None) -> Any:
        raise NotImplementedError

    def matmul(self, a: Any, b: Any) -> Any:
        raise NotImplementedError

    # -- generic dense unitary ---------------------------------------------------
    def apply_unitary(
        self,
        state: Any,
        unitary: Any,
        targets: Sequence[int],
        dims: Sequence[int],
    ) -> Any:
        """Dense transpose+GEMM application to one flat statevector.

        Mirrors :func:`repro.qudit.states.apply_unitary` step for step using
        the backend primitives; the numpy backend overrides this with the
        original function so the reference path stays byte-identical.
        """
        from repro.qudit.states import unitary_axes_plan

        plan = unitary_axes_plan(targets, dims)
        tensor = self.reshape(state, dims)
        tensor = self.transpose(tensor, plan.perm)
        tensor = self.reshape(self.ascontiguous(tensor), (plan.op_dim, plan.rest_dim))
        tensor = self.matmul(unitary, tensor)
        tensor = self.reshape(tensor, plan.permuted_shape)
        tensor = self.transpose(tensor, plan.inverse)
        return self.reshape(self.ascontiguous(tensor), (-1,))

    def apply_unitary_batch(
        self,
        states: Any,
        unitary: Any,
        targets: Sequence[int],
        dims: Sequence[int],
    ) -> Any:
        """Batched analogue of :meth:`apply_unitary` over ``(batch, dim)``."""
        from repro.qudit.states import unitary_axes_plan

        batch = states.shape[0]
        plan = unitary_axes_plan(targets, dims, batch=batch)
        tensor = self.reshape(states, (batch,) + tuple(dims))
        tensor = self.transpose(tensor, plan.perm)
        tensor = self.reshape(self.ascontiguous(tensor), (plan.op_dim, -1))
        tensor = self.matmul(unitary, tensor)
        tensor = self.reshape(tensor, plan.permuted_shape)
        tensor = self.transpose(tensor, plan.inverse)
        return self.reshape(self.ascontiguous(tensor), (batch, -1))

    # -- bookkeeping -------------------------------------------------------------
    def synchronize(self) -> None:
        """Block until queued device work is complete (no-op on host)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
