"""PyTorch :class:`ArrayBackend` adapter (auto-detected, optional).

Uses complex128 tensors on ``REPRO_TORCH_DEVICE`` (default: "cuda" when
available, else "cpu").  Torch's calling conventions differ from numpy's
(``permute`` instead of ``transpose``, ``index_select`` instead of ``take``
along an axis), so each primitive is adapted individually.  The module
imports cleanly when torch is absent — construction then raises
:class:`~repro.backends.base.BackendUnavailable`, and adapter tests skip.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.backends.base import ArrayBackend, BackendUnavailable
from repro.core import env

__all__ = ["TorchBackend"]


def _import_torch():
    try:
        import torch
    except ImportError as error:  # pragma: no cover - exercised without torch
        raise BackendUnavailable(
            "the 'torch' backend needs the torch package (pip install torch); "
            "set REPRO_BACKEND=numpy to use the reference backend"
        ) from error
    return torch


class TorchBackend(ArrayBackend):
    """complex128 torch tensors on CPU or CUDA."""

    name = "torch"
    host_memory = False

    def __init__(self, device: str | None = None) -> None:
        super().__init__()
        torch = _import_torch()
        self._torch = torch
        if device is None:
            device = env.read_raw("REPRO_TORCH_DEVICE")
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = torch.device(device)

    @classmethod
    def is_available(cls) -> bool:
        try:
            import torch  # noqa: F401
        except ImportError:
            return False
        return True

    def spawn_spec(self) -> tuple[str, dict]:
        return self.name, {"device": str(self.device)}

    # -- host <-> device ---------------------------------------------------------
    def asarray(self, array: Any) -> Any:
        torch = self._torch
        if isinstance(array, torch.Tensor):
            return array.to(device=self.device, dtype=torch.complex128)
        return torch.as_tensor(
            np.asarray(array, dtype=np.complex128), device=self.device
        )

    def to_numpy(self, array: Any) -> np.ndarray:
        return array.detach().cpu().numpy()

    def asarray_constant(self, host_array: np.ndarray) -> Any:
        tensor = self._torch.as_tensor(host_array, device=self.device)
        if tensor.dtype in (self._torch.int32, self._torch.uint8):
            tensor = tensor.to(self._torch.int64)  # index_select wants int64
        return tensor

    # -- allocation --------------------------------------------------------------
    def empty_like(self, array: Any) -> Any:
        return self._torch.empty_like(array)

    def zeros_like(self, array: Any) -> Any:
        return self._torch.zeros_like(array)

    def copy(self, array: Any) -> Any:
        return array.clone()

    # -- shape manipulation ------------------------------------------------------
    def reshape(self, array: Any, shape: Sequence[int]) -> Any:
        return array.reshape(tuple(shape))

    def transpose(self, array: Any, axes: Sequence[int]) -> Any:
        return array.permute(tuple(axes))

    def ascontiguous(self, array: Any) -> Any:
        return array.contiguous()

    # -- kernels -----------------------------------------------------------------
    def take_batch(self, states: Any, indices: Any, out: Any | None = None) -> Any:
        return self._torch.index_select(states, 1, indices, out=out)

    def multiply(self, a: Any, b: Any, out: Any | None = None) -> Any:
        return self._torch.mul(a, b, out=out)

    def einsum(self, spec: str, *operands: Any, out: Any | None = None) -> Any:
        result = self._torch.einsum(spec, *operands)
        if out is None:
            return result
        out.copy_(result)  # torch.einsum has no out= parameter
        return out

    def matmul(self, a: Any, b: Any) -> Any:
        return a @ b

    # -- bookkeeping -------------------------------------------------------------
    def synchronize(self) -> None:
        if self.device.type == "cuda":
            self._torch.cuda.synchronize(self.device)
