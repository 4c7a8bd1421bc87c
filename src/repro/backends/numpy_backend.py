"""The unbuffered axis-1 gather behind the perm/monomial/fused kernels."""

from __future__ import annotations

import numpy as np

__all__ = ["take_batch"]


def take_batch(states: np.ndarray, indices: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Axis-1 gather of a 3-D ``(rows, span, right)`` block into ``out``.

    ``out[r, j, k] = states[r, indices[j], k]``.  ``mode="clip"`` gathers
    straight into ``out``; the default ``mode="raise"`` always gathers into a
    buffer and copies it over.  Callers guarantee ``0 <= indices < span``
    (kernels range-check their indices once, when they are built), so
    clipping never fires; an aliased ``out`` would make numpy buffer again,
    so it is refused outright.
    """
    if np.may_share_memory(states, out):
        raise ValueError("take_batch: out must not overlap states")
    return np.take(states, indices, axis=1, out=out, mode="clip")
