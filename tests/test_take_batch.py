"""The kernels' unbuffered gather, :func:`repro.backends.numpy_backend.take_batch`.

``take_batch`` gathers with ``mode="clip"`` so numpy writes straight into
``out`` instead of a temporary; that is only the plain fancy-index gather
when the indices are in range and ``out`` does not alias ``states``.  The
kernels guarantee the first, and ``take_batch`` refuses the second.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends.numpy_backend import take_batch


def _block(rng: np.random.Generator, shape: tuple[int, int, int]) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(1, 4, 1), (3, 8, 2), (5, 16, 4), (2, 12, 3)])
def test_gather_equals_fancy_index(shape):
    rng = np.random.default_rng(sum(shape))
    states = _block(rng, shape)
    indices = rng.permutation(shape[1])
    out = np.empty_like(states)
    result = take_batch(states, indices, out=out)
    assert result is out
    assert np.array_equal(out, states[:, indices, :])


def test_repeated_indices_gather_like_fancy_index():
    rng = np.random.default_rng(7)
    states = _block(rng, (2, 6, 3))
    indices = np.array([0, 0, 5, 2, 2, 1])
    out = np.empty_like(states)
    take_batch(states, indices, out=out)
    assert np.array_equal(out, states[:, indices, :])


def test_leaves_states_untouched():
    rng = np.random.default_rng(11)
    states = _block(rng, (3, 8, 2))
    before = states.copy()
    take_batch(states, rng.permutation(8), out=np.empty_like(states))
    assert np.array_equal(states, before)


@pytest.mark.parametrize("alias", ["same", "view"])
def test_refuses_out_overlapping_states(alias):
    states = _block(np.random.default_rng(3), (2, 4, 2))
    out = states if alias == "same" else states.reshape(2, 8)[:, :].reshape(2, 4, 2)
    with pytest.raises(ValueError, match="overlap"):
        take_batch(states, np.arange(4)[::-1].copy(), out=out)
