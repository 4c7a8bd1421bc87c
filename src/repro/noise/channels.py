"""Qudit error channels (Section 6.5).

Two error mechanisms are modelled:

* **symmetric depolarizing** errors attached to every gate: for a
  ``d``-dimensional device the non-identity error operators are the
  ``d^2 - 1`` products of the generalized ``X_{+a mod d}`` and clock ``Z_d^b``
  operators, each drawn with equal probability.  Multi-device gates draw from
  the tensor product of the participants' single-device error sets — a
  mixed-radix (qubit (x) ququart) gate draws from ``P_2 (x) P_4``, not
  ``P_4 (x) P_4``.
* **amplitude damping** applied to idle periods, with per-level decay
  probability ``l_m = 1 - exp(-m dt / T1)`` (level ``m`` decays ``m`` times
  faster than level 1).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.qudit.operators import (
    amplitude_damping_kraus,
    generalized_pauli_basis,
    qudit_identity,
)

__all__ = [
    "depolarizing_operators",
    "qudit_amplitude_damping",
    "sample_depolarizing_error",
    "num_error_channels",
]


def depolarizing_operators(dims: Sequence[int]) -> list[np.ndarray]:
    """Return the non-identity error operators for a (possibly mixed) gate.

    For a single device of dimension ``d`` this is the ``d^2 - 1`` element
    generalized Pauli set.  For multiple devices the full tensor-product set
    (excluding the all-identity element) is returned, matching the paper's
    two-qubit channel with 15 elements and the ququart channel with 255.
    """
    if not dims:
        raise ValueError("need at least one device dimension")
    per_device: list[list[np.ndarray]] = [
        [qudit_identity(dim)] + generalized_pauli_basis(dim, include_identity=False)
        for dim in dims
    ]
    operators: list[np.ndarray] = []
    total = 1
    for options in per_device:
        total *= len(options)
    for index in range(total):
        remaining = index
        selection = []
        for options in reversed(per_device):
            selection.append(options[remaining % len(options)])
            remaining //= len(options)
        selection.reverse()
        if all(choice is options[0] for choice, options in zip(selection, per_device)):
            # Skip the identity-on-every-device element.
            continue
        combined = selection[0]
        for factor in selection[1:]:
            combined = np.kron(combined, factor)
        operators.append(combined)
    return operators


def num_error_channels(dims: Sequence[int]) -> int:
    """Return the number of non-identity error channels for the given dims."""
    total = 1
    for dim in dims:
        total *= dim * dim
    return total - 1


@lru_cache(maxsize=16)
def _weyl_factors(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only per-device error factors, indexed like the Weyl basis (0: identity)."""
    factors = (qudit_identity(dim), *generalized_pauli_basis(dim, include_identity=True)[1:])
    for factor in factors:
        factor.flags.writeable = False
    return factors


def _sample_error_indices(
    dims: Sequence[int],
    error_probability: float,
    rng: np.random.Generator,
) -> list[int] | None:
    """Draw one depolarizing error as per-device Weyl indices (None: no error).

    Consumes ``rng`` exactly as :func:`sample_depolarizing_error_factors`
    does; index ``0`` on a device is its identity factor.
    """
    if not 0.0 <= error_probability < 1.0:
        raise ValueError("error probability must be in [0, 1)")
    if rng.random() >= error_probability:
        return None
    channels = num_error_channels(dims)
    index = int(rng.integers(channels)) + 1  # skip the all-identity element
    indices = []
    for dim in reversed(dims):
        indices.append(index % (dim * dim))
        index //= dim * dim
    indices.reverse()
    return indices


def sample_depolarizing_error_factors(
    dims: Sequence[int],
    error_probability: float,
    rng: np.random.Generator,
) -> list[np.ndarray] | None:
    """Sample one depolarizing error, returned as per-device factors.

    With probability ``1 - error_probability`` no error occurs and ``None``
    is returned; otherwise one of the non-identity error operators is drawn
    uniformly (each channel has probability ``p / (prod(d_i^2) - 1)``) and
    its per-device Weyl factors are returned in device order.  The factors
    are read-only arrays shared between draws, so no call rebuilds the
    (up to 255-element) operator list or the per-device basis.
    """
    indices = _sample_error_indices(dims, error_probability, rng)
    if indices is None:
        return None
    return [_weyl_factors(dim)[local] for dim, local in zip(dims, indices)]


def sample_depolarizing_error(
    dims: Sequence[int],
    error_probability: float,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Sample one depolarizing error as a full operator on ``dims``.

    Thin wrapper over :func:`sample_depolarizing_error_factors` that returns
    the Kronecker product of the per-device factors (or ``None`` when no
    error is drawn).  On one device the operator is a shared read-only array.
    """
    factors = sample_depolarizing_error_factors(dims, error_probability, rng)
    if factors is None:
        return None
    combined = factors[0]
    for factor in factors[1:]:
        combined = np.kron(combined, factor)
    return combined


def qudit_amplitude_damping(dim: int, duration_ns: float, t1_ns: float) -> list[np.ndarray]:
    """Return the amplitude-damping Kraus operators for an idle period.

    Level ``m`` decays with probability ``1 - exp(-m * duration / T1)``.
    """
    if duration_ns < 0:
        raise ValueError("duration must be non-negative")
    if t1_ns <= 0:
        raise ValueError("T1 must be positive")
    lambdas = [1.0 - float(np.exp(-m * duration_ns / t1_ns)) for m in range(1, dim)]
    return amplitude_damping_kraus(dim, lambdas)
