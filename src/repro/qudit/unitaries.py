"""Qubit gates embedded on ququart devices.

Section 3 of the paper encodes two qubits ``|q0 q1>`` into one four-level
device (a *ququart*) via

    ``|00> -> |0>,  |01> -> |1>,  |10> -> |2>,  |11> -> |3>``

i.e. level ``= 2*q0 + q1``.  Every gate of the mixed-radix / full-ququart
gate set (Tables 1 and 2) is then *logically* a qubit gate acting on a subset
of the encoded qubit "slots" of one or two physical devices.  This module
provides the generic embedding machinery:

* :func:`qubit_slots` — enumerate the (device, slot) pairs of a register,
* :func:`embed_qubit_unitary` — lift an ``2^k x 2^k`` qubit unitary onto the
  mixed-radix space of the physical devices it touches,
* :func:`encoding_unitary` — the ENC operation that packs a bare qubit into
  the free slot of a neighbouring ququart (and its inverse, which is the
  same permutation),
* small helpers to encode/decode ququart statevectors.

Slot convention: slot 0 is the most significant encoded bit (``q0`` above),
slot 1 the least significant (``q1``).  A device of dimension 2 exposes only
slot 0.  A device of dimension 4 in the "qubit state" (only levels 0/1
populated) therefore stores its single qubit in slot 1.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "QUBIT_ENCODING",
    "decode_ququart_state",
    "embed_qubit_unitary",
    "encode_qubit_pair",
    "encoding_permutation",
    "encoding_unitary",
    "internal_unitary",
    "qubit_slots",
    "slots_per_device",
]

#: Mapping from encoded qubit pair ``(q0, q1)`` to ququart level.
QUBIT_ENCODING: dict[tuple[int, int], int] = {
    (0, 0): 0,
    (0, 1): 1,
    (1, 0): 2,
    (1, 1): 3,
}


def slots_per_device(dim: int) -> int:
    """Return the number of encoded qubit slots a device of ``dim`` exposes."""
    if dim == 2:
        return 1
    if dim == 4:
        return 2
    raise ValueError(f"only dimensions 2 and 4 are supported, got {dim}")


def qubit_slots(dims: Sequence[int]) -> list[tuple[int, int]]:
    """Enumerate all (device_index, slot_index) pairs of a register.

    >>> qubit_slots((4, 2))
    [(0, 0), (0, 1), (1, 0)]
    """
    slots: list[tuple[int, int]] = []
    for device, dim in enumerate(dims):
        for slot in range(slots_per_device(dim)):
            slots.append((device, slot))
    return slots


def _level_to_bits(level: int, dim: int) -> tuple[int, ...]:
    """Decode a device level into its slot bits (slot 0 first)."""
    n_slots = slots_per_device(dim)
    bits = []
    for slot in range(n_slots):
        shift = n_slots - 1 - slot
        bits.append((level >> shift) & 1)
    return tuple(bits)


def _bits_to_level(bits: Sequence[int], dim: int) -> int:
    """Encode slot bits (slot 0 first) into a device level."""
    n_slots = slots_per_device(dim)
    if len(bits) != n_slots:
        raise ValueError("bit count does not match slot count")
    level = 0
    for bit in bits:
        level = (level << 1) | (bit & 1)
    return level


def embed_qubit_unitary(
    qubit_unitary: np.ndarray,
    operand_slots: Sequence[tuple[int, int]],
    device_dims: Sequence[int],
) -> np.ndarray:
    """Lift a ``2^k x 2^k`` qubit unitary onto a mixed-radix device space.

    Parameters
    ----------
    qubit_unitary:
        Unitary on ``k`` logical qubits; operand 0 is the most significant
        qubit of its basis ordering.
    operand_slots:
        For each of the ``k`` operands, the ``(device_index, slot_index)``
        it lives in.  ``device_index`` refers to a position in
        ``device_dims``.
    device_dims:
        Dimensions of the physical devices the produced operator acts on, in
        tensor-product order (device 0 is most significant).

    Returns
    -------
    numpy.ndarray
        A ``prod(device_dims)``-dimensional unitary that performs
        ``qubit_unitary`` on the designated slots and the identity on every
        other slot.  Because dimensions are restricted to 2 and 4, every
        level of every device corresponds to a definite slot bit pattern and
        the embedding is exact (no guard levels are involved at this layer).
    """
    device_dims = tuple(device_dims)
    operand_slots = [tuple(spec) for spec in operand_slots]
    k = len(operand_slots)
    if qubit_unitary.shape != (2**k, 2**k):
        raise ValueError(
            f"unitary shape {qubit_unitary.shape} does not match "
            f"{k} operand slots"
        )
    valid_slots = set(qubit_slots(device_dims))
    seen: set[tuple[int, int]] = set()
    for spec in operand_slots:
        if spec not in valid_slots:
            raise ValueError(f"slot {spec} does not exist for dims {device_dims}")
        if spec in seen:
            raise ValueError(f"slot {spec} used more than once")
        seen.add(spec)

    total_dim = math.prod(device_dims)
    out = np.zeros((total_dim, total_dim), dtype=np.complex128)

    n_devices = len(device_dims)
    for col in range(total_dim):
        # Decode the joint basis state into per-device slot bits.
        remaining = col
        levels = []
        for dim in reversed(device_dims):
            levels.append(remaining % dim)
            remaining //= dim
        levels = list(reversed(levels))
        bits = [list(_level_to_bits(levels[dev], device_dims[dev])) for dev in range(n_devices)]

        # Gather the operand bits into the qubit-unitary input index.
        in_index = 0
        for device, slot in operand_slots:
            in_index = (in_index << 1) | bits[device][slot]

        column = qubit_unitary[:, in_index]
        for out_index in np.flatnonzero(column):
            out_bits = [row[:] for row in bits]
            value = int(out_index)
            for pos, (device, slot) in enumerate(operand_slots):
                shift = k - 1 - pos
                out_bits[device][slot] = (value >> shift) & 1
            row = 0
            for dev in range(n_devices):
                level = _bits_to_level(out_bits[dev], device_dims[dev])
                row = row * device_dims[dev] + level
            out[row, col] = column[out_index]
    return out


def internal_unitary(two_qubit_unitary: np.ndarray) -> np.ndarray:
    """Return the single-ququart (4x4) version of a two-qubit gate.

    Because the encoding is the straight binary expansion, the matrix is the
    same ``4 x 4`` array reinterpreted on ququart levels — this helper exists
    for readability at call sites and validates the input shape.
    """
    if two_qubit_unitary.shape != (4, 4):
        raise ValueError("internal gates must be 4x4 (two encoded qubits)")
    return np.asarray(two_qubit_unitary, dtype=np.complex128).copy()


def encode_qubit_pair(qubit0: np.ndarray, qubit1: np.ndarray) -> np.ndarray:
    """Return the ququart statevector encoding the pair ``|q0> (x) |q1>``."""
    qubit0 = np.asarray(qubit0, dtype=np.complex128).reshape(2)
    qubit1 = np.asarray(qubit1, dtype=np.complex128).reshape(2)
    return np.kron(qubit0, qubit1)


def decode_ququart_state(ququart: np.ndarray) -> np.ndarray:
    """Return the two-qubit statevector stored in a ququart.

    The encoding is the binary expansion of the level index, so the decoded
    two-qubit vector has exactly the same amplitudes; this helper exists to
    make intent explicit and to validate the input shape.
    """
    ququart = np.asarray(ququart, dtype=np.complex128).reshape(-1)
    if ququart.shape != (4,):
        raise ValueError("a ququart statevector must have 4 amplitudes")
    return ququart.copy()


def encoding_permutation(qubit_first: bool = True) -> np.ndarray:
    """Return the ENC permutation on a (qubit, ququart) pair.

    ENC moves the bare qubit's value into slot 0 of the neighbouring ququart,
    leaving the bare device in ``|0>``, provided the ququart's slot 0 was
    ``0`` (i.e. the ququart was in its "qubit state", populating only levels
    0 and 1).  As a full unitary it is the embedded SWAP between the bare
    qubit and slot 0 of the ququart, which is its own inverse — so the
    decode operation ENC† uses the same matrix.

    Parameters
    ----------
    qubit_first:
        If True the operator is ordered (qubit, ququart) i.e. dims ``(2, 4)``;
        otherwise (ququart, qubit) i.e. dims ``(4, 2)``.
    """
    swap = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
        ],
        dtype=np.complex128,
    )
    if qubit_first:
        dims = (2, 4)
        slots = [(0, 0), (1, 0)]
    else:
        dims = (4, 2)
        slots = [(1, 0), (0, 0)]
    return embed_qubit_unitary(swap, slots, dims)


def encoding_unitary(qubit_first: bool = True) -> np.ndarray:
    """Alias of :func:`encoding_permutation` (the ENC gate unitary)."""
    return encoding_permutation(qubit_first=qubit_first)
