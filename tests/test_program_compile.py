"""Trajectory-program kernel construction against a frozen reference.

``repro.noise.program`` stores each gather kernel's index (and a fused
kernel's phases) over the span of its touched axes only, and applies it as
one unbuffered axis-1 ``take``.  The functions below the "frozen reference"
banner are verbatim copies of the earlier full-register builders (per-entry
digit arithmetic over the whole register); do not "fix" or modernise them.
:func:`expand` lifts a span-local kernel back to that full-register layout.
The property tests assert the expanded arrays equal the reference builders'
(same values, dtypes and ``None``-ness) and that applying a span-local
kernel equals a full-register ``np.take`` bit for bit.  The pinned digests
hash the *expanded* programs, so they assert that compiled programs mean
exactly what the reference builders' programs meant.  The pickled layout
did change, which is why ``CACHE_SCHEMA_VERSION`` was bumped: programs
cached on disk under the old version miss and are rebuilt.

A ``single`` kernel with a real unitary runs as a float64 einsum over the
interleaved real/imaginary view of the block; ``TestRealSingleKernel``
holds it to the complex einsum of :func:`apply_kernel` byte for byte.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import mini_points
from repro.experiments.sweep import SweepPoint, _compiled
from repro.noise import program as program_module
from repro.noise.model import NoiseModel
from repro.noise.program import (
    _SINGLE_BATCH_ELEMENT_LIMIT,
    GateStep,
    _classify,
    _Fuser,
    _gather_index,
    _Kernel,
    _monomial_structure,
    apply_kernel,
    apply_kernel_batch,
    compile_program,
)
from repro.qudit.random import haar_random_unitary
from repro.topology.device import CoherenceModel

# ---------------------------------------------------------------------------
# frozen reference (verbatim full-register builders)
# ---------------------------------------------------------------------------


def legacy_monomial_structure(unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Return ``(source, phases)`` when every row has exactly one nonzero."""
    dim = unitary.shape[0]
    source = np.empty(dim, dtype=np.int64)
    phases = np.empty(dim, dtype=np.complex128)
    for row in range(dim):
        nonzero = np.flatnonzero(unitary[row])
        if nonzero.size != 1:
            return None
        source[row] = nonzero[0]
        phases[row] = unitary[row, nonzero[0]]
    return source, phases


def legacy_full_gather_index(
    source: np.ndarray, targets: tuple[int, ...], dims: tuple[int, ...]
) -> np.ndarray:
    """Lift an op-subspace row->column map to a full-register gather index.

    Returns ``idx`` such that ``out[j] = state[idx[j]]`` implements the
    permutation part of the monomial on the whole register.
    """
    total = int(np.prod(dims))
    strides = np.ones(len(dims), dtype=np.int64)
    for axis in range(len(dims) - 2, -1, -1):
        strides[axis] = strides[axis + 1] * dims[axis + 1]
    flat = np.arange(total, dtype=np.int64)
    op_index = np.zeros(total, dtype=np.int64)
    base = flat.copy()
    for target in targets:
        digit = (flat // strides[target]) % dims[target]
        op_index = op_index * dims[target] + digit
        base -= digit * strides[target]
    column = source[op_index]
    gathered = base
    for target in reversed(targets):
        digit = column % dims[target]
        column = column // dims[target]
        gathered = gathered + digit * strides[target]
    return gathered.astype(np.int32 if total < 2**31 else np.int64)


class LegacyFuser:
    """``_Fuser`` reduced to its frozen ``_build``."""

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims

    def _build(self, members: list[_Kernel]) -> _Kernel:
        dims = self.dims
        targets = tuple(sorted({t for kernel in members for t in kernel.targets}))
        if all(kernel.index is None for kernel in members):
            # A pure-diagonal run composes in broadcast space (no gather, and
            # the composed phase tensor only spans the touched axes).
            phase = None
            for kernel in members:
                if kernel.phase is not None:
                    phase = kernel.phase if phase is None else phase * kernel.phase
            return _Kernel("diag", None, targets, phase=phase)
        index: np.ndarray | None = None
        phase: np.ndarray | None = None
        for kernel in members:
            if kernel.index is not None:
                index = kernel.index.copy() if index is None else index[kernel.index]
                if phase is not None:
                    phase = phase[kernel.index]
            if kernel.phase is not None:
                flat = np.ascontiguousarray(np.broadcast_to(kernel.phase, dims)).reshape(-1)
                phase = flat if phase is None else phase * flat
        return _Kernel("fused", None, targets, index=index, phase=phase)


def expand(kernel: _Kernel, dims: tuple[int, ...]) -> _Kernel:
    """``kernel`` in the full-register layout of the frozen builders.

    A span-local gather index over the ``(left, span, right)`` view becomes
    the flat index ``l * span * right + index[s] * right + r`` (same dtype),
    a fused kernel's phases are broadcast over the register and flattened,
    and ``reshape`` goes back to ``None``.  Other kinds are already in that
    layout.
    """
    if kernel.kind not in ("perm", "monomial", "fused"):
        return kernel
    left, span, right = kernel.reshape
    assert left * span * right == math.prod(dims)
    index = (
        np.arange(left, dtype=np.int64)[:, None, None] * (span * right)
        + kernel.index.astype(np.int64)[None, :, None] * right
        + np.arange(right, dtype=np.int64)[None, None, :]
    )
    phase = kernel.phase
    if kernel.kind == "fused" and phase is not None:
        phase = np.broadcast_to(phase, dims).reshape(-1)
    return _Kernel(
        kernel.kind,
        kernel.unitary,
        kernel.targets,
        index=index.reshape(-1).astype(kernel.index.dtype),
        phase=phase,
    )


def legacy_apply(state: np.ndarray, kernel: _Kernel, dims: tuple[int, ...]) -> np.ndarray:
    """One row through the expanded kernel: full-register take, then phases."""
    full = expand(kernel, dims)
    gathered = np.take(state, full.index)
    if full.phase is None:
        return gathered
    if full.kind == "fused":
        return gathered * full.phase
    return (gathered.reshape(dims) * full.phase).reshape(-1)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

EXACT_UNITS = np.array([1.0, -1.0, 1.0j, -1.0j], dtype=np.complex128)

registers = st.lists(st.sampled_from([2, 4]), min_size=1, max_size=5).map(tuple)


def assert_same_array(actual: np.ndarray | None, expected: np.ndarray | None) -> None:
    assert (actual is None) == (expected is None)
    if expected is not None:
        assert actual.dtype == expected.dtype
        assert actual.shape == expected.shape
        assert np.array_equal(actual, expected)


@st.composite
def op_targets(draw, dims: tuple[int, ...]) -> tuple[int, ...]:
    """An unsorted tuple of 1-3 distinct devices of the register."""
    count = draw(st.integers(1, min(3, len(dims))))
    return tuple(draw(st.permutations(range(len(dims))))[:count])


@st.composite
def monomial_ops(draw, dims: tuple[int, ...], inexact: bool):
    """``(unitary, targets)`` of a random permutation-with-phases op.

    Phases are all ones, exact units ``{±1, ±i}``, or (when ``inexact``)
    arbitrary unit-modulus values; the map is the identity half the time,
    which classifies as ``diag``.
    """
    targets = draw(op_targets(dims))
    size = math.prod(dims[t] for t in targets)
    if draw(st.booleans()):
        source = np.arange(size)
    else:
        source = np.array(draw(st.permutations(range(size))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = ["ones", "units", "inexact"] if inexact else ["ones", "units"]
    kind = draw(st.sampled_from(kinds))
    if kind == "ones":
        phases = np.ones(size, dtype=np.complex128)
    elif kind == "units":
        phases = EXACT_UNITS[rng.integers(0, 4, size)]
    else:
        phases = np.exp(2j * np.pi * rng.random(size))
    unitary = np.zeros((size, size), dtype=np.complex128)
    unitary[np.arange(size), source] = phases
    return unitary, targets


# ---------------------------------------------------------------------------
# property tests against the frozen reference
# ---------------------------------------------------------------------------


class TestGatherIndex:
    @settings(max_examples=150, deadline=None)
    @given(dims=registers, data=st.data())
    def test_matches_reference(self, dims, data):
        targets = data.draw(op_targets(dims))
        size = math.prod(dims[t] for t in targets)
        source = np.array(data.draw(st.permutations(range(size))), dtype=np.int64)
        assert_same_array(
            _gather_index(source, targets, dims),
            legacy_full_gather_index(source, targets, dims),
        )

    @pytest.mark.parametrize("target", [0, 4, 8])
    def test_classify_on_4_9_register(self, target):
        dims = (4,) * 9
        source = np.array([2, 0, 3, 1])
        phases = np.array([1.0, 1.0j, -1.0, np.exp(0.3j)])
        unitary = np.zeros((4, 4), dtype=np.complex128)
        unitary[np.arange(4), source] = phases
        kernel = _classify(unitary, (target,), dims, [1])
        assert kernel.kind == "monomial"
        assert kernel.reshape == (4**target, 4, 4 ** (8 - target))
        assert kernel.index.shape == (4,)
        kernel = expand(kernel, dims)
        assert_same_array(kernel.index, legacy_full_gather_index(source, (target,), dims))
        assert kernel.index.dtype == np.int32
        expected_phase = np.ones([4 if axis == target else 1 for axis in range(9)], complex)
        expected_phase.reshape(-1)[:] = phases
        assert_same_array(kernel.phase, expected_phase)


class TestMonomialStructure:
    @settings(max_examples=100, deadline=None)
    @given(dims=registers, inexact=st.booleans(), data=st.data())
    def test_matches_reference_on_monomials(self, dims, inexact, data):
        unitary, _ = data.draw(monomial_ops(dims, inexact))
        actual = _monomial_structure(unitary)
        expected = legacy_monomial_structure(unitary)
        assert actual is not None and expected is not None
        for got, want in zip(actual, expected):
            assert_same_array(got, want)

    @settings(max_examples=50, deadline=None)
    @given(
        dims=registers,
        defect=st.sampled_from(["dense", "empty_row", "extra_entry"]),
        data=st.data(),
    )
    def test_rejects_non_monomials_like_reference(self, dims, defect, data):
        unitary, _ = data.draw(monomial_ops(dims, inexact=True))
        row = data.draw(st.integers(0, unitary.shape[0] - 1))
        if defect == "dense":
            unitary = unitary + 0.5
        elif defect == "empty_row":
            unitary[row] = 0.0
        else:
            column = (int(np.flatnonzero(unitary[row])[0]) + 1) % unitary.shape[0]
            unitary[row, column] += 0.25
        assert legacy_monomial_structure(unitary) is None
        assert _monomial_structure(unitary) is None


class TestFusedBuild:
    @settings(max_examples=150, deadline=None)
    @given(dims=registers, data=st.data())
    def test_matches_reference(self, dims, data):
        # The fusion rule admits at most one member with phases outside
        # {±1, ±i}; which one (if any) is drawn.
        count = data.draw(st.integers(2, 5))
        inexact_at = data.draw(st.integers(-1, count - 1))
        members = []
        for position in range(count):
            unitary, targets = data.draw(monomial_ops(dims, inexact=position == inexact_at))
            members.append(_classify(unitary, targets, dims, [1]))
        actual = expand(_Fuser(dims)._build(members), dims)
        expected = LegacyFuser(dims)._build([expand(kernel, dims) for kernel in members])
        assert actual.kind == expected.kind
        assert actual.targets == expected.targets
        assert actual.unitary is None and expected.unitary is None
        assert_same_array(actual.index, expected.index)
        assert_same_array(actual.phase, expected.phase)


def random_states(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    return rng.standard_normal((rows, dim)) + 1j * rng.standard_normal((rows, dim))


def assert_applies_like_full_take(kernel: _Kernel, dims: tuple[int, ...], rows: int) -> None:
    """Span-local scalar and batched apply equal the full-register take."""
    rng = np.random.default_rng(rows)
    states = random_states(rng, rows, math.prod(dims))
    expected = np.stack([legacy_apply(row, kernel, dims) for row in states])
    for row, want in zip(states, expected):
        got = apply_kernel(row, kernel, dims)
        assert got.tobytes() == want.tobytes()
    block = apply_kernel_batch(states.copy(), kernel, dims, out=np.empty_like(states))
    assert block.tobytes() == expected.tobytes()


class TestSpanLocalApply:
    @settings(max_examples=100, deadline=None)
    @given(dims=registers, data=st.data())
    def test_matches_full_register_take(self, dims, data):
        count = data.draw(st.integers(2, 4))
        inexact_at = data.draw(st.integers(-1, count - 1))
        members = []
        for position in range(count):
            unitary, targets = data.draw(monomial_ops(dims, inexact=position == inexact_at))
            members.append(_classify(unitary, targets, dims, [1]))
        kernels = [kernel for kernel in members if kernel.index is not None]
        fused = _Fuser(dims)._build(members)
        if fused.kind == "fused":
            kernels.append(fused)
        for kernel in kernels:
            assert_applies_like_full_take(kernel, dims, rows=3)

    @pytest.mark.parametrize("targets", [(0, 1), (1, 3), (3, 1), (4,), (0, 4), (4, 2, 0)])
    def test_adjacent_far_and_last_axis_targets(self, targets):
        # One block above the element limit, where a complex single kernel goes
        # row by row: a gather stays one take at any size.
        dims = (4, 2, 4, 2, 4)
        rng = np.random.default_rng(sum(targets))
        size = math.prod(dims[t] for t in targets)
        unitary = np.zeros((size, size), dtype=np.complex128)
        unitary[np.arange(size), rng.permutation(size)] = EXACT_UNITS[rng.integers(0, 4, size)]
        kernel = _classify(unitary, targets, dims, [1])
        assert kernel.kind in ("perm", "monomial")
        rows = _SINGLE_BATCH_ELEMENT_LIMIT // math.prod(dims) + 1
        assert_applies_like_full_take(kernel, dims, rows=rows)

    @pytest.mark.parametrize("corrupt", ["past_end", "negative"])
    def test_corrupted_span_index_is_rejected_at_compile_time(self, monkeypatch, corrupt):
        build = program_module._gather_index

        def corrupted(source, targets, dims):
            index = build(source, targets, dims).copy()
            index[-1] = index.size if corrupt == "past_end" else -1
            return index

        monkeypatch.setattr(program_module, "_gather_index", corrupted)
        unitary = np.eye(4, dtype=np.complex128)[[1, 0, 3, 2]]
        with pytest.raises(ValueError, match="span"):
            _classify(unitary, (2, 0), (2, 4, 2), [1])

    def test_gather_out_must_not_overlap_states(self):
        dims = (4, 4)
        unitary = np.eye(4, dtype=np.complex128)[[1, 2, 3, 0]]
        kernel = _classify(unitary, (1,), dims, [1])
        states = random_states(np.random.default_rng(0), 2, 16)
        with pytest.raises(ValueError, match="overlap"):
            apply_kernel_batch(states, kernel, dims, out=states)
        pair = np.empty((3, 16), dtype=np.complex128)
        with pytest.raises(ValueError, match="overlap"):
            apply_kernel_batch(pair[:2], kernel, dims, out=pair[1:])


# ---------------------------------------------------------------------------
# real single-device kernels: float64 contraction against the complex einsum
# ---------------------------------------------------------------------------

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
REAL_REGISTERS = [(4,) * 5, (2, 4, 4, 4, 2), (4,) * 7]


def real_single_unitary(rng: np.random.Generator, d: int, shape: str) -> np.ndarray:
    """A real ``d x d`` matrix (complex dtype) that classifies as ``single``.

    ``shape`` is ``"dense"``, ``"sparse"`` (exact zeros, never monomial),
    or a Hadamard on one encoded qubit (``"H(x)I"``/``"I(x)H"``, plain H
    when ``d == 2``).  Some imaginary zeros are negative.
    """
    if shape == "dense":
        real = rng.standard_normal((d, d)) * np.exp2(rng.integers(-3, 4, (d, d)))
    elif shape == "sparse":
        real = rng.standard_normal((d, d))
        real[rng.random((d, d)) < 0.4] = 0.0
        real[0, :2] = rng.standard_normal(2) + 2.0  # two nonzeros: not monomial
    elif d == 2:
        real = HADAMARD
    elif shape == "H(x)I":
        real = np.kron(HADAMARD, np.eye(2))
    else:
        real = np.kron(np.eye(2), HADAMARD)
    unitary = real.astype(np.complex128)
    unitary.imag[rng.random((d, d)) < 0.5] = -0.0
    return unitary


def signed_zero_states(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    """Amplitudes over exponents ±1000, with exact +0 and -0 components."""
    states = random_states(rng, rows, dim)
    parts = states.view(np.float64)
    parts *= np.exp2(rng.integers(-1000, 1001, parts.shape))
    parts[rng.random(parts.shape) < 0.1] = 0.0
    parts[rng.random(parts.shape) < 0.1] = -0.0
    return states


def assert_rows_match_complex_einsum(
    kernel: _Kernel, dims: tuple[int, ...], states: np.ndarray
) -> None:
    """Every block row equals the one-row complex einsum, by ``tobytes``."""
    expected = [apply_kernel(row, kernel, dims) for row in states]
    block = apply_kernel_batch(states.copy(), kernel, dims, out=np.empty_like(states))
    for got, want in zip(block, expected):
        assert got.tobytes() == want.tobytes()


def einsum_operand_dtypes(monkeypatch) -> list[set]:
    """Record the operand dtypes of every ``np.einsum`` call from now on."""
    calls: list[set] = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append({arg.dtype for arg in args[1:]})
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


class TestRealSingleKernel:
    @settings(max_examples=120, deadline=None)
    @given(
        dims=st.sampled_from(REAL_REGISTERS),
        shape=st.sampled_from(["dense", "sparse", "H(x)I", "I(x)H"]),
        rows=st.sampled_from([1, 3, 16]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_rows_equal_complex_einsum_bytes(self, dims, shape, rows, seed, data):
        axis = data.draw(st.integers(0, len(dims) - 1))
        rng = np.random.default_rng(seed)
        unitary = real_single_unitary(rng, dims[axis], shape)
        kernel = _classify(unitary, (axis,), dims, [0])
        assert kernel.kind == "single"
        assert kernel.real.dtype == np.float64 and kernel.real.flags.c_contiguous
        assert np.array_equal(kernel.real, unitary.real)
        assert_rows_match_complex_einsum(
            kernel, dims, signed_zero_states(rng, rows, math.prod(dims))
        )

    @pytest.mark.parametrize("axis", [0, 2, 4])
    def test_block_above_element_limit(self, axis):
        dims = (4,) * 5
        rng = np.random.default_rng(axis)
        kernel = _classify(real_single_unitary(rng, 4, "I(x)H"), (axis,), dims, [0])
        rows = _SINGLE_BATCH_ELEMENT_LIMIT // math.prod(dims) + 1
        assert_rows_match_complex_einsum(
            kernel, dims, signed_zero_states(rng, rows, math.prod(dims))
        )

    @pytest.mark.parametrize("axis, float_path", [(1, True), (2, False)])
    def test_float_path_runs_off_the_last_axis_only(self, monkeypatch, axis, float_path):
        dims = (2, 4, 4)
        kernel = _classify(np.kron(HADAMARD, np.eye(2)).astype(complex), (axis,), dims, [0])
        states = random_states(np.random.default_rng(axis), 3, 32)
        calls = einsum_operand_dtypes(monkeypatch)
        apply_kernel_batch(states, kernel, dims, out=np.empty_like(states))
        assert calls == [{np.dtype(np.float64)} if float_path else {np.dtype(np.complex128)}]

    def test_complex_unitary_keeps_complex_path(self, monkeypatch):
        dims = (4, 4, 4)
        unitary = np.kron(HADAMARD, np.diag([1.0, 1.0j]))
        kernel = _classify(unitary, (1,), dims, [0])
        assert kernel.kind == "single" and kernel.real is None
        states = random_states(np.random.default_rng(1), 3, 64)
        calls = einsum_operand_dtypes(monkeypatch)
        assert_rows_match_complex_einsum(kernel, dims, states)
        assert calls and all(dtypes == {np.dtype(np.complex128)} for dtypes in calls)


@pytest.mark.parametrize("targets", [(0, 1), (4, 2), (1, 3, 4)])
def test_generic_rows_equal_one_state_kernel_above_element_limit(targets):
    # A generic kernel is one batched dense apply at every block size; each
    # row must still be the one-statevector kernel's bytes.
    dims = (4, 2, 4, 2, 4)
    rng = np.random.default_rng(sum(targets))
    kernel = _classify(haar_random_unitary(math.prod(dims[t] for t in targets), rng), targets, dims, [0])
    assert kernel.kind == "generic"
    rows = _SINGLE_BATCH_ELEMENT_LIMIT // math.prod(dims) + 1
    states = random_states(rng, rows, math.prod(dims))
    block = apply_kernel_batch(states.copy(), kernel, dims, out=np.empty_like(states))
    for row, got in zip(states, block):
        assert got.tobytes() == apply_kernel(row, kernel, dims).tobytes()


# ---------------------------------------------------------------------------
# pinned program digests
# ---------------------------------------------------------------------------


def _feed_array(digest, array) -> None:
    if array is None:
        digest.update(b"none;")
        return
    array = np.asarray(array)
    digest.update(f"{array.dtype.str}{array.shape};".encode())
    digest.update(np.ascontiguousarray(array).tobytes())


def program_digest(programs) -> str:
    """SHA-256 over every gate kernel and idle step of ``programs``, in order."""
    digest = hashlib.sha256()
    for program in programs:
        for step in list(program.steps) + list(program.ideal_steps):
            if isinstance(step, GateStep):
                kernel = expand(step.kernel, program.dims)
                digest.update(f"gate:{kernel.kind}:{kernel.targets}:{kernel.reshape};".encode())
                for array in (kernel.index, kernel.phase, kernel.unitary):
                    _feed_array(digest, array)
            else:
                digest.update(b"idle;")
                for values in (step.lambdas, step.weights, step.sqrt_weights):
                    _feed_array(digest, np.asarray(values, dtype=np.float64))
    return digest.hexdigest()


def _programs(points, fuse: bool):
    programs = []
    for point in points:
        compilation = _compiled(
            point.workload, point.size, point.workload_kwargs, point.strategy, point.error_factor
        )
        noise_model = NoiseModel(coherence=CoherenceModel(excited_scale=point.coherence_scale))
        programs.append(compile_program(compilation.physical_circuit, noise_model, fuse=fuse))
    return programs


#: Digests of the programs on their truncated registers (the span-local
#: programs are hashed through :func:`expand`).
PINNED_DIGESTS = {
    ("fig7-mini", True): "faaf0daedf59067d8238569ea76735b8084fd63162065364fdcde444ede9d787",
    ("fig7-mini", False): "b5db68af62a762b7f31d6d5437005b42e8c1c748da7010cad7289fd7e6b461ef",
    ("qram-9", True): "9e5f749bb801330510b4b7cd8790e63df638f48a33e529035d750cafd03d64a0",
    ("qram-9", False): "6ee7d50c7b124aae97f5415d8efd810f932a1c187f6ab6381c2dd2a5d2390288",
}

#: Digests of the same programs compiled on every level of every device:
#: the programs the frozen full-register builders produced before
#: registers were truncated.  A full-level support must keep them.
FULL_LEVEL_DIGESTS = {
    ("fig7-mini", True): "bae9f441d95a079ce075421f93b8bf486000db3f7916b9bd1a8107bc3611f30c",
    ("fig7-mini", False): "2ca27b196b2127f6ae556ae171feeb4e7e0b6896c2054949cee006d06e5ffcaa",
    ("qram-9", True): "816347f5ef3577d5b578a5919511c2263c56f7c7c2c7ccb68127d2bd1bc2c5a7",
    ("qram-9", False): "19950452e7db0fb250d8853ea7b100f2a1b529c190c7e88443cc958e9d781e3f",
}

GRIDS = {
    "fig7-mini": lambda: mini_points(num_trajectories=4),
    # The largest fused program of the Fig. 7 grid (4^9 register, 4,096
    # simulated amplitudes).
    "qram-9": lambda: [
        SweepPoint(workload="qram", size=9, strategy="MIXED_RADIX_CCZ", num_trajectories=1)
    ],
}


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_program_digest_is_pinned(grid, fuse):
    programs = _programs(GRIDS[grid](), fuse)
    assert program_digest(programs) == PINNED_DIGESTS[(grid, fuse)]


@pytest.mark.parametrize("fuse", [True, False], ids=["fused", "unfused"])
@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_full_level_programs_keep_the_untruncated_digests(grid, fuse, monkeypatch):
    """Started from every level, the support stays full and the programs are
    byte for byte the untruncated ones."""
    monkeypatch.setattr(program_module, "_initial_levels", lambda physical: list(physical.device_dims))
    programs = _programs(GRIDS[grid](), fuse)
    assert all(program.dims == program.physical.device_dims for program in programs)
    assert program_digest(programs) == FULL_LEVEL_DIGESTS[(grid, fuse)]
