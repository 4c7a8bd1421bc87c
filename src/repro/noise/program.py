"""Compiled trajectory programs and structured statevector kernels.

The trajectory engine (:mod:`repro.noise.batched`, driven by
:mod:`repro.noise.trajectory` and the adaptive prescan in
:mod:`repro.noise.fastpath`) executes one intermediate representation: a
``(PhysicalCircuit, NoiseModel)`` pair is *compiled once* into a
:class:`TrajectoryProgram` — the scheduled op stream flattened into gate and
idle events, each gate carrying its cached embedded unitary and a structural
classification, each idle window carrying its precomputed decay
probabilities.

The classification exploits that almost every pulse of the paper's gate set
is *monomial* (exactly one nonzero entry per row of the unitary):

* ``diag``     — diagonal (CCZ, CZ, S, T, RZ, CS, ...): one broadcast multiply,
* ``perm``     — 0/1 permutation (X, CX, SWAP, ENC, CCX, ...): one index gather,
* ``monomial`` — permutation with phases (Y, iToffoli, ...): gather + multiply,
* ``single``   — dense single-device unitary (H, damping Kraus): one einsum,
  over the interleaved float64 view of the block when the unitary is real
  (H on an encoded qubit), over the complex block otherwise,
* ``generic``  — anything else: transpose + GEMM via ``apply_unitary``.

The engine applies every kernel to a ``(batch, dim)`` block with
:func:`apply_kernel_batch`, whose row ``i`` performs the same floating-point
operations in the same order at every block size, so a run gives the same
bits for any block size when fed the same per-trajectory RNG streams.  The
idle contraction :func:`device_populations_batch` keeps the same promise by
contracting each row on its own.
:func:`apply_kernel` is the one-statevector reference that the kernel tests
compare the block kernels against; no engine calls it.

**Monomial fusion** sits on top of the classification: at compile time,
runs of consecutive diag/perm/monomial kernels collapse into one
gather-multiply (``"fused"``).  Fusion only composes phases when the
rounding is provably unchanged (at most one member of a run carries phases
outside ``{±1, ±i}``; multiplication by those units is exact in IEEE
arithmetic), so a fused program is bit-for-bit equal to its unfused
counterpart.

Gather kernels (perm, monomial, fused) are *span-local*: an index over the
axes from the lowest to the highest touched device, applied as one axis-1
``take`` of a ``(batch * left, span, right)`` view.  The take is unbuffered
(numpy ``mode="clip"``), so each index is range-checked when its kernel is
built and a gather never writes over its input.

**Truncated registers.**  A program simulates only the levels its
trajectories can reach.  :func:`compile_program` propagates each device's
reachable levels to a fixed point over the program: it starts from the
levels the default sampler's placement embedding populates (all levels
when the circuit has no placement), adds a gate's image from its unitary's
nonzero pattern over the product of its devices' levels, all levels for a
full-dimension depolarizing draw, levels ``{0, 1}`` for a qubit-mode draw
(all levels once level 2 is reachable: the draw acts on a ququart's slot-1
qubit, so it pairs level 2 with level 3), and level 0 for damping.  Each
device keeps the prefix ``0..k-1`` up to its highest reachable level, and
``TrajectoryProgram.dims`` is that truncated register.  Every kernel is
built on the restricted block ``P U P``, every idle window on the prefix of
its decay probabilities and every Weyl error factor on the truncated
levels.  The prefix product is closed under every
step, so each restricted block is itself unitary (a monomial stays a
range-checked gather, with no zero-fill).  Inputs enter the register
through :meth:`TrajectoryProgram.restrict`, which raises on any nonzero
amplitude outside it.  A device whose levels are all reachable compiles to
exactly the program of the untruncated register.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
import numpy as np

from repro.backends.numpy_backend import take_batch
from repro.core.physical import PhysicalCircuit, PhysicalOp, Slot
from repro.noise.channels import _sample_error_indices, _weyl_factors
from repro.noise.model import NoiseModel
from repro.qudit.states import apply_unitary, apply_unitary_batch
from repro.qudit.unitaries import embed_qubit_unitary

__all__ = [
    "GateStep",
    "IdleStep",
    "TrajectoryProgram",
    "cached_compile_program",
    "compile_program",
    "device_populations",
    "device_populations_batch",
    "idle_no_jump_terms",
    "no_jump_scales",
    "no_jump_scales_batch",
    "placement_levels",
    "program_fingerprint",
]

#: Largest number of perm/monomial gather indices per program (each spans its
#: op's axes; the Fig. 7 grid needs at most 31).  Ops beyond the cap simply
#: fall back to the generic kernel, which gives the same bits at every block
#: size, so the fallback cannot make block sizes diverge.
_MAX_GATHER_ENTRIES = 256

#: Above this many elements (batch * hilbert_dim) a ``single`` kernel that
#: runs the complex einsum is applied row by row instead of through one
#: batched contraction, whose loop order over a huge block loses to the
#: cache-friendly per-row path.  A real ``single`` kernel off the last axis
#: runs one float64 einsum at every size.  Purely a speed knob — both
#: variants are bit-for-bit identical to the one-statevector kernel.
_SINGLE_BATCH_ELEMENT_LIMIT = 1 << 20

#: Largest number of materialized fused kernels per program (each owns an
#: index and phases over its run's span; the Fig. 7 grid needs at most 42).
#: Runs beyond the cap simply stay unfused, which is the same arithmetic
#: executed in more steps.
_MAX_FUSED_ENTRIES = 128

#: Unit phases whose complex multiplication is exact in IEEE double
#: arithmetic (a sign flip and/or a real/imaginary component swap).  Runs
#: containing at most one kernel with phases outside this set may be fused
#: without changing any rounding (see `_fuse_gate_runs`).
_EXACT_UNIT_PHASES = (1.0 + 0.0j, -1.0 + 0.0j, 1.0j, -1.0j)


# ---------------------------------------------------------------------------
# kernel classification
# ---------------------------------------------------------------------------


@dataclass
class _Kernel:
    """How to apply one unitary to the register, scalar or batched.

    ``reshape`` splits the register into ``(left, span, right)`` around the
    touched axes; a gather's ``index`` maps the ``span`` axis and its phases
    broadcast over the register but vary only within the span.  ``"fused"``
    kernels come from compile-time monomial fusion, never classification,
    and have no ``unitary``.  A ``single`` kernel whose unitary has no
    imaginary part carries its real part as a contiguous float64 ``real``.
    """

    kind: str  # "diag" | "perm" | "monomial" | "fused" | "single" | "generic"
    unitary: np.ndarray | None
    targets: tuple[int, ...]
    index: np.ndarray | None = None  # span-local gather (perm / monomial / fused)
    phase: np.ndarray | None = None  # broadcast-ready phases
    reshape: tuple[int, int, int] | None = None  # (left, span, right)
    real: np.ndarray | None = None  # float64 unitary of a real single kernel


def _gather_kernel(
    kind: str, unitary, targets: tuple[int, ...], index: np.ndarray, phase, dims: tuple[int, ...]
) -> _Kernel:
    """A gather kernel; the unbuffered apply relies on this range check."""
    reshape = _span_reshape(targets, dims)
    if index.shape != reshape[1:2] or index.min() < 0 or index.max() >= reshape[1]:
        raise ValueError(f"{kind} kernel on {targets}: gather index leaves its span")
    return _Kernel(kind, unitary, targets, index=index, phase=phase, reshape=reshape)


def _monomial_structure(unitary: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Return ``(source, phases)`` when every row has exactly one nonzero."""
    nonzero = unitary != 0
    if not np.all(np.count_nonzero(nonzero, axis=1) == 1):
        return None
    source = np.argmax(nonzero, axis=1).astype(np.int64, copy=False)
    phases = unitary[np.arange(unitary.shape[0]), source].astype(np.complex128, copy=False)
    return source, phases


def _gather_index(
    source: np.ndarray, targets: tuple[int, ...], dims: tuple[int, ...]
) -> np.ndarray:
    """Lift an op-subspace row->column map to a gather index over ``dims``.

    Returns ``idx`` such that ``out[j] = state[idx[j]]`` implements the
    permutation part of the monomial on a ``dims``-shaped register.  The map
    is applied on the target axes only: ``arange(total)`` viewed as a
    ``dims``-shaped tensor, with the target axes moved to the front (in
    ``targets`` order), has its rows gathered by ``source`` and its axes
    moved back, so no per-entry digit arithmetic runs over the register.
    """
    total = math.prod(dims)
    front = tuple(range(len(targets)))
    flat = np.arange(total, dtype=np.int32 if total < 2**31 else np.int64)
    tensor = np.moveaxis(flat.reshape(dims), targets, front)
    rows = math.prod(tensor.shape[: len(targets)])
    gathered = tensor.reshape(rows, -1)[source].reshape(tensor.shape)
    return np.moveaxis(gathered, front, targets).reshape(-1)


def _phase_broadcast(
    phases: np.ndarray, targets: tuple[int, ...], dims: tuple[int, ...]
) -> np.ndarray:
    """Reshape per-row phases for broadcasting over a ``dims``-shaped tensor."""
    target_dims = tuple(dims[t] for t in targets)
    tensor = phases.reshape(target_dims)
    tensor = np.transpose(tensor, np.argsort(targets))
    shape = [1] * len(dims)
    for target in targets:
        shape[target] = dims[target]
    return tensor.reshape(shape)


def _span_reshape(targets: tuple[int, ...], dims: tuple[int, ...]) -> tuple[int, int, int]:
    """``(left, span, right)``: the register split around the touched axes."""
    lo, hi = min(targets), max(targets) + 1
    return math.prod(dims[:lo]), math.prod(dims[lo:hi]), math.prod(dims[hi:])


def _classify(
    unitary: np.ndarray,
    targets: tuple[int, ...],
    dims: tuple[int, ...],
    gather_budget: list[int],
) -> _Kernel:
    structure = _monomial_structure(unitary)
    if structure is not None:
        source, phases = structure
        identity_map = bool(np.array_equal(source, np.arange(source.size)))
        pure = bool(np.all(phases == 1.0))
        if identity_map and pure:
            # Identity op: applying it is still a copy in the scalar path, so
            # classify as diag with all-ones phases skipped at apply time.
            return _Kernel("diag", unitary, targets, phase=None)
        if identity_map:
            return _Kernel(
                "diag", unitary, targets, phase=_phase_broadcast(phases, targets, dims)
            )
        if gather_budget[0] > 0:
            gather_budget[0] -= 1
            lo = min(targets)
            span_dims = dims[lo : max(targets) + 1]
            index = _gather_index(source, tuple(t - lo for t in targets), span_dims)
            return _gather_kernel(
                "perm" if pure else "monomial",
                unitary,
                targets,
                index,
                None if pure else _phase_broadcast(phases, targets, dims),
                dims,
            )
    if len(targets) == 1:
        real = None if np.any(unitary.imag) else np.ascontiguousarray(unitary.real)
        return _Kernel(
            "single", unitary, targets, reshape=_span_reshape(targets, dims), real=real
        )
    return _Kernel("generic", unitary, targets)


# ---------------------------------------------------------------------------
# kernel application (the one-row reference and the block kernel share every op)
# ---------------------------------------------------------------------------


def apply_kernel(state: np.ndarray, kernel: _Kernel, dims: tuple[int, ...]) -> np.ndarray:
    """Apply a classified unitary to one flat statevector.

    This is the one-statevector reference that the kernel tests compare
    :func:`apply_kernel_batch` against, row by row; no engine calls it.
    Gathers run as the one-row case of :func:`apply_kernel_batch`.
    """
    if kernel.kind == "diag":
        if kernel.phase is None:
            return state.copy()
        return np.multiply(state.reshape(dims), kernel.phase).reshape(-1)
    if kernel.index is not None:
        return apply_kernel_batch(state.reshape(1, -1), kernel, dims).reshape(-1)
    if kernel.kind == "single":
        left, d, right = kernel.reshape
        return np.einsum("ij,ljr->lir", kernel.unitary, state.reshape(left, d, right)).reshape(-1)
    return apply_unitary(state, kernel.unitary, kernel.targets, dims)


def apply_kernel_batch(
    states: np.ndarray,
    kernel: _Kernel,
    dims: tuple[int, ...],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Apply a classified unitary to a ``(batch, dim)`` block.

    Row ``i`` of the result is bit-for-bit :func:`apply_kernel` of row ``i``:
    gathers and broadcast multiplies are element-wise identical, the batched
    einsum contracts each row exactly like the scalar einsum, and the batched
    dense apply of a generic unitary performs the identical per-slice GEMM.

    A real ``single`` kernel (``kernel.real``) off the last axis runs one
    float64 einsum over the interleaved real/imaginary view
    ``(batch * left, d, 2 * right)`` of the block, at every block size: each
    output element is a sum over ``j`` alone, so the batch layout cannot
    change it.  It equals the complex einsum bit for bit.  With
    ``Im U = 0`` the complex product's real part ``Ur*sr - 0*si`` differs
    from ``Ur*sr`` at most in the sign of a zero (likewise the imaginary
    part), and einsum's accumulator starts at +0, where adding a zero of
    either sign to +0 or to a nonzero value changes nothing.  On the last
    axis (``right == 1``) the float view is slower than the complex einsum,
    so such kernels and complex unitaries keep the complex path.

    ``out``, when given, is a scratch block of the same shape that must not
    overlap ``states``: kernels that cannot work in place write into it and
    return it, everything else modifies ``states`` in place and returns it.
    Reusing the two blocks avoids re-faulting tens of megabytes of fresh
    pages on every op, which dominates the wall-clock of large registers.
    A gather walks its ``(batch * left, span, right)`` view row by row, so
    it needs no per-row fallback on large blocks.
    """
    batch = states.shape[0]
    if kernel.kind == "diag" or kernel.index is not None:
        if kernel.index is not None:
            if out is None:
                out = np.empty_like(states)
            view = (batch * kernel.reshape[0],) + kernel.reshape[1:]
            take_batch(states.reshape(view), kernel.index, out=out.reshape(view))
            states = out
        if kernel.phase is not None:
            tensor = states.reshape((batch,) + dims)
            np.multiply(tensor, kernel.phase.reshape((1,) + kernel.phase.shape), out=tensor)
        return states
    if kernel.kind == "single":
        left, d, right = kernel.reshape
        if out is None:
            out = np.empty_like(states)
        if kernel.real is not None and right > 1:
            view = (batch * left, d, 2 * right)
            np.einsum(
                "ij,ljr->lir",
                kernel.real,
                states.view(np.float64).reshape(view),
                out=out.view(np.float64).reshape(view),
            )
            return out
        if states.size <= _SINGLE_BATCH_ELEMENT_LIMIT:
            np.einsum(
                "ij,bljr->blir",
                kernel.unitary,
                states.reshape(batch, left, d, right),
                out=out.reshape(batch, left, d, right),
            )
        else:
            # Per-row einsum: the batched contraction picks a poor loop order
            # on huge tensors; each row is the scalar kernel verbatim.
            for row in range(batch):
                np.einsum(
                    "ij,ljr->lir",
                    kernel.unitary,
                    states[row].reshape(left, d, right),
                    out=out[row].reshape(left, d, right),
                )
        return out
    return apply_unitary_batch(states, kernel.unitary, kernel.targets, dims)


# ---------------------------------------------------------------------------
# program events
# ---------------------------------------------------------------------------


@dataclass
class GateStep:
    """One scheduled op with its kernel and optional depolarizing channel."""

    op: PhysicalOp
    kernel: _Kernel
    error_dims: tuple[int, ...] | None = None  # None: no depolarizing draw
    error_rate: float = 0.0


@dataclass
class IdleStep:
    """An idle window on one device with precomputed damping data.

    ``weights`` / ``sqrt_weights`` are the no-jump Kraus tables derived from
    ``lambdas`` once at program-compile time, so neither the per-step scale
    computation nor the fast path's vectorized variants rebuild them per
    trajectory (the values are exactly the ones the scale helpers used to
    compute inline, so nothing changes numerically).
    """

    device: int
    dim: int
    idle_ns: float
    lambdas: list[float]
    outcomes: list[int]
    reshape: tuple[int, int, int]  # (left, d, right) of the device axis
    weights: tuple[float, ...] = None  # (1, 1-l_1, ...): no-jump Kraus weights
    sqrt_weights: np.ndarray = None  # sqrt of the weights, as an array

    def __post_init__(self) -> None:
        if self.weights is None:
            self.weights = (1.0,) + tuple(1.0 - lam for lam in self.lambdas)
        if self.sqrt_weights is None:
            self.sqrt_weights = np.array([math.sqrt(w) for w in self.weights])


@dataclass
class TrajectoryProgram:
    """A physical circuit compiled against a noise model, ready to execute.

    ``dims`` is the simulated register: each device truncated to the levels
    its trajectories can reach (see the module docstring), so it may be
    smaller than ``physical.device_dims``.
    """

    physical: PhysicalCircuit
    noise_model: NoiseModel
    dims: tuple[int, ...]
    steps: list[GateStep | IdleStep] = field(default_factory=list)
    ideal_steps: list[GateStep] = field(default_factory=list)
    fuse: bool = True  # whether monomial fusion ran (part of the content key)

    def _level_slices(self) -> tuple[slice, ...]:
        return (slice(None),) + tuple(slice(0, k) for k in self.dims)

    def restrict(self, states: np.ndarray) -> np.ndarray:
        """A fresh ``(batch, prod(dims))`` copy of a block of statevectors.

        Rows may be given on the full physical register or already on the
        program's register.  Full rows are cut down to the simulated levels;
        a nonzero amplitude on any other level raises ``ValueError`` (it is
        never dropped).
        """
        states = np.asarray(states, dtype=np.complex128)
        full = tuple(self.physical.device_dims)
        size = math.prod(self.dims)
        if states.shape[-1] not in (size, math.prod(full)):
            raise ValueError(
                f"states have {states.shape[-1]} amplitudes; the register of "
                f"{full} has {math.prod(full)} (simulated levels {self.dims}: {size})"
            )
        if states.shape[-1] == size:
            return np.array(states)
        tensor = states.reshape((states.shape[0],) + full)
        kept = tensor[self._level_slices()]
        if np.count_nonzero(kept) != np.count_nonzero(tensor):
            raise ValueError(
                f"an input state has amplitude outside the levels {self.dims} the "
                f"program simulates on the register {full}; the levels come from the "
                "circuit's initial placement"
            )
        return np.ascontiguousarray(kept).reshape(states.shape[0], size)

    def expand(self, states: np.ndarray) -> np.ndarray:
        """Zero-fill a ``(batch, prod(dims))`` block onto the full physical register."""
        full = tuple(self.physical.device_dims)
        if self.dims == full:
            return states
        tensor = np.zeros((states.shape[0],) + full, dtype=states.dtype)
        tensor[self._level_slices()] = states.reshape((states.shape[0],) + self.dims)
        return tensor.reshape(states.shape[0], -1)


def placement_levels(physical: PhysicalCircuit) -> np.ndarray | None:
    """Per device, the level each embedded logical basis state populates.

    Row ``d`` gives device ``d``'s level for every logical basis index
    (logical qubit 0 is the most significant bit), as the default sampler's
    placement embedding lays it out: the qubit in a ququart's slot 0 sets
    level 2 and the one in slot 1 level 1; a 2-level device holds its qubit
    in slot 1.  ``None`` without a placement: the default sampler then
    draws over the whole register.
    """
    placement = physical.initial_placement
    num_qubits = physical.num_logical_qubits
    if placement is None or num_qubits is None:
        return None
    basis = np.arange(2**num_qubits)
    levels = np.zeros((physical.num_devices, basis.size), dtype=np.int64)
    for device in range(physical.num_devices):
        for slot, weight in ((0, 2), (1, 1)):
            qubit = placement.qubit_at(Slot(device, slot))
            if qubit is not None:
                levels[device] += weight * ((basis >> (num_qubits - 1 - qubit)) & 1)
    return levels


def _initial_levels(physical: PhysicalCircuit) -> list[int]:
    """Per device, 1 + the highest level the default sampler can populate."""
    levels = placement_levels(physical)
    if levels is None:
        return list(physical.device_dims)
    return [int(row.max()) + 1 for row in levels]


def _image_levels(unitary: np.ndarray, op_dims: tuple[int, ...], levels: tuple[int, ...]) -> tuple[int, ...]:
    """Per device, 1 + the highest level ``unitary`` reaches from prefix ``levels``."""
    allowed = np.zeros(op_dims, dtype=bool)
    allowed[tuple(slice(0, k) for k in levels)] = True
    reached = np.any(unitary[:, allowed.reshape(-1)] != 0, axis=1).reshape(op_dims)
    return tuple(int(axis.max()) + 1 for axis in np.nonzero(reached))


def _reachable_levels(physical: PhysicalCircuit, gate_steps: list[GateStep]) -> tuple[int, ...]:
    """Per device, the prefix of levels closed under every step of the program.

    Starts from :func:`_initial_levels` and grows each device's prefix until
    no gate image, depolarizing draw or damping jump leaves the product of
    prefixes.  Damping only adds level 0, which every prefix holds.  The
    result never depends on the ops' ``sets_mode`` annotations: a lone qubit
    in slot 0 is annotated with mode 2 but populates levels 1 and 3 after a
    full-dimension depolarizing draw.
    """
    full = physical.device_dims
    levels = _initial_levels(physical)
    unitaries = [physical.op_unitary(step.op) for step in gate_steps]  # keeps each id unique
    images: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}
    changed = True
    while changed:
        changed = False
        for step, unitary in zip(gate_steps, unitaries):
            devices = step.op.devices
            before = tuple(levels[d] for d in devices)
            key = (id(unitary), before)
            if key not in images:
                images[key] = _image_levels(unitary, tuple(full[d] for d in devices), before)
            after = images[key]
            if step.error_dims is not None:
                # A full-dimension Weyl draw shifts through every level; a
                # qubit-mode draw acts on a ququart's slot-1 qubit (level
                # pairs 0-1 and 2-3), so it also fills a device holding level 2.
                after = tuple(
                    full[d] if err == full[d] or level > 2 else max(level, 2)
                    for d, err, level in zip(devices, step.error_dims, after)
                )
            for device, level in zip(devices, after):
                if level > levels[device]:
                    levels[device] = level
                    changed = True
    return tuple(levels)


def _restricted_block(unitary: np.ndarray, op_dims: tuple[int, ...], levels: tuple[int, ...]) -> np.ndarray:
    """``P U P`` of an op's unitary on the prefix ``levels`` of its devices."""
    if levels == op_dims:
        return unitary
    keep = np.zeros(op_dims, dtype=bool)
    keep[tuple(slice(0, k) for k in levels)] = True
    index = np.flatnonzero(keep)
    return np.ascontiguousarray(unitary[np.ix_(index, index)])


def compile_program(
    physical: PhysicalCircuit, noise_model: NoiseModel, fuse: bool = True
) -> TrajectoryProgram:
    """Flatten a physical circuit and a noise model into a trajectory program.

    The event sequence fixes the per-trajectory RNG consumption order: per
    scheduled op, an idle-damping event for every participating device that
    sat idle (in device order of the op), then the op with its optional
    depolarizing draw, and trailing idle events for every device after the
    last op.  ``ideal_steps`` replays the plain op list without noise.

    The register is truncated to the reachable levels of each device (see
    the module docstring); the events, their RNG consumption and the
    depolarizing draws' ``error_dims`` are those of the full register.

    ``fuse=True`` (the default) collapses runs of consecutive
    diag/perm/monomial kernels into single fused gather-multiplies wherever
    that provably changes no rounding; a fused program is bit-for-bit
    equivalent to the unfused one at every block size.
    """
    full = tuple(physical.device_dims)
    schedule = physical.schedule()
    last_busy = {device: 0.0 for device in range(physical.num_devices)}
    modes = {
        device: physical.initial_modes.get(device, 0)
        for device in range(physical.num_devices)
    }
    # Events first, with kernels and idle tables left for the truncated
    # register: an idle event is its (device, idle_ns) pair.
    events: list[GateStep | tuple[int, float]] = []
    for item in schedule:
        op = item.op
        if noise_model.amplitude_damping_enabled:
            for device in op.devices:
                idle = item.start - last_busy[device]
                if idle > 0:
                    events.append((device, idle))
        step = GateStep(op=op, kernel=None)
        if noise_model.depolarizing_enabled and op.error_rate > 0.0:
            step.error_dims = tuple(
                2 if modes.get(device, 0) <= 1 else full[device] for device in op.devices
            )
            step.error_rate = op.error_rate
        events.append(step)
        for device in op.devices:
            last_busy[device] = item.end
        for device, new_mode in op.sets_mode:
            modes[device] = new_mode

    if noise_model.amplitude_damping_enabled:
        total = max((item.end for item in schedule), default=0.0)
        for device in range(physical.num_devices):
            idle = total - last_busy[device]
            if idle > 0:
                events.append((device, idle))

    # The noisy steps hold every op of the ideal path too, so their fixed
    # point covers both.
    dims = _reachable_levels(physical, [event for event in events if isinstance(event, GateStep)])
    program = TrajectoryProgram(physical=physical, noise_model=noise_model, dims=dims, fuse=fuse)
    kernel_cache: dict[tuple[int, tuple[int, ...]], tuple[np.ndarray, _Kernel]] = {}
    gather_budget = [_MAX_GATHER_ENTRIES]

    def kernel_for(op: PhysicalOp) -> _Kernel:
        unitary = physical.op_unitary(op)
        key = (id(unitary), op.devices)
        cached = kernel_cache.get(key)
        if cached is None:
            block = _restricted_block(
                unitary, tuple(full[d] for d in op.devices), tuple(dims[d] for d in op.devices)
            )
            # The entry pins the full unitary, so its id stays unique.
            cached = (unitary, _classify(block, op.devices, dims, gather_budget))
            kernel_cache[key] = cached
        return cached[1]

    def idle_step(device: int, idle_ns: float) -> IdleStep:
        dim = dims[device]
        return IdleStep(
            device=device,
            dim=dim,
            idle_ns=idle_ns,
            lambdas=noise_model.idle_decay_probabilities(dim, idle_ns),
            outcomes=[0] + list(range(1, dim)),
            reshape=_span_reshape((device,), dims),
        )

    for event in events:
        if isinstance(event, GateStep):
            event.kernel = kernel_for(event.op)
            program.steps.append(event)
        else:
            program.steps.append(idle_step(*event))
    program.ideal_steps = [GateStep(op=op, kernel=kernel_for(op)) for op in physical.ops]

    if fuse:
        fuser = _Fuser(dims)
        program.steps = _fuse_gate_runs(program.steps, fuser)
        program.ideal_steps = _fuse_gate_runs(program.ideal_steps, fuser)
    return program


def _program_cache_key(physical: PhysicalCircuit, noise_model: NoiseModel, fuse: bool) -> str:
    """Content key of one compiled trajectory program (disk-cache layer)."""
    from repro.core.compile_cache import CACHE_SCHEMA_VERSION, fingerprint, physical_token

    coherence = noise_model.coherence
    noise = (
        f"noise:{coherence.base_t1_ns!r}:{coherence.excited_scale!r}:"
        f"{noise_model.depolarizing_enabled}:{noise_model.amplitude_damping_enabled}"
    )
    return fingerprint(
        [
            "program",
            f"schema:{CACHE_SCHEMA_VERSION}",
            physical_token(physical),
            noise,
            f"fuse:{fuse}",
        ]
    )


def program_fingerprint(program: TrajectoryProgram) -> str:
    """Stable content key of a compiled program (physical ops, noise, fusion).

    This is the program part of the fast path's checkpoint-record keys: two
    programs with the same fingerprint execute the identical event sequence
    with the identical precomputed constants, so their no-jump evolutions of
    any given input state are bit-for-bit interchangeable.
    """
    token = program.__dict__.get("_fingerprint")
    if token is None:
        token = _program_cache_key(program.physical, program.noise_model, program.fuse)
        program.__dict__["_fingerprint"] = token
    return token


def cached_compile_program(
    physical: PhysicalCircuit, noise_model: NoiseModel, fuse: bool = True
) -> TrajectoryProgram:
    """:func:`compile_program` through the shared compilation-artifact cache.

    Without ``$REPRO_CACHE_DIR`` this is exactly :func:`compile_program`.
    With it, programs are keyed by the physical op stream, the noise-model
    parameters and the fusion flag, so every ``SweepRunner`` worker process
    (and repeated runs) deserializes one shared artifact instead of
    re-deriving unitaries, gathers and fused kernels.  Pickling arrays is an
    exact round-trip, so a cached program is bit-for-bit equivalent.
    """
    from repro.core.compile_cache import get_cache

    cache = get_cache()
    if not cache.persistent:
        return compile_program(physical, noise_model, fuse=fuse)
    key = _program_cache_key(physical, noise_model, fuse)
    return cache.get_or_create(key, lambda: compile_program(physical, noise_model, fuse=fuse))


# ---------------------------------------------------------------------------
# compile-time monomial fusion
# ---------------------------------------------------------------------------

#: Kernel kinds that may participate in a fused run.
_FUSABLE_KINDS = ("diag", "perm", "monomial")


def _phases_are_exact_units(phase: np.ndarray | None) -> bool:
    """Whether every phase is in ``{±1, ±i}`` (multiplication is then exact)."""
    if phase is None:
        return True
    flat = phase.reshape(-1)
    exact = np.zeros(flat.shape, dtype=bool)
    for unit in _EXACT_UNIT_PHASES:
        exact |= flat == unit
    return bool(np.all(exact))


class _Fuser:
    """Builds fused kernels for runs of monomial-family steps, memoized.

    Identical runs (same member kernel objects, which the per-program kernel
    cache already shares between repeated ops and between ``steps`` and
    ``ideal_steps``) fuse once.  At most :data:`_MAX_FUSED_ENTRIES` fused
    kernels are materialized per program; later runs stay unfused, which is
    the same arithmetic executed in more steps.
    """

    def __init__(self, dims: tuple[int, ...]):
        self.dims = dims
        self.budget = _MAX_FUSED_ENTRIES
        self.cache: dict[tuple[int, ...], _Kernel] = {}

    def fuse(self, members: list[_Kernel]) -> _Kernel | None:
        key = tuple(id(kernel) for kernel in members)
        fused = self.cache.get(key)
        if fused is not None:
            return fused
        if self.budget <= 0:
            return None
        self.budget -= 1
        fused = self._build(members)
        self.cache[key] = fused
        return fused

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
        # Compose over the run's span by gathering: a member's gather applied
        # to the running index composes the two maps (``index[member]``), and
        # applied to the running phases carries them to their new positions
        # before the member's own phases multiply in.  Every entry goes
        # through the same gathers and complex multiplies, in the same order,
        # as the sequential per-step application.
        left, span, right = _span_reshape(targets, dims)
        lo, hi = targets[0], targets[-1] + 1
        index = np.arange(span, dtype=np.int32 if span < 2**31 else np.int64)
        phase = None
        for kernel in members:
            if kernel.index is not None:
                m_left, m_span, m_right = kernel.reshape
                shape = (m_left // left, m_span, m_right // right)
                index = np.take(index.reshape(shape), kernel.index, axis=1).reshape(-1)
                if phase is not None:
                    phase = np.take(phase.reshape(shape), kernel.index, axis=1).reshape(-1)
            if kernel.phase is not None:
                local = kernel.phase.reshape(kernel.phase.shape[lo:hi])
                flat = np.broadcast_to(local, dims[lo:hi]).reshape(-1)
                phase = flat if phase is None else phase * flat
        if phase is not None:
            phase = phase.reshape((1,) * lo + dims[lo:hi] + (1,) * (len(dims) - hi))
        return _gather_kernel("fused", None, targets, index, phase, dims)


def _fuse_gate_runs(
    steps: list[GateStep | IdleStep], fuser: _Fuser
) -> list[GateStep | IdleStep]:
    """Collapse runs of consecutive monomial-family gate steps.

    A run ends at any idle event, at any non-monomial kernel, and right
    after a step that draws a depolarizing error (the draw consumes RNG
    between the two unitaries, so fusing across it would change the
    stochastic stream).  Within a run, at most one member may carry phases
    outside ``{±1, ±i}``: multiplying by those units is exact, so composing
    the phases at compile time reproduces the sequential per-step multiplies
    bit for bit.  Runs that would exceed that rule are split, never
    approximated.
    """
    fused_steps: list[GateStep | IdleStep] = []
    run: list[GateStep] = []
    run_has_inexact = False

    def flush() -> None:
        nonlocal run, run_has_inexact
        if len(run) >= 2:
            fused = fuser.fuse([step.kernel for step in run])
            if fused is None:
                fused_steps.extend(run)
            else:
                last = run[-1]
                fused_steps.append(
                    GateStep(
                        op=last.op,
                        kernel=fused,
                        error_dims=last.error_dims,
                        error_rate=last.error_rate,
                    )
                )
        else:
            fused_steps.extend(run)
        run = []
        run_has_inexact = False

    for step in steps:
        if isinstance(step, GateStep) and step.kernel.kind in _FUSABLE_KINDS:
            inexact = not _phases_are_exact_units(step.kernel.phase)
            if run_has_inexact and inexact:
                flush()
            run.append(step)
            run_has_inexact = run_has_inexact or inexact
            if step.error_dims is not None:
                flush()
        else:
            flush()
            fused_steps.append(step)
    flush()
    return fused_steps


# ---------------------------------------------------------------------------
# idle-damping decisions (per-row float arithmetic of the engine and the prescan)
# ---------------------------------------------------------------------------


def device_populations(state: np.ndarray, step: IdleStep) -> np.ndarray:
    """Level populations of the idle device, from one flat statevector.

    The statevector is viewed as interleaved float64 pairs so the squared
    magnitudes and the marginalization fuse into a single contraction (no
    temporaries).  This is the per-row reference of
    :func:`device_populations_batch`.
    """
    left, d, right = step.reshape
    floats = state.view(np.float64).reshape(left, d, 2 * right)
    return np.einsum("ldr,ldr->d", floats, floats)


def device_populations_batch(states: np.ndarray, step: IdleStep) -> np.ndarray:
    """Per-row level populations of a ``(batch, dim)`` block.

    Row ``i`` of the result is bit-for-bit :func:`device_populations` of
    row ``i``, whatever the block size, because each row is contracted on
    its own (asserted by ``tests/test_block_size_invariance.py`` and
    ``tests/test_fastpath.py``).  One einsum over the whole block would not
    keep that promise: once a row outgrows numpy's 8192-element reduction
    buffer it can group the sum differently (first seen on 2**15-amplitude
    rows).  It is not faster either: on 16-row blocks of 4^5 to 4^7
    amplitudes the row loop takes half its time.
    """
    populations = np.empty((states.shape[0], step.reshape[1]))
    for row, state in enumerate(states):
        populations[row] = device_populations(state, step)
    return populations


def idle_no_jump_terms(
    step: IdleStep, populations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized ``(p0, total, consumes)`` of one idle draw per row.

    ``populations`` is a ``(rows, d)`` block; the return values replicate
    :func:`draw_idle_choice` exactly, element for element: a row consumes
    one uniform iff ``total > 0``, and it takes the no-jump branch iff
    ``u * total < p0`` — the identical float comparisons the scalar walk
    performs, so replaying recorded populations against a trajectory's
    uniforms reproduces its decisions bit for bit.  This is the per-step
    reference of the replay arithmetic; the adaptive prescan's segment scan
    (``repro.noise.fastpath._scan_segment``) repeats it with an event axis
    and zero-padded levels — change both together.
    """
    rows = populations.shape[0]
    decay_sum = np.zeros(rows)
    decay_probs = []
    for level in range(1, step.dim):
        decay = step.lambdas[level - 1] * populations[:, level]
        decay_probs.append(decay)
        decay_sum = decay_sum + decay
    no_decay = 1.0 - decay_sum
    # np.maximum matches Python's max(no_decay, 0.0) element for element,
    # including NaN propagation (both keep the NaN first argument).
    p0 = np.maximum(no_decay, 0.0)
    total = p0.copy()
    for decay in decay_probs:
        total = total + decay
    consumes = ~(total <= 0.0)
    return p0, total, consumes


def no_jump_scales_batch(step: IdleStep, populations: np.ndarray) -> np.ndarray:
    """Per-row no-jump scale factors of a ``(rows, d)`` population block.

    Rows whose no-jump norm is not positive come back as all-ones — exactly
    how the batched executor treats a skipped update (a multiply by 1.0,
    which the equality suite pins as a bitwise no-op).  Valid rows match
    :func:`no_jump_scales` element for element: the norm accumulates in the
    same level order and the final product multiplies the same precomputed
    square roots.
    """
    rows = populations.shape[0]
    norm_sq = np.zeros(rows)
    for level, weight in enumerate(step.weights):
        norm_sq = norm_sq + weight * populations[:, level]
    valid = norm_sq > 0.0
    inverse_norm = 1.0 / np.sqrt(np.where(valid, norm_sq, 1.0))
    scales = step.sqrt_weights[None, :] * inverse_norm[:, None]
    scales[~valid] = 1.0
    return scales


def draw_idle_choice(
    step: IdleStep, populations: np.ndarray, rng: np.random.Generator
) -> int | None:
    """Draw which damping outcome occurs (0 = no jump), or None to skip.

    Consumes exactly one uniform; the inverse-CDF walk over at most four
    outcomes replaces ``Generator.choice`` (which validates and cumsums its
    probability vector on every call, dominating small-register sweeps).
    """
    decay_probs = [step.lambdas[m - 1] * populations[m] for m in range(1, step.dim)]
    no_decay = 1.0 - sum(decay_probs)
    probabilities = [max(no_decay, 0.0)] + decay_probs
    total = sum(probabilities)
    if total <= 0:
        return None
    threshold = rng.random() * total
    cumulative = 0.0
    for outcome, probability in zip(step.outcomes, probabilities):
        cumulative += probability
        if threshold < cumulative:
            return outcome
    return step.outcomes[-1]


def no_jump_scales(step: IdleStep, populations: np.ndarray) -> np.ndarray | None:
    """Per-level scale factors of the renormalized no-jump update.

    The no-jump Kraus operator is ``diag(1, sqrt(1-l_1), ...)``; its output
    norm is known analytically from the level populations, so the update and
    the renormalization collapse into one multiply.  The weight tables are
    precomputed on the step at program-compile time: the returned values are
    exactly the ones the inline ``[1.0] + [1.0 - lam ...]`` rebuild used to
    produce, without the per-call list and array allocations.
    """
    norm_sq = sum(w * populations[m] for m, w in enumerate(step.weights))
    if norm_sq <= 0.0:
        return None
    inverse_norm = 1.0 / math.sqrt(norm_sq)
    return step.sqrt_weights * inverse_norm


def jump_scale(step: IdleStep, choice: int, populations: np.ndarray) -> float | None:
    """Amplitude scale of the renormalized decay ``|choice> -> |0>`` jump."""
    lam = step.lambdas[choice - 1]
    norm_sq = lam * float(populations[choice])
    if norm_sq <= 0.0:
        return None
    return math.sqrt(lam) / math.sqrt(norm_sq)


def sample_gate_error(
    step: GateStep,
    dims: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Draw the post-gate depolarizing error operator, or None (no error)."""
    indices = _sample_error_indices(step.error_dims, step.error_rate, rng)
    if indices is None:
        return None
    actual_dims = tuple(dims[d] for d in step.op.devices)
    result = np.array([[1.0]], dtype=np.complex128)
    for err_dim, actual_dim, local in zip(step.error_dims, actual_dims, indices):
        result = np.kron(result, _error_factor(err_dim, actual_dim, local))
    return result


@lru_cache(maxsize=64)
def _error_factor(err_dim: int, actual_dim: int, local: int) -> np.ndarray:
    """Weyl factor ``local`` of an ``err_dim`` device lifted onto ``actual_dim``.

    A qubit-mode factor on a ququart acts on its slot-1 qubit (the low bit
    of the level); on a ququart truncated to levels ``|0>, |1>`` that is the
    factor itself.  The result is read-only and shared between draws.
    """
    factor = _weyl_factors(err_dim)[local]
    if err_dim == actual_dim:
        return factor
    if err_dim == 2 and actual_dim == 4:
        lifted = embed_qubit_unitary(factor, [(0, 1)], (4,))
        lifted.flags.writeable = False
        return lifted
    raise ValueError(f"cannot embed error of dim {err_dim} on device of dim {actual_dim}")
