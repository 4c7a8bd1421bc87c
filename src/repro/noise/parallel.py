"""Shared-memory multi-core trajectory runner.

:func:`run_parallel_fidelities` splits a list of pre-spawned per-trajectory
RNG streams into contiguous chunks and runs each chunk in a worker process
through :meth:`TrajectorySimulator._fidelities_for_streams` — the exact
single-core code path (the batched engine, one row per block unless
``batch_size`` says otherwise).  Because every trajectory consumes only
its own stream, the concatenated result is bit-for-bit identical to the
``workers=1`` run for any worker count (enforced by
``tests/test_parallel.py``).

On platforms with ``fork`` (Linux), workers are forked from the parent, so
the physical circuit, noise model and compiled constants are inherited as
shared copy-on-write pages — nothing heavy is pickled, and non-picklable
state samplers keep working.  On spawn-only platforms the per-worker payload
is pickled instead (custom samplers must then be picklable; passing
``sampler=None`` makes each worker rebuild the default Haar sampler).

Each worker compiles the trajectory program once (in its initializer-built
simulator) and reuses it for every chunk it processes.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np

from repro.core.physical import PhysicalCircuit
from repro.noise.model import NoiseModel

__all__ = ["resolve_workers", "run_parallel_fidelities", "split_chunks"]

#: Per-process worker context, set by the pool initializer.
_WORKER: dict | None = None


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers`` argument: None -> 1, "auto" -> CPU count."""
    if workers is None:
        return 1
    if workers == "auto":
        return os.cpu_count() or 1
    count = int(workers)
    if count < 1:
        raise ValueError("workers must be at least 1")
    return count


def split_chunks(count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``(start, stop)`` ranges, one per worker."""
    if count < 1:
        raise ValueError("need at least one item to split")
    workers = min(max(workers, 1), count)
    base, extra = divmod(count, workers)
    chunks = []
    start = 0
    for index in range(workers):
        stop = start + base + (1 if index < extra else 0)
        chunks.append((start, stop))
        start = stop
    return chunks


def _make_context(
    physical: PhysicalCircuit,
    noise_model: NoiseModel,
    sampler: Callable[[np.random.Generator], np.ndarray] | None,
    batch_size: int | None,
    backend_spec: tuple[str, dict],
    fuse: bool,
) -> dict:
    from repro.backends import build_backend
    from repro.noise.trajectory import TrajectorySimulator, _default_state_sampler

    name, kwargs = backend_spec
    simulator = TrajectorySimulator(
        noise_model=noise_model,
        backend=build_backend(name, kwargs),
        fuse=fuse,
    )
    return {
        "simulator": simulator,
        "physical": physical,
        "sampler": sampler or _default_state_sampler(physical, simulator.program_for(physical).dims),
        "batch_size": batch_size,
    }


def _init_worker(physical, noise_model, sampler, batch_size, backend_spec, fuse) -> None:
    global _WORKER
    _WORKER = _make_context(physical, noise_model, sampler, batch_size, backend_spec, fuse)


def _run_chunk(task: tuple[int, list[np.random.Generator]]) -> tuple[int, list[float]]:
    start, streams = task
    context = _WORKER
    fidelities = context["simulator"]._fidelities_for_streams(
        context["physical"], streams, context["sampler"], context["batch_size"]
    )
    return start, fidelities


def _pool_context(host_memory: bool) -> mp.context.BaseContext:
    """Prefer fork (shared copy-on-write pages) — except for accelerator
    backends, whose device contexts (CUDA) do not survive a fork."""
    if host_memory and "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    if "spawn" in mp.get_all_start_methods():
        return mp.get_context("spawn")
    return mp.get_context()


def run_parallel_fidelities(
    physical: PhysicalCircuit,
    noise_model: NoiseModel,
    streams: Sequence[np.random.Generator],
    sampler: Callable[[np.random.Generator], np.ndarray] | None,
    batch_size: int | None,
    workers: int | str | None,
    backend: str | tuple[str, dict] = "numpy",
    fuse: bool = True,
    host_memory: bool = True,
) -> list[float]:
    """Per-trajectory fidelities of ``streams``, fanned across processes.

    ``sampler=None`` means the default Haar-random logical sampler, rebuilt
    inside each worker.  ``backend`` is a registry name or a
    :meth:`~repro.backends.base.ArrayBackend.spawn_spec` pair; pass
    ``host_memory=False`` for accelerator backends so workers spawn instead
    of forking an initialized device context.  Results come back in stream
    order regardless of which worker finished first.
    """
    streams = list(streams)
    backend_spec = (backend, {}) if isinstance(backend, str) else backend
    workers = min(resolve_workers(workers), len(streams))
    if workers <= 1:
        context = _make_context(physical, noise_model, sampler, batch_size, backend_spec, fuse)
        return context["simulator"]._fidelities_for_streams(
            context["physical"], streams, context["sampler"], context["batch_size"]
        )
    chunks = split_chunks(len(streams), workers)
    tasks = [(start, streams[start:stop]) for start, stop in chunks]
    payload = (physical, noise_model, sampler, batch_size, backend_spec, fuse)
    by_start: dict[int, list[float]] = {}
    # repro-lint: disable=ENG001 -- trajectory-level fan-out engine: SweepRunner delegates per-point trajectory work here; results are stream-ordered, so worker count never changes bytes
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(host_memory),
        initializer=_init_worker,
        initargs=payload,
    ) as pool:
        for start, fidelities in pool.map(_run_chunk, tasks):
            by_start[start] = fidelities
    ordered: list[float] = []
    for start, _stop in chunks:
        ordered.extend(by_start[start])
    return ordered
