"""Tests for the adaptive prescan and its in-process checkpoint resume.

The contract: prescanning a round of streams and resuming its deviating
streams from the round's own checkpoints returns, per stream, **bit for
bit** the fidelity the explicit engine computes for that
stream — fused or unfused, at any block size and checkpoint stride, for
deviations in any segment.  Fixed-count runs never touch this machinery,
and no no-jump record outlives the call that built it.

The property suite additionally pins the numerical assumptions the replay
is built on: batched population/scale helpers match their scalar
counterparts element for element, the stateless draw replay reproduces
``draw_idle_choice`` decisions exactly, bulk RNG draws equal scalar draws,
and generator cloning via ``bit_generator.state`` is an exact snapshot.
"""

import dataclasses
import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.noise.fastpath as fastpath_mod
from repro.circuits.circuit import QuantumCircuit
from repro.core.compile_cache import reset_cache
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.experiments import sweep as sweep_mod
from repro.experiments.fidelity_sweep import fidelity_sweep_points
from repro.experiments.scheduler import LeasedWorker, job_status, merge_job, plan_job, save_job
from repro.experiments.sweep import SweepRunner
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.fastpath import (
    NoJumpRecord,
    checkpoint_stride,
    prescan_trajectories,
    run_fastpath_fidelities,
    stats,
)
from repro.noise.model import NoiseModel
from repro.noise.program import (
    GateStep,
    IdleStep,
    apply_kernel,
    cached_compile_program,
    device_populations,
    device_populations_batch,
    draw_idle_choice,
    idle_no_jump_terms,
    no_jump_scales,
    no_jump_scales_batch,
)
from repro.noise.trajectory import TrajectorySimulator, _default_state_sampler
from repro.qudit.random import haar_random_state
from repro.topology.device import CoherenceModel
from random_circuits import random_logical_circuit
from helpers import mixed_physical
import scalar_trajectory

#: A decohering model whose idle windows jump constantly: trajectories
#: deviate early and often, exercising checkpoint restores and suffix
#: replay instead of the clean-trajectory shortcut.
JUMPY = NoiseModel(coherence=CoherenceModel(base_t1_ns=300.0))

MODELS = {"paper": NoiseModel(), "jumpy": JUMPY, "noiseless": NoiseModel.noiseless()}


def _physical(workload="mixed", strategy=Strategy.MIXED_RADIX_CCZ):
    return mixed_physical(f"fastpath-{workload}", strategy=strategy)


def _explicit(physical, model, seed, count, batch_size=None, fuse=True, sampler=None):
    """Per-stream fidelities of the explicit engine (the reference)."""
    simulator = TrajectorySimulator(model, rng=seed, fuse=fuse)
    streams = simulator.rng.spawn(count)
    sampler = sampler or _default_state_sampler(physical)
    return simulator._fidelities_for_streams(physical, streams, sampler, batch_size)


def _prescan_resume(physical, model, seed, count, batch_size=None, fuse=True, sampler=None):
    """Per-stream fidelities of prescan + resume, and the prescan itself."""
    simulator = TrajectorySimulator(model, rng=seed, fuse=fuse)
    streams = simulator.rng.spawn(count)
    sampler = sampler or _default_state_sampler(physical)
    program = simulator.program_for(physical)
    prescan = prescan_trajectories(
        physical, model, program, streams, sampler, block_size=batch_size
    )
    deviating = np.flatnonzero(~prescan.clean)
    resumed = run_fastpath_fidelities(
        physical,
        model,
        program,
        [streams[row] for row in deviating],
        sampler,
        prescan.resumes,
        batch_size,
    )
    fidelities = [float(value) for value in prescan.clean_fidelity]
    for value, row in zip(resumed, deviating):
        fidelities[row] = value
    return fidelities, prescan


def _live_records() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if isinstance(obj, NoJumpRecord))


# ---------------------------------------------------------------------------
# numerical assumptions and vectorized helpers
# ---------------------------------------------------------------------------


class TestAssumptions:
    def test_bulk_uniforms_equal_scalar_draws(self):
        bulk = np.random.default_rng(42).random(size=500)
        scalar_rng = np.random.default_rng(42)
        scalars = np.array([scalar_rng.random() for _ in range(500)])
        assert np.array_equal(bulk, scalars)

    def test_bulk_draw_advances_stream_like_scalar_draws(self):
        bulk_rng = np.random.default_rng(9)
        scalar_rng = np.random.default_rng(9)
        bulk_rng.random(size=137)
        for _ in range(137):
            scalar_rng.random()
        assert bulk_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_generator_clone_is_exact_and_independent(self):
        stream = np.random.default_rng(7).spawn(3)[1]
        clone = fastpath_mod._clone_generator(stream)
        probed = clone.random(size=64)
        live = np.array([stream.random() for _ in range(64)])
        assert np.array_equal(probed, live)


class TestVectorizedHelpers:
    def _idle_steps_and_states(self, seed):
        physical = _physical()
        program = cached_compile_program(physical, NoiseModel())
        idles = [s for s in program.steps if isinstance(s, IdleStep)]
        rng = np.random.default_rng(seed)
        dim = int(np.prod(program.dims))
        states = np.array(
            [haar_random_state(dim, rng) for _ in range(7)], dtype=np.complex128
        )
        return idles, states

    def test_batched_populations_match_scalar(self):
        idles, states = self._idle_steps_and_states(0)
        assert idles
        for step in idles:
            batched = device_populations_batch(states, step)
            for row in range(states.shape[0]):
                scalar = device_populations(states[row].copy(), step)
                assert np.array_equal(batched[row], scalar)

    def test_batched_scales_match_scalar(self):
        idles, states = self._idle_steps_and_states(1)
        for step in idles:
            populations = device_populations_batch(states, step)
            batched = no_jump_scales_batch(step, populations)
            for row in range(states.shape[0]):
                scalar = no_jump_scales(step, populations[row])
                if scalar is None:
                    assert np.all(batched[row] == 1.0)
                else:
                    assert np.array_equal(batched[row], scalar)

    def test_no_jump_terms_replicate_draw_decisions(self):
        idles, states = self._idle_steps_and_states(2)
        uniforms = np.random.default_rng(3).random(size=states.shape[0])

        class FixedUniform:
            def __init__(self, value):
                self.value = value

            def random(self):
                return self.value

        for step in idles:
            populations = device_populations_batch(states, step)
            p0, total, consumes = idle_no_jump_terms(step, populations)
            for row in range(states.shape[0]):
                choice = draw_idle_choice(
                    step, populations[row], FixedUniform(uniforms[row])
                )
                if choice is None:
                    assert not consumes[row]
                else:
                    assert consumes[row]
                    no_jump = uniforms[row] * total[row] < p0[row]
                    assert no_jump == (choice == 0)

    def test_scale_tables_precomputed_on_idle_steps(self):
        idles, _ = self._idle_steps_and_states(4)
        for step in idles:
            assert step.weights[0] == 1.0
            assert np.array_equal(
                step.sqrt_weights, np.sqrt(np.array(step.weights))
            )


# ---------------------------------------------------------------------------
# record property: the recorded prefix == step-by-step recomputation
# ---------------------------------------------------------------------------


class TestRecordProperty:
    @pytest.mark.parametrize("seed", (11, 12))
    @pytest.mark.parametrize("strategy", (Strategy.QUBIT_ONLY, Strategy.MIXED_RADIX_CCZ))
    def test_record_matches_explicit_no_jump_evolution(self, seed, strategy):
        circuit = random_logical_circuit(seed, num_qubits=4, num_gates=12)
        physical = compile_circuit(circuit, strategy).physical_circuit
        noise_model = NoiseModel()
        program = cached_compile_program(physical, noise_model)
        dim = int(np.prod(program.dims))
        state = haar_random_state(dim, np.random.default_rng(seed))
        engine = BatchedTrajectoryEngine(physical, noise_model, program=program)
        stride = checkpoint_stride(len(program.steps))
        assert stride < len(program.steps)  # the program really has >1 segment
        (record,) = fastpath_mod._build_records(engine, np.array([state]), stride)

        # The record must match a step-by-step recomputation with the
        # one-statevector helpers, over the whole program.
        current = np.asarray(state, dtype=np.complex128).copy()
        idle_ordinal = 0
        for index, step in enumerate(program.steps):
            if isinstance(step, GateStep):
                current = apply_kernel(current, step.kernel, program.dims)
            else:
                populations = device_populations(current, step)
                recorded = record.populations[idle_ordinal]
                assert np.array_equal(recorded[: step.dim], populations)
                assert np.all(recorded[step.dim :] == 0.0)  # exact zero padding
                scales = no_jump_scales(step, populations)
                recorded_scales = record.scales[idle_ordinal]
                assert np.all(recorded_scales[step.dim :] == 1.0)
                if scales is None:
                    assert np.all(recorded_scales == 1.0)
                else:
                    assert np.array_equal(recorded_scales[: step.dim], scales)
                    left, d, right = step.reshape
                    current = (
                        current.reshape(left, d, right) * scales[None, :, None]
                    ).reshape(-1)
                idle_ordinal += 1
            boundary = index + 1
            if boundary < len(program.steps) and boundary % stride == 0:
                assert np.array_equal(record.checkpoints[boundary], current)
        assert sorted(record.checkpoints) == list(range(stride, len(program.steps), stride))
        assert np.array_equal(record.final, current)

        # The recorded ideal final equals the frozen scalar ideal evolution.
        ideal = scalar_trajectory.run_ideal(program, state)
        assert np.array_equal(record.ideal_final, ideal)

    def test_default_stride(self):
        assert checkpoint_stride(0) == 1
        assert checkpoint_stride(10) == 8
        assert checkpoint_stride(1000) == 125

    def test_stride_ignores_the_removed_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH_STRIDE", "5")
        assert checkpoint_stride(100) == 13
        assert checkpoint_stride(1000) == 125


# ---------------------------------------------------------------------------
# prescan + resume == explicit engine, bit for bit
# ---------------------------------------------------------------------------


class TestFastpathEquality:
    @given(
        seed=st.integers(0, 2**16),
        strategy=st.sampled_from(
            (Strategy.QUBIT_ONLY, Strategy.MIXED_RADIX_CCZ, Strategy.FULL_QUQUART)
        ),
        noise=st.sampled_from(sorted(MODELS)),
        fuse=st.booleans(),
        batch_size=st.sampled_from((None, 1, 3, 16)),
        segments=st.sampled_from((1, 2, 8, 64)),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_circuits(self, seed, strategy, noise, fuse, batch_size, segments):
        circuit = random_logical_circuit(seed, num_qubits=3, num_gates=10)
        physical = compile_circuit(circuit, strategy).physical_circuit
        model = MODELS[noise]
        reference = _explicit(physical, model, seed, 6, batch_size, fuse)
        with mock.patch.object(fastpath_mod, "_DEFAULT_SEGMENTS", segments):
            fidelities, prescan = _prescan_resume(physical, model, seed, 6, batch_size, fuse)
        assert fidelities == reference
        assert len(prescan.resumes) == int((~prescan.clean).sum())

    @pytest.mark.parametrize("batch_size", (None, 4, 64))
    def test_deviations_in_the_first_and_last_segment(self, batch_size):
        # An eight-segment program; this seed's 48 streams deviate in the
        # first segment, the last one and most in between.
        physical = _physical(strategy=Strategy.QUBIT_ONLY)
        model = NoiseModel()
        num_steps = len(cached_compile_program(physical, model).steps)
        stride = checkpoint_stride(num_steps)
        last = (num_steps - 1) // stride * stride
        assert last >= 4 * stride
        reference = _explicit(physical, model, 0, 48, batch_size)
        fidelities, prescan = _prescan_resume(physical, model, 0, 48, batch_size)
        restores = {resume.restore for resume in prescan.resumes}
        assert {0, last} <= restores, restores
        assert any(resume.drawn for resume in prescan.resumes)
        assert fidelities == reference
        assert stats()["resumed"] == len(prescan.resumes)

    @pytest.mark.parametrize("noise", ("paper", "jumpy"))
    @pytest.mark.parametrize("batch_size", (None, 3, 16))
    def test_fastpath_matches_slow_loop(self, noise, batch_size):
        physical = _physical()
        model = MODELS[noise]
        reference = _explicit(physical, model, 42, 12)
        fidelities, prescan = _prescan_resume(physical, model, 42, 12, batch_size)
        assert fidelities == reference
        snapshot = stats()
        assert snapshot["trajectories"] == snapshot["records_built"] == 12
        assert snapshot["resumed"] == len(prescan.resumes) == 12 - snapshot["clean"]

    @pytest.mark.parametrize("strategy", (Strategy.QUBIT_ONLY, Strategy.FULL_QUQUART))
    def test_fastpath_across_regimes(self, strategy):
        physical = _physical(strategy=strategy)
        reference = _explicit(physical, NoiseModel(), 5, 8, batch_size=4)
        fidelities, _ = _prescan_resume(physical, NoiseModel(), 5, 8, batch_size=4)
        assert fidelities == reference

    def test_fastpath_fused_equals_unfused(self):
        physical = _physical()
        fused, _ = _prescan_resume(physical, NoiseModel(), 3, 8, batch_size=4, fuse=True)
        unfused, _ = _prescan_resume(physical, NoiseModel(), 3, 8, batch_size=4, fuse=False)
        assert fused == unfused
        assert unfused == _explicit(physical, NoiseModel(), 3, 8, batch_size=4, fuse=False)

    @pytest.mark.parametrize("seed", (21, 22))
    def test_fastpath_on_random_circuits(self, seed):
        circuit = random_logical_circuit(seed, num_qubits=4, num_gates=14)
        physical = compile_circuit(circuit, Strategy.MIXED_RADIX_CCZ).physical_circuit
        reference = _explicit(physical, NoiseModel(), seed, 6, batch_size=3)
        fidelities, _ = _prescan_resume(physical, NoiseModel(), seed, 6, batch_size=3)
        assert fidelities == reference

    def test_custom_fixed_state_sampler(self):
        # The standard MCWF case: every trajectory starts from one state.
        # Records are still built per stream and never shared.
        physical = _physical()
        state = _default_state_sampler(physical)(np.random.default_rng(0))

        def fixed_sampler(rng):
            return state

        reference = _explicit(physical, JUMPY, 2, 8, sampler=fixed_sampler)
        fidelities, prescan = _prescan_resume(
            physical, JUMPY, 2, 8, batch_size=4, sampler=fixed_sampler
        )
        assert fidelities == reference
        assert prescan.resumes
        assert stats()["records_built"] == 8
        assert stats()["record_memory_hits"] == 0

    @pytest.mark.parametrize("segments", (1, 3, 8, 64))
    def test_stride_change_still_bitwise_equal(self, segments):
        physical = _physical()
        reference = _explicit(physical, JUMPY, 13, 6)
        with mock.patch.object(fastpath_mod, "_DEFAULT_SEGMENTS", segments):
            fidelities, _ = _prescan_resume(physical, JUMPY, 13, 6, batch_size=3)
        assert fidelities == reference

    def test_noiseless_model_is_all_clean(self):
        physical = _physical()
        model = NoiseModel.noiseless()
        fidelities, prescan = _prescan_resume(physical, model, 1, 4)
        assert prescan.clean.all() and prescan.resumes == []
        assert np.all(prescan.clean_probability == 1.0)
        assert fidelities == _explicit(physical, model, 1, 4)

    def test_empty_circuit(self):
        physical = compile_circuit(QuantumCircuit(2, name="empty"), Strategy.QUBIT_ONLY)
        physical = physical.physical_circuit
        fidelities, prescan = _prescan_resume(physical, NoiseModel(), 0, 3)
        assert prescan.clean.all()
        assert fidelities == _explicit(physical, NoiseModel(), 0, 3)

    def test_resume_needs_one_resume_point_per_stream(self):
        physical = _physical()
        simulator = TrajectorySimulator(JUMPY, rng=0)
        with pytest.raises(ValueError, match="one resume point per stream"):
            run_fastpath_fidelities(
                physical,
                JUMPY,
                simulator.program_for(physical),
                simulator.rng.spawn(1),
                _default_state_sampler(physical),
                [],
                None,
            )


# ---------------------------------------------------------------------------
# records live for one call: fixed-count runs build none, adaptive drops them
# ---------------------------------------------------------------------------


class TestRecordLifetime:
    @pytest.mark.parametrize("batch_size", (None, 3), ids=("loop", "batched"))
    def test_fixed_count_runs_build_no_records(self, batch_size):
        physical = _physical()
        TrajectorySimulator(JUMPY, rng=2).average_fidelity(
            physical, num_trajectories=6, batch_size=batch_size
        )
        assert stats()["records_built"] == 0
        assert _live_records() == 0

    def test_no_record_outlives_an_adaptive_run(self):
        physical = _physical()
        result = TrajectorySimulator(NoiseModel(), rng=3).average_fidelity(
            physical, num_trajectories=64, target_stderr=1e-6, batch_size=8
        )
        assert result.n_deviating > 0
        assert stats()["records_built"] == result.n_used
        assert stats()["record_memory_hits"] == stats()["record_disk_hits"] == 0
        assert _live_records() == 0

    @pytest.mark.parametrize("batch_size", (None, 8), ids=("loop", "batched"))
    def test_adaptive_runs_resume_every_deviating_stream(self, batch_size):
        # Adaptive rounds have one execution path: every deviating stream
        # resumes from its own checkpoint in the calling process.
        result = TrajectorySimulator(JUMPY, rng=4).average_fidelity(
            _physical(), num_trajectories=96, target_stderr=1e-6, batch_size=batch_size
        )
        assert len(result.rounds) > 1
        assert result.n_deviating >= 16
        assert stats()["resumed"] == result.n_deviating

    def test_records_never_touch_compile_log(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        physical = _physical()
        assert cached_compile_program(physical, NoiseModel()) is not None
        cache_dir = tmp_path / "cache"
        log = cache_dir / "compile-log.txt"

        def snapshot():
            lines = len(log.read_text().splitlines()) if log.exists() else 0
            return lines, sorted(str(path) for path in cache_dir.rglob("*"))

        before = snapshot()
        result = TrajectorySimulator(NoiseModel(), rng=1).average_fidelity(
            physical, num_trajectories=16, target_stderr=1e-6, batch_size=4
        )
        assert result.n_deviating > 0
        assert snapshot() == before  # no log line, no file: records stay in memory
        reset_cache()


# ---------------------------------------------------------------------------
# the frozen perf harness: patch points and counter names
# ---------------------------------------------------------------------------

#: The counters ``perfbench/spans.py`` reads from :func:`stats`.
HARNESS_KEYS = (
    "trajectories",
    "clean",
    "records_built",
    "record_memory_hits",
    "record_disk_hits",
    "suffix_steps",
    "prefix_steps_reused",
)


def _adaptive_run(seed=4):
    return TrajectorySimulator(NoiseModel(), rng=seed).average_fidelity(
        _physical(), num_trajectories=16, target_stderr=1e-6, batch_size=4
    )


class TestHarnessContract:
    @pytest.mark.parametrize("key", HARNESS_KEYS)
    def test_stats_keeps_the_harness_keys(self, key):
        assert stats()[key] == 0
        result = _adaptive_run()
        value = stats()[key]
        assert isinstance(value, int)
        if key in ("record_memory_hits", "record_disk_hits"):
            assert value == 0  # records are never looked up
        elif key in ("trajectories", "records_built"):
            assert value == result.n_used

    @pytest.mark.parametrize("name", ("prescan_trajectories", "run_fastpath_fidelities"))
    def test_adaptive_runs_call_through_the_module_attribute(self, name):
        # The harness times these two by patching the module attribute.
        original = getattr(fastpath_mod, name)
        with mock.patch.object(fastpath_mod, name, wraps=original) as spy:
            result = _adaptive_run()
        assert result.n_deviating > 0
        assert spy.call_count >= 1


# ---------------------------------------------------------------------------
# sweep integration: adaptive points prescan, a reclaimed lease converges
# ---------------------------------------------------------------------------


def _cnu_points(count, num_trajectories, target_stderr=None):
    points = fidelity_sweep_points(
        workloads=("cnu",), sizes=(5,), num_trajectories=num_trajectories, rng=0
    )[:count]
    return [dataclasses.replace(point, target_stderr=target_stderr) for point in points]


class TestSweepIntegration:
    @pytest.mark.parametrize("adaptive", (False, True), ids=("fixed", "adaptive"))
    def test_sweep_point_prescans_only_when_adaptive(self, adaptive):
        (point,) = _cnu_points(1, 4, target_stderr=1e-6 if adaptive else None)
        sweep_mod.evaluate_point(point)
        snapshot = stats()
        if adaptive:
            assert snapshot["trajectories"] == snapshot["records_built"] > 0
        else:
            assert snapshot["trajectories"] == snapshot["records_built"] == 0

    def test_abandoned_lease_is_reclaimed_with_adaptive_points(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        points = _cnu_points(4, 8, target_stderr=1e-6)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        unsharded_csv = out_dir / "unsharded.csv"
        SweepRunner(max_workers=1, csv_path=unsharded_csv).run(points)

        directory = tmp_path / "job"
        save_job(plan_job(points), directory)
        now = [1000.0]

        def worker(worker_id, **kwargs):
            return LeasedWorker(
                directory,
                worker_id=worker_id,
                ttl=10.0,
                clock=lambda: now[0],
                heartbeat=False,
                **kwargs,
            )

        # The first worker dies holding its third lease, like a SIGKILL.
        assert worker("killed", abandon_after=2).run().abandoned

        # Its lease expires and a fresh host drains the job from the disk
        # layer alone; no record survives the crash to be reused.
        now[0] += 10.1
        reset_cache()
        report = worker("drainer").run()
        assert report.num_completed == 2
        assert job_status(directory, clock=lambda: now[0])["reclaimed"] == 1
        assert stats()["record_disk_hits"] == 0
        assert _live_records() == 0

        merged = merge_job(directory)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        reset_cache()
