"""Tests for the checkpointed no-jump trajectory fast path.

The contract (ISSUE 5 acceptance): with the fast path enabled — the process
default — every fidelity is **bit-for-bit identical** to the explicit slow
paths, for loop, batched and multi-worker execution, fused and unfused
programs, clean and jump-heavy noise regimes, warm and cold record caches.
The fast path may only move work, never a single bit of the results.

The property suite additionally pins the numerical assumptions the fast
path is built on: batched population/scale helpers match their scalar
counterparts element for element, the stateless draw replay reproduces
``draw_idle_choice`` decisions exactly, bulk RNG draws equal scalar draws,
and generator cloning via ``bit_generator.state`` is an exact snapshot.
"""

import numpy as np
import pytest

import repro.noise.fastpath as fastpath_mod
from repro.circuits.circuit import QuantumCircuit
from repro.core.compile_cache import reset_cache
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.experiments import sweep as sweep_mod
from repro.experiments.fidelity_sweep import fidelity_sweep_points
from repro.experiments.scheduler import LeasedWorker, job_status, merge_job, plan_job, save_job
from repro.experiments.sweep import SweepRunner
from repro.noise.fastpath import (
    NoJumpRecord,
    RecordStore,
    checkpoint_stride,
    draw_schedule,
    fastpath_enabled,
    get_record_store,
    reset_fastpath,
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
from repro.noise.trajectory import TrajectorySimulator
from repro.qudit.random import haar_random_state
from repro.topology.device import CoherenceModel
from random_circuits import random_logical_circuit
from helpers import mixed_physical

#: A decohering model whose idle windows jump constantly: trajectories
#: deviate early and often, exercising checkpoint restores and suffix
#: replay instead of the clean-trajectory shortcut.
JUMPY = NoiseModel(coherence=CoherenceModel(base_t1_ns=300.0))


def _physical(workload="mixed", strategy=Strategy.MIXED_RADIX_CCZ):
    return mixed_physical(f"fastpath-{workload}", strategy=strategy)


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
# record property: precomputed prefix == step-by-step recomputation
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

        simulator = TrajectorySimulator(noise_model, rng=0, fastpath=True)
        run_fastpath_fidelities(
            physical=physical,
            noise_model=noise_model,
            program=program,
            backend=simulator.backend,
            streams=np.random.default_rng(0).spawn(1),
            sampler=lambda rng: state,
            block_size=None,
        )
        stride = checkpoint_stride(len(program.steps))
        key = fastpath_mod._record_key(program, "numpy", stride, state)
        found = get_record_store().get_many(
            [key], fastpath_mod._bundle_key([key]), draw_schedule(program), stride
        )
        record = found.get(key)
        assert record is not None
        # The prefix is materialized up to the trajectory's first deviation
        # segment (the full program when the trajectory stayed clean); the
        # record must match a step-by-step recomputation with the scalar
        # helpers the slow loop executor uses, over everything it covers.
        assert record.prefix_steps > 0

        current = np.asarray(state, dtype=np.complex128).copy()
        idle_ordinal = 0
        for index, step in enumerate(program.steps[: record.prefix_steps]):
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
            if boundary < record.prefix_steps and boundary % stride == 0:
                assert np.array_equal(record.checkpoints[boundary], current)
        if record.prefix_steps == len(program.steps):
            assert np.array_equal(record.final, current)
        else:
            assert np.array_equal(record.checkpoints[record.prefix_steps], current)

        # The recorded ideal final equals the slow ideal evolution.
        ideal = simulator.run_ideal(physical, state)
        assert np.array_equal(record.ideal_final, ideal)


# ---------------------------------------------------------------------------
# bit-for-bit equality against the slow paths
# ---------------------------------------------------------------------------


class TestFastpathEquality:
    @pytest.mark.parametrize("noise", ("paper", "jumpy"))
    @pytest.mark.parametrize("batch_size", (None, 3, 16))
    def test_fastpath_matches_slow_loop(self, noise, batch_size):
        physical = _physical()
        model = NoiseModel() if noise == "paper" else JUMPY
        reference = TrajectorySimulator(model, rng=42, fastpath=False).average_fidelity(
            physical, num_trajectories=12
        )
        fast = TrajectorySimulator(model, rng=42, fastpath=True).average_fidelity(
            physical, num_trajectories=12, batch_size=batch_size
        )
        assert fast.fidelities == reference.fidelities
        snapshot = stats()
        assert snapshot["trajectories"] == 12

    @pytest.mark.parametrize("strategy", (Strategy.QUBIT_ONLY, Strategy.FULL_QUQUART))
    def test_fastpath_across_regimes(self, strategy):
        physical = _physical(strategy=strategy)
        reference = TrajectorySimulator(NoiseModel(), rng=5, fastpath=False).average_fidelity(
            physical, num_trajectories=8, batch_size=4
        )
        fast = TrajectorySimulator(NoiseModel(), rng=5, fastpath=True).average_fidelity(
            physical, num_trajectories=8, batch_size=4
        )
        assert fast.fidelities == reference.fidelities

    def test_fastpath_with_workers_matches_single_core(self):
        physical = _physical()
        reference = TrajectorySimulator(JUMPY, rng=9, fastpath=False).average_fidelity(
            physical, num_trajectories=10
        )
        fast = TrajectorySimulator(JUMPY, rng=9, fastpath=True).average_fidelity(
            physical, num_trajectories=10, batch_size=4, workers=2
        )
        assert fast.fidelities == reference.fidelities

    def test_fastpath_fused_equals_unfused(self):
        physical = _physical()
        fused = TrajectorySimulator(NoiseModel(), rng=3, fastpath=True, fuse=True)
        unfused = TrajectorySimulator(NoiseModel(), rng=3, fastpath=True, fuse=False)
        a = fused.average_fidelity(physical, num_trajectories=8, batch_size=4)
        b = unfused.average_fidelity(physical, num_trajectories=8, batch_size=4)
        assert a.fidelities == b.fidelities

    @pytest.mark.parametrize("seed", (21, 22))
    def test_fastpath_on_random_circuits(self, seed):
        circuit = random_logical_circuit(seed, num_qubits=4, num_gates=14)
        physical = compile_circuit(circuit, Strategy.MIXED_RADIX_CCZ).physical_circuit
        reference = TrajectorySimulator(NoiseModel(), rng=seed, fastpath=False).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        fast = TrajectorySimulator(NoiseModel(), rng=seed, fastpath=True).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        assert fast.fidelities == reference.fidelities

    def test_escape_hatch_disables_fastpath(self, monkeypatch):
        physical = _physical()
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        assert not fastpath_enabled(None)
        assert fastpath_enabled(True)  # explicit construction wins
        before = stats()["trajectories"]
        result = TrajectorySimulator(NoiseModel(), rng=4).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert stats()["trajectories"] == before  # the fast path never ran
        monkeypatch.delenv("REPRO_NO_FASTPATH")
        assert fastpath_enabled(None)
        enabled = TrajectorySimulator(NoiseModel(), rng=4).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert enabled.fidelities == result.fidelities

    def test_noiseless_model_is_all_clean(self):
        physical = _physical()
        model = NoiseModel.noiseless()
        reference = TrajectorySimulator(model, rng=1, fastpath=False).average_fidelity(
            physical, num_trajectories=4
        )
        fast = TrajectorySimulator(model, rng=1, fastpath=True).average_fidelity(
            physical, num_trajectories=4
        )
        assert fast.fidelities == reference.fidelities
        assert stats()["clean"] == 4

    def test_empty_circuit(self):
        circuit = QuantumCircuit(2, name="empty")
        physical = compile_circuit(circuit, Strategy.QUBIT_ONLY).physical_circuit
        reference = TrajectorySimulator(NoiseModel(), rng=0, fastpath=False).average_fidelity(
            physical, num_trajectories=3
        )
        fast = TrajectorySimulator(NoiseModel(), rng=0, fastpath=True).average_fidelity(
            physical, num_trajectories=3
        )
        assert fast.fidelities == reference.fidelities

    def test_custom_fixed_state_sampler_shares_records(self):
        # The standard MCWF case: every trajectory starts from one state, so
        # a single record serves the whole run (and the no-jump prefix is
        # evolved once, not per trajectory).
        physical = _physical()
        program_state = {}

        def fixed_sampler(rng):
            if "state" not in program_state:
                dims = physical.device_dims
                program_state["state"] = haar_random_state(dims, np.random.default_rng(0))
            return program_state["state"]

        reference = TrajectorySimulator(NoiseModel(), rng=2, fastpath=False).average_fidelity(
            physical, num_trajectories=8, initial_state_sampler=fixed_sampler
        )
        fast = TrajectorySimulator(NoiseModel(), rng=2, fastpath=True).average_fidelity(
            physical, num_trajectories=8, batch_size=4, initial_state_sampler=fixed_sampler
        )
        assert fast.fidelities == reference.fidelities
        snapshot = stats()
        # One shared state -> one record built (per execution mode), not one
        # per trajectory: the no-jump prefix is evolved once and replayed.
        assert snapshot["records_built"] <= 2
        assert snapshot["record_memory_hits"] > 0


# ---------------------------------------------------------------------------
# record cache behavior
# ---------------------------------------------------------------------------


class TestRecordCache:
    def test_disk_round_trip_hits_and_matches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        # 6 trajectories sit below the default publication threshold.
        monkeypatch.setenv("REPRO_FASTPATH_MIN_TRAJ", "1")
        reset_cache()
        physical = _physical()
        first = TrajectorySimulator(JUMPY, rng=6, fastpath=True).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        before = stats()["record_disk_hits"]
        get_record_store().clear_memory()
        second = TrajectorySimulator(JUMPY, rng=6, fastpath=True).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        assert second.fidelities == first.fidelities
        assert stats()["record_disk_hits"] - before >= 6
        reset_cache()

    def test_memory_hits_within_process(self):
        physical = _physical()
        TrajectorySimulator(NoiseModel(), rng=8, fastpath=True).average_fidelity(
            physical, num_trajectories=4
        )
        before = stats()["record_memory_hits"]
        TrajectorySimulator(NoiseModel(), rng=8, fastpath=True).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert stats()["record_memory_hits"] - before >= 4

    def test_records_never_touch_compile_log(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        physical = _physical()
        program = cached_compile_program(physical, NoiseModel())
        assert program is not None
        log = tmp_path / "cache" / "compile-log.txt"
        lines_before = len(log.read_text().splitlines()) if log.exists() else 0
        TrajectorySimulator(NoiseModel(), rng=1, fastpath=True).average_fidelity(
            physical, num_trajectories=3
        )
        lines_after = len(log.read_text().splitlines()) if log.exists() else 0
        assert lines_after == lines_before
        reset_cache()

    def test_store_byte_budget_evicts(self):
        store = RecordStore(max_bytes=1)
        a = NoJumpRecord(stride=8, ideal_final=np.zeros(64, dtype=np.complex128))
        b = NoJumpRecord(stride=8, ideal_final=np.zeros(64, dtype=np.complex128))
        store._memory_put("a", a)
        store._memory_put("b", b)
        assert "a" not in store._memory and "b" in store._memory

    def test_stale_or_mismatched_records_are_rejected(self):
        physical = _physical()
        program = cached_compile_program(physical, NoiseModel())
        schedule = draw_schedule(program)
        stride = checkpoint_stride(len(program.steps))
        assert not NoJumpRecord(stride=stride + 1).valid_for(schedule, stride)
        missing_ideal = NoJumpRecord(stride=stride)
        assert not missing_ideal.valid_for(schedule, stride)
        misaligned = NoJumpRecord(
            stride=stride,
            prefix_steps=1 if stride > 1 else len(program.steps) + 1,
            ideal_final=np.zeros(4, dtype=np.complex128),
        )
        assert not misaligned.valid_for(schedule, stride)

    def test_thinned_partial_record_extension_is_safe(self, tmp_path, monkeypatch):
        # Disk bundles thin checkpoints to a byte budget; a partial record
        # whose resume checkpoint was dropped must roll coverage back (the
        # truncate-on-load path) instead of crashing, and trajectories that
        # need the prefix beyond the record's coverage must still match the
        # slow path bit for bit.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        physical = _physical()
        noise_model = NoiseModel()
        program = cached_compile_program(physical, noise_model)
        schedule = draw_schedule(program)
        stride = checkpoint_stride(len(program.steps))
        assert stride < len(program.steps)  # the program really has >1 segment
        state = haar_random_state(program.dims, np.random.default_rng(5))

        def fixed_sampler(rng):
            return state

        reference = TrajectorySimulator(noise_model, rng=2, fastpath=False).average_fidelity(
            physical, num_trajectories=4, initial_state_sampler=fixed_sampler
        )
        # Build the full record, then publish the worst-case thinned partial
        # copy: coverage ends mid-program and every checkpoint is gone.
        TrajectorySimulator(noise_model, rng=1, fastpath=True).average_fidelity(
            physical, num_trajectories=1, initial_state_sampler=fixed_sampler
        )
        key = fastpath_mod._record_key(program, "numpy", stride, state)
        record = get_record_store().get_many(
            [key], fastpath_mod._bundle_key([key]), schedule, stride
        )[key]
        covered = int(schedule.idles_before[stride])
        partial = NoJumpRecord(
            stride=stride,
            prefix_steps=stride,
            populations=record.populations[:covered] if covered else None,
            scales=record.scales[:covered] if covered else None,
            checkpoints={},
            final=None,
            ideal_final=record.ideal_final,
        )
        assert partial.valid_for(schedule, stride)  # checkpoints are optional
        get_record_store().clear_memory()
        get_record_store().put_many([key], [partial], fastpath_mod._bundle_key([key]))
        get_record_store().clear_memory()

        fast = TrajectorySimulator(noise_model, rng=2, fastpath=True).average_fidelity(
            physical, num_trajectories=4, batch_size=2, initial_state_sampler=fixed_sampler
        )
        assert fast.fidelities == reference.fidelities
        reset_cache()

    def test_store_byte_accounting_tracks_inplace_growth(self):
        store = RecordStore(max_bytes=10**9)
        record = NoJumpRecord(stride=8, ideal_final=np.zeros(8, dtype=np.complex128))
        store._memory_put("k", record)
        first = store._bytes
        record.checkpoints[8] = np.zeros(1024, dtype=np.complex128)  # grows in place
        store._memory_put("k", record)  # a re-put must re-measure
        assert store._bytes == first + record.checkpoints[8].nbytes

    def test_stride_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH_STRIDE", "5")
        assert checkpoint_stride(100) == 5
        monkeypatch.setenv("REPRO_FASTPATH_STRIDE", "0")
        with pytest.raises(ValueError):
            checkpoint_stride(100)
        monkeypatch.delenv("REPRO_FASTPATH_STRIDE")
        assert checkpoint_stride(0) == 1
        assert checkpoint_stride(1000) == 125

    def test_stride_change_still_bitwise_equal(self, monkeypatch):
        physical = _physical()
        reference = TrajectorySimulator(JUMPY, rng=13, fastpath=False).average_fidelity(
            physical, num_trajectories=6
        )
        monkeypatch.setenv("REPRO_FASTPATH_STRIDE", "3")
        fast = TrajectorySimulator(JUMPY, rng=13, fastpath=True).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        assert fast.fidelities == reference.fidelities


# ---------------------------------------------------------------------------
# sweep integration: default wiring and a reclaimed lease
# ---------------------------------------------------------------------------


class TestSweepIntegration:
    def test_sweep_uses_fastpath_by_default(self):
        points = fidelity_sweep_points(
            workloads=("cnu",), sizes=(5,), num_trajectories=2, rng=0
        )[:1]
        before = stats()["trajectories"]
        sweep_mod.evaluate_point(points[0])
        assert stats()["trajectories"] - before == 2

    def test_sweep_fastpath_vs_escape_hatch_csv_identical(self, tmp_path, monkeypatch):
        points = fidelity_sweep_points(
            workloads=("cnu",), sizes=(5,), num_trajectories=3, rng=0
        )
        fast_csv = tmp_path / "fast.csv"
        SweepRunner(max_workers=1, csv_path=fast_csv).run(points)
        monkeypatch.setenv("REPRO_NO_FASTPATH", "1")
        slow_csv = tmp_path / "slow.csv"
        SweepRunner(max_workers=1, csv_path=slow_csv).run(points)
        assert fast_csv.read_bytes() == slow_csv.read_bytes()

    def test_abandoned_lease_is_reclaimed_with_fastpath_on(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        # 3 trajectories per point sit below the default publication threshold.
        monkeypatch.setenv("REPRO_FASTPATH_MIN_TRAJ", "1")
        reset_cache()
        assert fastpath_enabled(None)
        points = fidelity_sweep_points(
            workloads=("cnu",), sizes=(5,), num_trajectories=3, rng=0
        )[:4]
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
                runner=SweepRunner(max_workers=1),
                ttl=10.0,
                clock=lambda: now[0],
                heartbeat=False,
                **kwargs,
            )

        # The first worker dies holding its third lease, like a SIGKILL.
        assert worker("killed", abandon_after=2).run().abandoned

        # Its lease expires and a fresh host drains the job: both cache
        # fronts dropped, so the drainer reuses compilations *and*
        # checkpoint records through the disk layer only.
        now[0] += 10.1
        reset_cache()
        get_record_store().clear_memory()
        disk_hits_before = stats()["record_disk_hits"]
        report = worker("drainer").run()
        assert report.num_completed == 2
        assert job_status(directory, clock=lambda: now[0])["reclaimed"] == 1
        assert stats()["record_disk_hits"] > disk_hits_before

        merged = merge_job(directory)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        reset_cache()


class TestPublicationGate:
    """REPRO_FASTPATH_MIN_TRAJ: small cold runs skip the disk write tax.

    The gate must only skip the *disk* layer — the in-process memory front
    keeps serving records (so intra-process reuse is untouched) and the
    fidelities never change either way.
    """

    def test_small_runs_skip_disk_publication(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        physical = _physical()
        skipped_before = stats()["publishes_skipped"]
        first = TrajectorySimulator(JUMPY, rng=6, fastpath=True).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert stats()["publishes_skipped"] > skipped_before
        # Nothing reached the disk layer: after dropping the memory front, a
        # rerun recomputes (no disk hits) yet reproduces the same bits.
        get_record_store().clear_memory()
        disk_hits_before = stats()["record_disk_hits"]
        second = TrajectorySimulator(JUMPY, rng=6, fastpath=True).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert second.fidelities == first.fidelities
        assert stats()["record_disk_hits"] == disk_hits_before
        reset_cache()

    def test_memory_front_still_serves_small_runs(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        reset_cache()
        physical = _physical()
        TrajectorySimulator(NoiseModel(), rng=8, fastpath=True).average_fidelity(
            physical, num_trajectories=4
        )
        before = stats()["record_memory_hits"]
        TrajectorySimulator(NoiseModel(), rng=8, fastpath=True).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert stats()["record_memory_hits"] - before >= 4
        reset_cache()

    def test_threshold_is_configurable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FASTPATH_MIN_TRAJ", "4")
        reset_cache()
        physical = _physical()
        TrajectorySimulator(JUMPY, rng=6, fastpath=True).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        get_record_store().clear_memory()
        disk_hits_before = stats()["record_disk_hits"]
        TrajectorySimulator(JUMPY, rng=6, fastpath=True).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert stats()["record_disk_hits"] > disk_hits_before
        reset_cache()

    def test_negative_threshold_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FASTPATH_MIN_TRAJ", "-1")
        with pytest.raises(ValueError, match="REPRO_FASTPATH_MIN_TRAJ"):
            fastpath_mod.min_publish_trajectories()
