"""Tests for the adaptive sampling mode (variance-targeted early stopping
plus first-deviation importance sampling).

Contract under test (ISSUE 8): the mode is opt-in (``target_stderr`` /
``num_trajectories="auto"``); its numbers are a pure function of seed and
config — bit-identical for any worker count and batch size;
the stratified round estimator is exactly unbiased at a fixed round count
(two-outcome toy algebra plus a paired z-test against the fixed-count run
on the same streams); and default paths never change: fixed-count rows
keep their exact keys and the estimators are only imported lazily
(machine-checked by rule STAT001).
"""

from unittest import mock

import numpy as np
import pytest

import repro.noise.fastpath as fastpath_mod
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.experiments.scheduler import point_from_json, point_to_json
from repro.experiments.sweep import SweepPoint, evaluate_point, point_key, write_csv
from repro.noise.adaptive import (
    AdaptiveResult,
    adaptive_round_size,
    default_max_trajectories,
    stratified_contributions,
)
from repro.noise.fastpath import prescan_trajectories
from repro.noise.model import NoiseModel
from repro.noise.trajectory import TrajectorySimulator, _default_state_sampler
from repro.topology.device import CoherenceModel
from helpers import mixed_physical


PHYSICAL = mixed_physical("adaptive-mixed")


def _run(seed=7, target=5e-3, cap="auto", batch_size=8) -> AdaptiveResult:
    simulator = TrajectorySimulator(NoiseModel(), rng=seed)
    return simulator.average_fidelity(
        PHYSICAL,
        num_trajectories=cap,
        target_stderr=target,
        batch_size=batch_size,
    )


def _same_bits(a: AdaptiveResult, b: AdaptiveResult) -> bool:
    return (
        a.fidelities == b.fidelities
        and a.estimate == b.estimate
        and a.stderr == b.stderr
        and a.n_used == b.n_used
        and a.n_deviating == b.n_deviating
        and a.ess == b.ess
        and a.converged == b.converged
    )


# ---------------------------------------------------------------------------
# determinism contract
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_bit_identical_across_reruns(self):
        assert _same_bits(_run(), _run())

    def test_bit_identical_across_batch_sizes(self):
        assert _same_bits(_run(batch_size=8), _run(batch_size=3))

    @pytest.mark.parametrize("segments", (1, 3, 64))
    def test_bit_identical_across_checkpoint_strides(self, segments):
        # The stride only moves resume points; the numbers never change.
        reference = _run()
        with mock.patch.object(fastpath_mod, "_DEFAULT_SEGMENTS", segments):
            assert _same_bits(_run(), reference)

    def test_prescan_clean_rows_bit_match_standard_simulation(self):
        # The importance sampler serves clean trajectories from the record;
        # those fidelities must be the very bits the standard engines produce
        # for the same streams.
        simulator = TrajectorySimulator(NoiseModel(), rng=3)
        streams = simulator.rng.spawn(48)
        sampler = _default_state_sampler(PHYSICAL)
        prescan = prescan_trajectories(
            PHYSICAL,
            simulator.noise_model,
            simulator.program_for(PHYSICAL),
            streams,
            sampler,
        )
        fidelities = simulator._fidelities_for_streams(PHYSICAL, streams, sampler, 8)
        assert prescan.clean.any() and (~prescan.clean).any()
        for is_clean, simulated, recorded in zip(
            prescan.clean, fidelities, prescan.clean_fidelity
        ):
            if is_clean:
                assert simulated == recorded
        assert np.all(prescan.clean_probability > 0.0)
        assert np.all(prescan.clean_probability <= 1.0)


# ---------------------------------------------------------------------------
# estimator correctness
# ---------------------------------------------------------------------------


class TestEstimator:
    def test_two_outcome_toy_channel_is_exactly_unbiased(self):
        # One trajectory, clean with probability p (fidelity f_clean from the
        # record) else deviating (fidelity d).  With dyadic inputs the
        # expectation over both outcomes must equal p*f_clean + (1-p)*d
        # EXACTLY, for any baseline c — the no-self-normalization property.
        p, f_clean, d = 0.25, 0.75, 0.5
        probability = np.array([p])
        record_fidelity = np.array([f_clean])
        for baseline in (0.0, 0.125, 0.5, 1.0, -2.0):
            g_clean = stratified_contributions(
                probability, record_fidelity, np.array([True]), [], baseline
            )[0]
            g_dev = stratified_contributions(
                probability, record_fidelity, np.array([False]), [d], baseline
            )[0]
            expectation = p * g_clean + (1.0 - p) * g_dev
            assert expectation == p * f_clean + (1.0 - p) * d

    def test_contribution_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="deviating"):
            stratified_contributions(
                np.array([0.5]), np.array([1.0]), np.array([False]), [], 0.0
            )

    def test_paired_unbiasedness_against_fixed_run(self, monkeypatch):
        # Early stopping is disabled (unreachable target, fixed cap), so the
        # estimator runs a deterministic number of rounds: optional-stopping
        # bias cannot enter, and the per-draw contributions g_j must be
        # mean-unbiased against the naive fidelities W_j of the fixed-count
        # run — which consumes the *same* spawned streams (spawn indices are
        # absolute), making the comparison exactly paired.
        n = 192
        adaptive = _run(seed=42, target=1e-12, cap=n)
        assert adaptive.n_used == n and not adaptive.converged
        reference = TrajectorySimulator(NoiseModel(), rng=42).average_fidelity(
            PHYSICAL, num_trajectories=n, batch_size=8
        )
        g = np.array(adaptive.fidelities)
        w = np.array(reference.fidelities)
        diff = g - w
        z = diff.mean() / (diff.std(ddof=1) / np.sqrt(n))
        assert abs(z) < 4.0
        # The importance sampler must actually reduce variance here.
        assert g.var(ddof=1) < w.var(ddof=1)
        assert adaptive.ess > n

    def test_estimate_within_ci_of_10x_fixed_reference(self):
        adaptive = _run(seed=11, target=6e-3)
        reference = TrajectorySimulator(NoiseModel(), rng=990).average_fidelity(
            PHYSICAL, num_trajectories=10 * adaptive.n_used, batch_size=16
        )
        combined = float(np.hypot(adaptive.stderr, reference.std_error))
        assert abs(adaptive.estimate - reference.mean_fidelity) <= 3.0 * combined

    def test_ess_is_consistent_with_reported_variances(self):
        result = _run(seed=5, target=1e-12, cap=96)
        g_var = np.var(result.fidelities, ddof=1)
        # stderr^2 * n == g variance per draw; ess = naive_var/g_var * n.
        assert result.stderr == pytest.approx(
            float(np.sqrt(g_var / result.n_used)), rel=1e-9
        )
        assert result.ess > 0.0


# ---------------------------------------------------------------------------
# stopping rule and configuration
# ---------------------------------------------------------------------------


class TestStoppingAndConfig:
    def test_converged_run_stops_at_a_round_boundary(self):
        result = _run(seed=7, target=5e-3)
        assert result.converged
        assert result.stderr <= result.target_stderr
        assert result.n_used % adaptive_round_size() == 0
        assert result.n_used < default_max_trajectories()
        assert sum(r.size for r in result.rounds) == result.n_used
        assert sum(r.deviating for r in result.rounds) == result.n_deviating
        assert result.rounds[-1].stderr == result.stderr
        assert result.rounds[-1].estimate == result.estimate
        # Every earlier round was above target (else it would have stopped).
        for earlier in result.rounds[:-1]:
            assert earlier.stderr > result.target_stderr or earlier.stderr == 0.0

    def test_cap_bounds_an_unreachable_target(self):
        result = _run(seed=7, target=1e-12, cap=64)
        assert result.n_used == 64
        assert not result.converged

    def test_trajectory_result_interface(self):
        result = _run(seed=7, target=5e-3)
        assert result.num_trajectories == result.n_used == len(result.fidelities)
        assert result.mean_fidelity == result.estimate
        assert result.std_error == result.stderr
        assert result.adaptive_row() == {
            "n_used": result.n_used,
            "stderr": result.stderr,
            "ess": result.ess,
        }
        assert isinstance(result.adaptive_row()["n_used"], int)

    def test_round_knob_changes_granularity(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE_ROUND", "16")
        result = _run(seed=7, target=5e-3)
        assert result.n_used % 16 == 0
        assert all(r.size == 16 for r in result.rounds)

    def test_max_traj_knob_caps_auto_points(self, monkeypatch):
        monkeypatch.setenv("REPRO_ADAPTIVE_MAX_TRAJ", "32")
        result = _run(seed=7, target=1e-12)
        assert result.n_used == 32
        assert not result.converged

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_invalid_round_knob_raises(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_ADAPTIVE_ROUND", value)
        with pytest.raises(ValueError, match="REPRO_ADAPTIVE_ROUND"):
            _run()

    @pytest.mark.parametrize("target", [0.0, -1e-3, float("nan"), float("inf")])
    def test_invalid_target_stderr_raises(self, target):
        with pytest.raises(ValueError, match="target_stderr"):
            _run(target=target)

    def test_auto_without_target_raises(self):
        simulator = TrajectorySimulator(NoiseModel(), rng=0)
        with pytest.raises(ValueError, match="target_stderr"):
            simulator.average_fidelity(PHYSICAL, num_trajectories="auto")

    def test_non_auto_string_budget_raises(self):
        simulator = TrajectorySimulator(NoiseModel(), rng=0)
        with pytest.raises(ValueError, match="auto"):
            simulator.average_fidelity(PHYSICAL, num_trajectories="many")
        with pytest.raises(ValueError, match="auto"):
            simulator.average_fidelity(
                PHYSICAL, num_trajectories="many", target_stderr=1e-2
            )

    def test_rare_event_guard_blocks_deviation_blind_convergence(self):
        # Regression: cnu-7/FULL_QUQUART at this seed draws 32 consecutive
        # clean trajectories (a ~2% event at its ~11% per-draw deviation
        # mass), so the round-1 sample stderr is ~1e-6 — far below any
        # sane target — while the true mean sits ~0.11 lower than the
        # clean fidelity.  Without the deviation-mass guard the stopper
        # declared convergence right there and reported a badly biased
        # estimate; with it the run must keep drawing until the tail shows
        # up and end inside the fixed-count reference's confidence band.
        from repro.workloads import workload_by_name

        physical = compile_circuit(
            workload_by_name("cnu", 7), Strategy.FULL_QUQUART
        ).physical_circuit
        seed, target = 579362555, 2e-2
        result = TrajectorySimulator(NoiseModel(), rng=seed).average_fidelity(
            physical, num_trajectories=1024, target_stderr=target, batch_size=16
        )
        assert result.rounds[0].deviating == 0  # the trap is really armed
        assert result.rounds[0].stderr <= target  # stderr alone would have stopped
        assert len(result.rounds) > 1
        assert result.n_deviating > 0
        reference = TrajectorySimulator(NoiseModel(), rng=seed).average_fidelity(
            physical, num_trajectories=256, batch_size=16
        )
        combined = float(np.hypot(result.stderr, reference.std_error))
        assert abs(result.estimate - reference.mean_fidelity) <= 5.0 * combined


# ---------------------------------------------------------------------------
# sweep / shard integration
# ---------------------------------------------------------------------------


def _adaptive_point(**overrides):
    config = dict(
        workload="cnu",
        size=5,
        strategy="MIXED_RADIX_CCZ",
        num_trajectories="auto",
        target_stderr=2e-2,
        seed=123,
    )
    config.update(overrides)
    return SweepPoint(**config)


class TestSweepIntegration:
    def test_adaptive_point_rows_carry_the_new_columns(self):
        evaluation = evaluate_point(_adaptive_point())
        row = evaluation.as_row()
        assert row["n_used"] > 0
        assert row["stderr"] <= 2e-2
        assert row["ess"] > 0.0
        assert row["fidelity"] == evaluation.simulation.estimate

    def test_fixed_count_rows_are_unchanged(self):
        point = SweepPoint(
            workload="cnu", size=5, strategy="MIXED_RADIX_CCZ", num_trajectories=4, seed=3
        )
        row = evaluate_point(point).as_row()
        assert set(row) == {
            "circuit",
            "num_qubits",
            "strategy",
            "duration_ns",
            "num_ops",
            "gate_eps",
            "coherence_eps",
            "total_eps",
            "fidelity",
            "std_error",
        }

    def test_point_key_ignores_unset_target_stderr(self):
        # Default points must keep their pre-adaptive keys (stored plans and
        # manifests stay valid), while setting the target forks the key.
        fixed = SweepPoint(workload="cnu", size=5, strategy="MIXED_RADIX_CCZ")
        assert point_key(fixed) == point_key(SweepPoint(
            workload="cnu", size=5, strategy="MIXED_RADIX_CCZ", target_stderr=None
        ))
        assert point_key(_adaptive_point()) != point_key(
            _adaptive_point(target_stderr=1e-2)
        )

    def test_shard_point_json_round_trip(self):
        point = _adaptive_point()
        assert point_from_json(point_to_json(point)) == point
        fixed = SweepPoint(workload="cnu", size=5, strategy="MIXED_RADIX_CCZ")
        assert point_from_json(point_to_json(fixed)) == fixed

    def test_csv_union_header_for_mixed_grids(self, tmp_path):
        rows = [
            {"workload": "cnu", "fidelity": 0.9},
            {"workload": "cnu", "fidelity": 0.8, "n_used": 64, "stderr": 0.01, "ess": 80.0},
        ]
        path = write_csv(rows, tmp_path / "mixed.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "workload,fidelity,n_used,stderr,ess"
        assert lines[1] == "cnu,0.9,,,"  # fixed row: empty adaptive cells
        assert lines[2] == "cnu,0.8,64,0.01,80.0"

    def test_coherence_scale_reaches_the_adaptive_model(self):
        # The adaptive path must honour the point's noise configuration:
        # different excited-level decay scales must change the estimator's
        # inputs, hence its bits (the effect size is tiny at paper rates, so
        # the assertion is on propagation, not direction).
        fast_decay = evaluate_point(_adaptive_point(coherence_scale=4.0, target_stderr=3e-2))
        slow_decay = evaluate_point(_adaptive_point(coherence_scale=0.25, target_stderr=3e-2))
        assert fast_decay.simulation.estimate != slow_decay.simulation.estimate


def test_noise_model_direction_reaches_the_adaptive_estimate():
    # A drastically shorter T1 must show up as a clearly lower adaptive
    # estimate (gap far beyond both reported standard errors).
    harsh = TrajectorySimulator(
        NoiseModel(coherence=CoherenceModel(base_t1_ns=2000.0)), rng=1
    ).average_fidelity(PHYSICAL, num_trajectories="auto", target_stderr=2e-2, batch_size=8)
    mild = TrajectorySimulator(NoiseModel(), rng=1).average_fidelity(
        PHYSICAL, num_trajectories="auto", target_stderr=2e-2, batch_size=8
    )
    assert harsh.estimate < mild.estimate - 3.0 * (harsh.stderr + mild.stderr)
