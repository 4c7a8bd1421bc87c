"""Unit tests for the noise model and the trajectory simulator."""

import numpy as np
import pytest

from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.circuits.circuit import QuantumCircuit
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.model import NoiseModel
from repro.noise.trajectory import TrajectorySimulator, simulate_fidelity
from repro.topology.device import CoherenceModel


class TestNoiseModel:
    def test_idle_decay_probabilities_scale_with_level(self):
        model = NoiseModel(coherence=CoherenceModel(base_t1_ns=1000.0))
        probs = model.idle_decay_probabilities(4, 100.0)
        assert len(probs) == 3
        assert probs[0] == pytest.approx(1 - np.exp(-0.1))
        assert probs[2] > probs[1] > probs[0]

    def test_excited_scale_increases_decay(self):
        base = NoiseModel(coherence=CoherenceModel(base_t1_ns=1000.0))
        scaled = NoiseModel(coherence=CoherenceModel(base_t1_ns=1000.0, excited_scale=5.0))
        assert scaled.idle_decay_probabilities(4, 100.0)[2] > base.idle_decay_probabilities(4, 100.0)[2]
        assert scaled.idle_decay_probabilities(4, 100.0)[0] == pytest.approx(
            base.idle_decay_probabilities(4, 100.0)[0]
        )

    def test_idle_kraus_completeness(self):
        kraus = NoiseModel().idle_kraus(4, 500.0)
        assert np.allclose(sum(k.conj().T @ k for k in kraus), np.eye(4))

    def test_noiseless_factory(self):
        model = NoiseModel.noiseless()
        assert not model.depolarizing_enabled
        assert not model.amplitude_damping_enabled

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel().idle_decay_probabilities(4, -1.0)


class TestTrajectorySimulator:
    @pytest.fixture
    def compiled(self, tiny_ccx_circuit):
        return compile_circuit(tiny_ccx_circuit, Strategy.MIXED_RADIX_CCZ)

    def test_noiseless_trajectory_matches_ideal(self, compiled):
        physical = compiled.physical_circuit
        engine = BatchedTrajectoryEngine(physical, NoiseModel.noiseless())
        initial = np.zeros((1, np.prod(physical.device_dims)), dtype=complex)
        initial[0, 0] = 1.0
        ideal = engine.run_ideal(initial)
        noisy = engine.run_trajectories(initial, [np.random.default_rng(0)])
        assert np.allclose(ideal, noisy)

    def test_noisy_fidelity_below_one_but_reasonable(self, compiled):
        result = simulate_fidelity(compiled, num_trajectories=40, rng=1)
        assert 0.5 < result.mean_fidelity < 1.0
        assert result.std_error >= 0.0
        assert result.num_trajectories == 40

    def test_more_noise_means_lower_fidelity(self, tiny_ccx_circuit):
        from repro.core.gateset import ErrorModel

        clean = compile_circuit(tiny_ccx_circuit, Strategy.MIXED_RADIX_CCZ)
        noisy = compile_circuit(
            tiny_ccx_circuit, Strategy.MIXED_RADIX_CCZ, error_model=ErrorModel(ququart_error_factor=8.0)
        )
        clean_fid = simulate_fidelity(clean, num_trajectories=60, rng=2).mean_fidelity
        noisy_fid = simulate_fidelity(noisy, num_trajectories=60, rng=2).mean_fidelity
        assert noisy_fid < clean_fid

    def test_trajectory_preserves_norm(self, compiled):
        physical = compiled.physical_circuit
        engine = BatchedTrajectoryEngine(physical, NoiseModel())
        initial = np.zeros((1, np.prod(physical.device_dims)), dtype=complex)
        initial[0, 0] = 1.0
        (final,) = engine.run_trajectories(initial, [np.random.default_rng(3)])
        assert np.linalg.norm(final) == pytest.approx(1.0)

    def test_requires_at_least_one_trajectory(self, compiled):
        simulator = TrajectorySimulator(rng=0)
        with pytest.raises(ValueError):
            simulator.average_fidelity(compiled.physical_circuit, num_trajectories=0)

    def test_mean_fidelity_requires_data(self):
        from repro.noise.trajectory import TrajectoryResult

        with pytest.raises(ValueError):
            TrajectoryResult().mean_fidelity

    def test_amplitude_damping_only_affects_long_idles(self):
        # A circuit with a very long idle on one qubit should lose fidelity
        # even without depolarizing errors.
        circuit = QuantumCircuit(3)
        circuit.x(2)
        for _ in range(30):
            circuit.cx(0, 1)
        compiled = compile_circuit(circuit, Strategy.QUBIT_ONLY)
        model = NoiseModel(
            coherence=CoherenceModel(base_t1_ns=20_000.0), depolarizing_enabled=False
        )
        result = simulate_fidelity(compiled, noise_model=model, num_trajectories=40, rng=5)
        assert result.mean_fidelity < 0.95
