"""Unit tests for the qudit error channels (Section 6.5)."""

import numpy as np
import pytest

from repro.noise.channels import (
    depolarizing_operators,
    num_error_channels,
    qudit_amplitude_damping,
    sample_depolarizing_error,
    sample_depolarizing_error_factors,
)
from repro.noise.program import _error_factor
from repro.qudit.operators import generalized_pauli_basis
from repro.qudit.unitaries import embed_qubit_unitary


class TestDepolarizing:
    def test_channel_counts_match_paper(self):
        # 15 channels for two qubits, 255 for a ququart pair... the paper's
        # 1 - 15p vs 1 - 255p comparison.
        assert num_error_channels((2, 2)) == 15
        assert num_error_channels((4,)) == 15
        assert num_error_channels((4, 4)) == 255
        assert num_error_channels((2, 4)) == 63

    def test_operator_list_matches_count(self):
        ops = depolarizing_operators((2, 4))
        assert len(ops) == 63
        for op in ops:
            assert op.shape == (8, 8)
            assert np.allclose(op @ op.conj().T, np.eye(8), atol=1e-10)

    def test_single_qubit_operators_are_paulis(self):
        ops = depolarizing_operators((2,))
        assert len(ops) == 3

    def test_sampling_probability(self, rng):
        draws = [sample_depolarizing_error_factors((2,), 0.5, rng) for _ in range(2000)]
        errors = sum(1 for d in draws if d is not None)
        assert 0.4 < errors / 2000 < 0.6

    def test_sampling_zero_probability_never_errors(self, rng):
        assert all(
            sample_depolarizing_error_factors((4, 4), 0.0, rng) is None for _ in range(50)
        )

    def test_sampled_factors_have_device_dims(self, rng):
        for _ in range(50):
            factors = sample_depolarizing_error_factors((2, 4), 0.999, rng)
            if factors is None:
                continue
            assert factors[0].shape == (2, 2)
            assert factors[1].shape == (4, 4)
            # At least one factor must be a non-identity error.
            assert not all(np.allclose(f, np.eye(f.shape[0])) for f in factors)

    def test_full_operator_wrapper(self, rng):
        operator = sample_depolarizing_error((2, 2), 0.999, rng)
        assert operator is None or operator.shape == (4, 4)

    def test_invalid_probability(self, rng):
        with pytest.raises(ValueError):
            sample_depolarizing_error_factors((2,), 1.5, rng)

    @pytest.mark.parametrize("dims", [(2,), (4,), (2, 4), (4, 4), (2, 2, 4)])
    def test_cached_factors_match_fresh_basis_and_rng_use(self, dims):
        # The factors come from a per-dim cache; each must equal the fresh
        # Weyl basis element (identity at index 0) and leave the stream
        # exactly where a freshly built draw leaves it.
        rng, fresh_rng = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(200):
            factors = sample_depolarizing_error_factors(dims, 0.6, rng)
            if fresh_rng.random() >= 0.6:
                assert factors is None
                continue
            index = int(fresh_rng.integers(num_error_channels(dims))) + 1
            for dim, factor in zip(reversed(dims), reversed(factors)):
                local = index % (dim * dim)
                index //= dim * dim
                basis = [np.eye(dim, dtype=complex)] + generalized_pauli_basis(dim, True)[1:]
                assert factor.tobytes() == basis[local].tobytes()
                assert not factor.flags.writeable
        assert rng.bit_generator.state == fresh_rng.bit_generator.state
        assert generalized_pauli_basis(4) is not generalized_pauli_basis(4)

    def test_lifted_qubit_factors_match_fresh_embedding(self):
        # A qubit-mode error on a ququart acts on levels |0>, |1>.
        basis = [np.eye(2, dtype=complex)] + generalized_pauli_basis(2, True)[1:]
        for local, factor in enumerate(basis):
            lifted = _error_factor(2, 4, local)
            assert lifted.tobytes() == embed_qubit_unitary(factor, [(0, 1)], (4,)).tobytes()
            assert not lifted.flags.writeable
        assert _error_factor(4, 4, 5) is _error_factor(4, 4, 5)
        with pytest.raises(ValueError, match="cannot embed"):
            _error_factor(4, 2, 1)


class TestAmplitudeDamping:
    def test_kraus_completeness(self):
        kraus = qudit_amplitude_damping(4, duration_ns=500.0, t1_ns=10000.0)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(4))

    def test_higher_levels_decay_faster(self):
        kraus = qudit_amplitude_damping(4, duration_ns=1000.0, t1_ns=10000.0)
        # K_m = sqrt(lambda_m) |0><m|; lambda increases with the level.
        lambdas = [abs(kraus[m][0, m]) ** 2 for m in range(1, 4)]
        assert lambdas[0] < lambdas[1] < lambdas[2]

    def test_zero_duration_is_identity_channel(self):
        kraus = qudit_amplitude_damping(4, duration_ns=0.0, t1_ns=10000.0)
        assert np.allclose(kraus[0], np.eye(4))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            qudit_amplitude_damping(4, duration_ns=-1.0, t1_ns=100.0)
        with pytest.raises(ValueError):
            qudit_amplitude_damping(4, duration_ns=1.0, t1_ns=0.0)
