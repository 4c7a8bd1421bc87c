"""Tests for the pluggable array-backend layer (repro.backends).

The numpy reference backend must be bit-for-bit interchangeable with the
historical hard-coded numpy path, the registry must resolve names and the
``REPRO_BACKEND`` environment variable with actionable errors, and the
optional CuPy/torch adapters must skip cleanly when their libraries are
absent (which is the normal state of the CI matrix).
"""

import numpy as np
import pytest

from repro.backends import (
    BACKEND_ENV_VAR,
    BackendUnavailable,
    CupyBackend,
    NumpyBackend,
    TorchBackend,
    available_backends,
    get_backend,
    resolve_backend,
)
from repro.backends.base import ArrayBackend
from repro.circuits.circuit import QuantumCircuit
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.noise.batched import BatchedTrajectoryEngine
from repro.noise.model import NoiseModel
from repro.noise.trajectory import TrajectorySimulator
from repro.qudit.random import haar_random_state
from repro.qudit.states import apply_unitary, apply_unitary_batch


def _circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4, name="backend-equivalence")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.ccx(0, 1, 2)
    circuit.cx(2, 3)
    return circuit


class TestRegistry:
    def test_numpy_always_available(self):
        assert "numpy" in available_backends()

    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert get_backend().name == "numpy"

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert get_backend().name == "numpy"

    def test_env_var_names_are_normalized(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, " NumPy ")
        assert get_backend().name == "numpy"

    def test_unknown_backend_lists_registry(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("tensorflow")

    def test_instances_are_cached(self):
        assert get_backend("numpy") is get_backend("numpy")

    def test_resolve_accepts_instances(self):
        backend = NumpyBackend()
        assert resolve_backend(backend) is backend
        assert resolve_backend(None).name == "numpy"
        assert resolve_backend("numpy").name == "numpy"

    def test_missing_library_raises_backend_unavailable(self):
        for cls, name in ((CupyBackend, "cupy"), (TorchBackend, "torch")):
            if cls.is_available():
                continue  # exercised on machines without the library
            with pytest.raises(BackendUnavailable, match=name):
                get_backend(name)


class _TracingBackend(NumpyBackend):
    """Numpy backend that counts primitive calls — proves dispatch happens."""

    name = "tracing"

    def __init__(self):
        super().__init__()
        self.calls = 0

    def take_batch(self, states, indices, out=None):
        self.calls += 1
        return super().take_batch(states, indices, out=out)

    def multiply(self, a, b, out=None):
        self.calls += 1
        return super().multiply(a, b, out=out)

    def einsum(self, spec, *operands, out=None):
        self.calls += 1
        return super().einsum(spec, *operands, out=out)


class _FakeDeviceBackend(NumpyBackend):
    """Backend that pretends its arrays live off-host.

    Exercises the device residency plumbing (asarray/to_numpy round trips
    around noise events) without needing an accelerator; the arithmetic is
    numpy's, so results must stay bit-for-bit equal to the default path.
    """

    name = "fake-device"
    host_memory = False

    def __init__(self):
        super().__init__()
        self.transfers = 0

    def asarray(self, array):
        self.transfers += 1
        return np.array(array, dtype=np.complex128)  # always copy, like a device

    def to_numpy(self, array):
        self.transfers += 1
        return np.array(array)


class TestNumpyBackendEquivalence:
    def test_kernels_dispatch_through_protocol(self):
        physical = compile_circuit(_circuit(), Strategy.MIXED_RADIX_CCZ).physical_circuit
        tracing = _TracingBackend()
        reference = TrajectorySimulator(NoiseModel(), rng=11).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        traced = TrajectorySimulator(NoiseModel(), rng=11, backend=tracing).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        assert tracing.calls > 0
        assert traced.fidelities == reference.fidelities

    def test_explicit_numpy_backend_is_bitwise_default(self):
        physical = compile_circuit(_circuit(), Strategy.FULL_QUQUART).physical_circuit
        reference = TrajectorySimulator(NoiseModel(), rng=5).average_fidelity(
            physical, num_trajectories=5
        )
        explicit = TrajectorySimulator(NoiseModel(), rng=5, backend="numpy").average_fidelity(
            physical, num_trajectories=5
        )
        assert explicit.fidelities == reference.fidelities

    def test_fake_device_backend_round_trips_bitwise(self):
        physical = compile_circuit(_circuit(), Strategy.MIXED_RADIX_CCZ).physical_circuit
        fake = _FakeDeviceBackend()
        reference = TrajectorySimulator(NoiseModel(), rng=23).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        devices = TrajectorySimulator(NoiseModel(), rng=23, backend=fake).average_fidelity(
            physical, num_trajectories=4, batch_size=2
        )
        assert fake.transfers > 0
        assert devices.fidelities == reference.fidelities

    def test_fake_device_loop_path_bitwise(self):
        physical = compile_circuit(_circuit(), Strategy.QUBIT_ONLY).physical_circuit
        reference = TrajectorySimulator(NoiseModel(), rng=29).average_fidelity(
            physical, num_trajectories=3
        )
        devices = TrajectorySimulator(
            NoiseModel(), rng=29, backend=_FakeDeviceBackend()
        ).average_fidelity(physical, num_trajectories=3)
        assert devices.fidelities == reference.fidelities

    def test_engine_accepts_backend_instance(self):
        physical = compile_circuit(_circuit(), Strategy.FULL_QUQUART).physical_circuit
        engine = BatchedTrajectoryEngine(physical, NoiseModel(), backend="numpy")
        assert engine.backend.name == "numpy"


class TestGenericBaseImplementation:
    """The base-class dense apply (used by accelerator adapters) matches numpy."""

    def test_generic_apply_unitary_matches_reference(self):
        class _BasePathBackend(NumpyBackend):
            name = "base-path"
            apply_unitary = ArrayBackend.apply_unitary
            apply_unitary_batch = ArrayBackend.apply_unitary_batch

        backend = _BasePathBackend()
        rng = np.random.default_rng(2)
        dims = (4, 2, 4)
        state = haar_random_state(dims, rng)
        states = np.array([haar_random_state(dims, rng) for _ in range(3)])
        for targets in ((1,), (0, 1), (2, 0)):
            op_dim = int(np.prod([dims[t] for t in targets]))
            matrix = rng.standard_normal((op_dim, op_dim)) + 1j * rng.standard_normal(
                (op_dim, op_dim)
            )
            produced = backend.apply_unitary(state, matrix, targets, dims)
            expected = apply_unitary(state, matrix, targets, dims)
            assert np.array_equal(produced, expected), targets
            produced_batch = backend.apply_unitary_batch(states, matrix, targets, dims)
            expected_batch = apply_unitary_batch(states, matrix, targets, dims)
            assert np.array_equal(produced_batch, expected_batch), targets


@pytest.mark.skipif(not CupyBackend.is_available(), reason="cupy not installed")
class TestCupyAdapter:
    def test_round_trip_and_kernels(self):
        backend = get_backend("cupy")
        physical = compile_circuit(_circuit(), Strategy.MIXED_RADIX_CCZ).physical_circuit
        reference = TrajectorySimulator(NoiseModel(), rng=3).average_fidelity(
            physical, num_trajectories=3, batch_size=3
        )
        accelerated = TrajectorySimulator(NoiseModel(), rng=3, backend=backend).average_fidelity(
            physical, num_trajectories=3, batch_size=3
        )
        assert accelerated.fidelities == pytest.approx(reference.fidelities)


@pytest.mark.skipif(not TorchBackend.is_available(), reason="torch not installed")
class TestTorchAdapter:
    def test_round_trip_and_kernels(self):
        backend = get_backend("torch")
        physical = compile_circuit(_circuit(), Strategy.MIXED_RADIX_CCZ).physical_circuit
        reference = TrajectorySimulator(NoiseModel(), rng=3).average_fidelity(
            physical, num_trajectories=3, batch_size=3
        )
        accelerated = TrajectorySimulator(NoiseModel(), rng=3, backend=backend).average_fidelity(
            physical, num_trajectories=3, batch_size=3
        )
        assert accelerated.fidelities == pytest.approx(reference.fidelities)
