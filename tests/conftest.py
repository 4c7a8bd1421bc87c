"""Shared fixtures for the test suite.

The shared ``$REPRO_CACHE_DIR`` fixture and the autouse counter-isolation
fixture live here and resolve by name as usual; the plain helper
*functions* several suites used to copy (the compile-log audit reader,
the Fig. 7 mini-grid builder, the 4-qubit mixed-gate compile helper)
live in :mod:`helpers` (``from helpers import mini_points``) so a
full-tree run collecting benchmarks/ alongside tests/ cannot shadow
them through the ambiguous bare ``conftest`` module name.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import faults
from repro.circuits.circuit import QuantumCircuit
from repro.core.compile_cache import reset_cache
from repro.core.storage import reset_storage_stats
from repro.noise.fastpath import reset_fastpath


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def shared_cache(tmp_path, monkeypatch):
    """A fresh shared REPRO_CACHE_DIR, as workers on a common mount would see."""
    cache_dir = tmp_path / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache_dir))
    reset_cache()
    yield cache_dir
    reset_cache()


@pytest.fixture(autouse=True)
def fresh_fastpath():
    """Isolate the prescan/resume counters per test."""
    reset_fastpath()
    yield
    reset_fastpath()


@pytest.fixture(autouse=True)
def no_fault_plan():
    """No test leaks an installed fault plan (or storage counters) to the next."""
    faults.clear_plan()
    reset_storage_stats()
    yield
    faults.clear_plan()
    reset_storage_stats()


@pytest.fixture
def small_toffoli_circuit() -> QuantumCircuit:
    """A 5-qubit circuit mixing 1q, 2q and 3q gates."""
    circuit = QuantumCircuit(5, name="small-toffoli")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.ccx(0, 1, 2)
    circuit.x(3)
    circuit.ccx(2, 3, 4)
    circuit.cswap(4, 0, 2)
    circuit.ccz(1, 3, 4)
    circuit.swap(0, 4)
    return circuit


@pytest.fixture
def tiny_ccx_circuit() -> QuantumCircuit:
    """A 3-qubit circuit containing a single Toffoli."""
    return QuantumCircuit(3, name="tiny-ccx").h(0).h(1).ccx(0, 1, 2)
