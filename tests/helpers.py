"""Plain (non-fixture) helpers shared across the test suites.

These used to be copied into several test modules; they live here —
not in ``conftest.py`` — because test files import them by module name
(``from helpers import mini_points``) and the bare ``conftest`` name is
claimed by whichever of the tests/ and benchmarks/ conftest files loads
first in a full-tree run.  The tests directory is on ``sys.path`` during
collection, so the import resolves unambiguously.
"""

from __future__ import annotations

from repro.artifacts.providers import point_result_key
from repro.circuits.circuit import QuantumCircuit
from repro.core.compiler import compile_circuit
from repro.core.strategies import Strategy
from repro.experiments.fidelity_sweep import fidelity_sweep_points
from repro.experiments.sweep import _compiled


def compile_log_keys(cache_dir):
    """Compilation keys logged to the cache's audit log, in order."""
    log = cache_dir / "compile-log.txt"
    if not log.exists():
        return []
    return [line.split()[1] for line in log.read_text().splitlines()]


def result_key(point):
    """The per-point result-layer key the table provider looks ``point`` up under."""
    compilation = _compiled(
        point.workload, point.size, point.workload_kwargs, point.strategy, point.error_factor
    )
    return point_result_key(point, compilation.physical_circuit)


def mini_points(num_trajectories=3):
    """The Fig. 7 mini-grid: cnu-5 under the six Figure 7 strategies."""
    return fidelity_sweep_points(
        workloads=("cnu",), sizes=(5,), num_trajectories=num_trajectories, rng=0
    )


def mixed_physical(name, strategy=Strategy.MIXED_RADIX_CCZ, cswap=True):
    """A compiled 4-qubit circuit mixing 1q/2q/3q gates (``name`` keys caches)."""
    circuit = QuantumCircuit(4, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.ccx(0, 1, 2)
    if cswap:
        circuit.cswap(2, 0, 3)
    circuit.cx(2, 3)
    return compile_circuit(circuit, strategy).physical_circuit
