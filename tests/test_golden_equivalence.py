"""Golden-equivalence harness for the pass-pipeline refactor.

The new ``DecomposePass -> PlacePass -> RoutePass -> EmitPass`` pipeline must
emit **bit-for-bit identical** physical circuits to the frozen pre-refactor
monolithic driver (``tests/legacy_compiler.py``) for every strategy on the
paper's workloads, and a compilation served from the disk cache must be
indistinguishable from a fresh one.  The frozen compiler places and routes
with the full-scan cost model of ``tests/legacy_routing.py``, so the
route-heavy cases pin every routing SWAP of the live sparse cost model.
"""

import ast
from pathlib import Path

import pytest
from legacy_compiler import LegacyQuantumWaltzCompiler

from repro.core.compile_cache import get_cache, reset_cache
from repro.core.compiler import QuantumWaltzCompiler
from repro.core.strategies import Strategy
from repro.experiments.sweep import _compiled
from repro.workloads import workload_by_name

#: The ISSUE-mandated golden workloads (Cuccaro adder, CNU, QRAM).
GOLDEN_WORKLOADS = [("cuccaro", 5), ("cnu", 5), ("qram", 6)]

#: Route-heavy cases: every figure workload at sizes where most disruption
#: tie-breaks are decided among several candidates.
ROUTE_HEAVY_WORKLOADS = [
    (workload, size) for workload in ("qram", "cnu", "cuccaro", "select") for size in (13, 21)
]

#: Frozen modules that must not reach the live placement or routing code.
FROZEN_MODULES = ("legacy_compiler.py", "legacy_routing.py")
LIVE_COST_MODEL = ("repro.core.mapping", "repro.core.routing")


def assert_same_compilation(new, old) -> None:
    """Assert two compilation results are operationally identical."""
    assert new.physical_circuit.ops == old.physical_circuit.ops
    assert new.physical_circuit.device_dims == old.physical_circuit.device_dims
    assert new.physical_circuit.initial_modes == old.physical_circuit.initial_modes
    assert new.physical_circuit.name == old.physical_circuit.name
    assert new.duration_ns == old.duration_ns
    assert new.initial_placement == old.initial_placement
    assert new.final_placement == old.final_placement


class TestGoldenEquivalence:
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("workload,size", GOLDEN_WORKLOADS + ROUTE_HEAVY_WORKLOADS)
    def test_pipeline_matches_legacy_compiler(self, workload, size, strategy):
        circuit = workload_by_name(workload, size)
        new = QuantumWaltzCompiler().compile(circuit, strategy=strategy)
        old = LegacyQuantumWaltzCompiler().compile(circuit, strategy=strategy)
        assert_same_compilation(new, old)

    @pytest.mark.parametrize("module", FROZEN_MODULES)
    def test_frozen_oracle_does_not_import_live_cost_model(self, module):
        tree = ast.parse((Path(__file__).parent / module).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert [name for name in sorted(imported) if name.startswith(LIVE_COST_MODEL)] == []

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_pass_report_accounts_for_every_op(self, strategy):
        circuit = workload_by_name("cnu", 5)
        result = QuantumWaltzCompiler().compile(circuit, strategy=strategy)
        report = result.pass_report
        assert [metrics.name for metrics in report.passes] == [
            "decompose",
            "place",
            "route",
            "emit",
        ]
        # All physical ops are appended while the emit pass runs (routing
        # SWAPs are demand-driven inside it); the earlier passes only build
        # state.
        assert report.metrics_for("emit").op_delta == result.num_ops
        assert all(metrics.op_delta == 0 for metrics in report.passes[:-1])
        assert all(metrics.wall_time_s >= 0.0 for metrics in report.passes)


class TestCacheRoundTrip:
    @pytest.fixture
    def disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_cache()
        yield tmp_path
        reset_cache()

    def test_cold_miss_then_disk_hit_same_result(self, disk_cache):
        args = ("cnu", 5, (), "MIXED_RADIX_CCZ", 1.0)
        first = _compiled(*args)
        cache = get_cache()
        assert cache.stats.misses == 1
        assert cache.stats.puts == 1

        cache.clear_memory()  # force the second lookup down to the disk layer
        second = _compiled(*args)
        assert cache.stats.disk_hits == 1
        assert second is not first  # deserialized from disk, not memoized
        assert_same_compilation(second, first)

        third = _compiled(*args)  # now served by the in-process LRU front
        assert third is second
        assert cache.stats.memory_hits == 1
