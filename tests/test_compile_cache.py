"""Tests for the shared compilation-artifact cache (repro.core.compile_cache)."""

import json

import pytest

from repro.core.compile_cache import (
    CACHE_DIR_ENV_VAR,
    CACHE_SCHEMA_VERSION,
    CompileCache,
    compilation_cache_key,
    fingerprint,
    get_cache,
    reset_cache,
)
from repro.core.compiler import compile_circuit
from repro.core.gateset import ErrorModel
from repro.core.strategies import Strategy
from repro.experiments.sweep import SweepPoint, SweepRunner, point_seeds
from repro.noise.model import NoiseModel
from repro.noise.program import cached_compile_program
from repro.noise.trajectory import TrajectorySimulator
from repro.workloads import workload_by_name


@pytest.fixture
def disk_cache(tmp_path, monkeypatch):
    """A fresh process-wide cache backed by a temporary directory."""
    monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
    reset_cache()
    yield tmp_path
    reset_cache()


class TestKeys:
    def test_fingerprint_respects_token_boundaries(self):
        assert fingerprint(["ab", "c"]) != fingerprint(["a", "bc"])
        assert fingerprint(["a", "b"]) == fingerprint(["a", "b"])

    def test_key_sensitivity(self):
        circuit = workload_by_name("cnu", 5)
        other_circuit = workload_by_name("cnu", 6)
        base = compilation_cache_key(circuit, "QUBIT_ONLY", None, ErrorModel())
        assert base == compilation_cache_key(circuit, "QUBIT_ONLY", None, ErrorModel())
        assert base != compilation_cache_key(other_circuit, "QUBIT_ONLY", None, ErrorModel())
        assert base != compilation_cache_key(circuit, "FULL_QUQUART", None, ErrorModel())
        assert base != compilation_cache_key(
            circuit, "QUBIT_ONLY", None, ErrorModel(ququart_error_factor=2.0)
        )


class TestCompileCache:
    def test_memory_only_round_trip(self):
        cache = CompileCache(directory=None)
        assert cache.get("k" * 64) is None
        cache.put("k" * 64, {"value": 1})
        assert cache.get("k" * 64) == {"value": 1}
        assert not cache.persistent
        with pytest.raises(ValueError):
            cache.path_for("k" * 64)

    def test_memory_front_is_lru(self):
        cache = CompileCache(directory=None, memory_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now the oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_none_is_not_cacheable(self):
        with pytest.raises(ValueError):
            CompileCache(directory=None).put("k", None)

    def test_disk_round_trip_across_instances(self, tmp_path):
        writer = CompileCache(directory=tmp_path)
        writer.put("deadbeef", [1, 2, 3])
        assert writer.path_for("deadbeef").exists()
        assert f"v{CACHE_SCHEMA_VERSION}" in str(writer.path_for("deadbeef"))

        reader = CompileCache(directory=tmp_path)  # a different process, effectively
        assert reader.get("deadbeef") == [1, 2, 3]
        assert reader.stats.disk_hits == 1

    def test_corrupt_entry_is_a_miss_and_quarantined(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        path = cache.path_for("cafebabe")
        path.parent.mkdir(parents=True)
        path.write_bytes(b"definitely not a pickle")
        assert cache.get("cafebabe") is None
        assert cache.stats.disk_errors == 1
        # Never honoured, never silently deleted: the bytes move into
        # quarantine/ with a JSON reason record.
        assert not path.exists()
        quarantined = tmp_path / "quarantine" / path.name
        assert quarantined.read_bytes() == b"definitely not a pickle"
        reason = json.loads((tmp_path / "quarantine" / f"{path.name}.reason.json").read_text())
        assert reason["reason"] == "undeserializable cache entry"
        assert reason["error"] is not None

    def test_get_or_create_computes_once_and_logs(self, tmp_path):
        cache = CompileCache(directory=tmp_path)
        calls = []

        def factory():
            calls.append(1)
            return "artifact"

        assert cache.get_or_create("feed" * 16, factory) == "artifact"
        assert cache.get_or_create("feed" * 16, factory) == "artifact"
        assert len(calls) == 1
        log = (tmp_path / "compile-log.txt").read_text().splitlines()
        assert len(log) == 1 and log[0].endswith("feed" * 16)

    def test_get_cache_follows_environment(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        reset_cache()
        try:
            assert not get_cache().persistent
            monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(tmp_path))
            cache = get_cache()
            assert cache.persistent and cache.directory == tmp_path
            assert get_cache() is cache
        finally:
            reset_cache()


class TestProgramCache:
    def test_cached_program_is_bit_for_bit(self, disk_cache):
        physical = compile_circuit(
            workload_by_name("cnu", 5), Strategy.MIXED_RADIX_CCZ
        ).physical_circuit
        cold = TrajectorySimulator(NoiseModel(), rng=7).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        assert get_cache().stats.puts >= 1
        get_cache().clear_memory()
        warm = TrajectorySimulator(NoiseModel(), rng=7).average_fidelity(
            physical, num_trajectories=6, batch_size=3
        )
        assert get_cache().stats.disk_hits >= 1
        assert warm.fidelities == cold.fidelities

    def test_program_structure_survives_round_trip(self, disk_cache):
        physical = compile_circuit(
            workload_by_name("cuccaro", 4), Strategy.FULL_QUQUART
        ).physical_circuit
        cold = cached_compile_program(physical, NoiseModel())
        get_cache().clear_memory()
        warm = cached_compile_program(physical, NoiseModel())
        assert warm is not cold
        assert len(warm.steps) == len(cold.steps)
        assert [type(step).__name__ for step in warm.steps] == [
            type(step).__name__ for step in cold.steps
        ]
        assert warm.dims == cold.dims


class TestSweepRunnerReuse:
    """Acceptance: cached sweeps are identical and compile each key once."""

    def _points(self):
        seeds = point_seeds(3, 4)
        strategies = ["QUBIT_ONLY", "MIXED_RADIX_CCZ", "FULL_QUQUART", "QUBIT_ITOFFOLI"]
        return [
            SweepPoint(workload="cnu", size=5, strategy=s, num_trajectories=2, seed=seed)
            for s, seed in zip(strategies, seeds)
        ]

    def test_cached_run_matches_uncached_and_reuses(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV_VAR, raising=False)
        reset_cache()
        uncached_csv = tmp_path / "uncached.csv"
        SweepRunner(max_workers=2, csv_path=uncached_csv).run(self._points())

        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, str(cache_dir))
        reset_cache()
        try:
            first_csv = tmp_path / "first.csv"
            second_csv = tmp_path / "second.csv"
            SweepRunner(max_workers=2, csv_path=first_csv).run(self._points())
            log_after_first = (cache_dir / "compile-log.txt").read_text().splitlines()
            # Each unique (circuit, strategy, device) — and each trajectory
            # program — was compiled at most once across all workers.
            keys = [line.split()[1] for line in log_after_first]
            assert len(keys) == len(set(keys))

            SweepRunner(max_workers=2, csv_path=second_csv).run(self._points())
            log_after_second = (cache_dir / "compile-log.txt").read_text().splitlines()
            assert log_after_second == log_after_first  # zero recompilations

            assert first_csv.read_bytes() == uncached_csv.read_bytes()
            assert second_csv.read_bytes() == uncached_csv.read_bytes()
        finally:
            reset_cache()
