"""Unit tests for the durable-storage layer and the fault-injection harness."""

from __future__ import annotations

import errno
import json
from pathlib import Path

import pytest

from repro import faults
from repro.core import storage
from repro.core.compile_cache import CompileCache


def plan_of(*rules: faults.FaultRule) -> faults.FaultPlan:
    return faults.FaultPlan(rules=rules)


class TestAtomicWrites:
    def test_round_trip_and_parent_creation(self, tmp_path):
        path = storage.atomic_write_bytes(tmp_path / "a" / "b" / "c.bin", b"\x00payload")
        assert path.read_bytes() == b"\x00payload"
        assert storage.read_bytes(path) == b"\x00payload"
        assert storage.STATS.writes == 1 and storage.STATS.reads == 1

    def test_json_bytes_match_historical_format(self, tmp_path):
        payload = {"rows": [1, 2], "path": Path("x")}
        path = storage.atomic_write_json(tmp_path / "r.json", payload)
        assert path.read_text() == json.dumps(payload, indent=2, default=str)
        assert storage.read_json(path) == {"rows": [1, 2], "path": "x"}

    def test_no_temp_files_survive_a_clean_write(self, tmp_path):
        storage.atomic_write_text(tmp_path / "x.txt", "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]

    def test_torn_write_publishes_truncated_bytes(self, tmp_path):
        plan = plan_of(faults.FaultRule(op="write", path="*.bin", kind="torn", at=0, arg=4))
        with faults.fault_plan(plan):
            storage.atomic_write_bytes(tmp_path / "t.bin", b"full payload")
        # The rename completes: readers must *detect* the corruption.
        assert (tmp_path / "t.bin").read_bytes() == b"full"
        assert plan.stats.as_dict()["torn"] == 1

    def test_crash_leaves_temp_stranded_and_destination_untouched(self, tmp_path):
        (tmp_path / "c.bin").write_bytes(b"old bytes")
        plan = plan_of(faults.FaultRule(op="write", path="*.bin", kind="crash", at=0))
        with faults.fault_plan(plan):
            with pytest.raises(faults.SimulatedCrash):
                storage.atomic_write_bytes(tmp_path / "c.bin", b"new bytes")
        assert (tmp_path / "c.bin").read_bytes() == b"old bytes"
        assert len(list(tmp_path.glob("*.tmp"))) == 1

    def test_enospc_raises_and_reaps_nothing_partial(self, tmp_path):
        plan = plan_of(faults.FaultRule(op="write", path="*", kind="enospc"))
        with faults.fault_plan(plan):
            with pytest.raises(OSError) as info:
                storage.atomic_write_bytes(tmp_path / "full.bin", b"x")
        assert info.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []


class TestRetryPolicy:
    def test_transient_eio_retries_with_exponential_backoff(self, tmp_path):
        sleeps: list[float] = []
        policy = storage.RetryPolicy(max_attempts=3, base_s=0.5, sleep=sleeps.append)
        plan = plan_of(
            faults.FaultRule(op="read", path="*.dat", kind="eio", at=0),
            faults.FaultRule(op="read", path="*.dat", kind="eio", at=1),
        )
        (tmp_path / "x.dat").write_bytes(b"eventually")
        with faults.fault_plan(plan):
            assert storage.read_bytes(tmp_path / "x.dat", retry=policy) == b"eventually"
        assert sleeps == [0.5, 1.0]
        assert storage.STATS.retries == 2

    def test_budget_exhaustion_raises_the_final_error(self, tmp_path):
        sleeps: list[float] = []
        policy = storage.RetryPolicy(max_attempts=2, base_s=0.1, sleep=sleeps.append)
        plan = plan_of(faults.FaultRule(op="read", path="*", kind="eio"))
        (tmp_path / "x.dat").write_bytes(b"never")
        with faults.fault_plan(plan):
            with pytest.raises(OSError) as info:
                storage.read_bytes(tmp_path / "x.dat", retry=policy)
        assert info.value.errno == errno.EIO
        assert sleeps == [0.1]

    def test_non_transient_errors_fail_immediately(self, tmp_path):
        sleeps: list[float] = []
        policy = storage.RetryPolicy(max_attempts=5, base_s=0.1, sleep=sleeps.append)
        plan = plan_of(faults.FaultRule(op="write", path="*", kind="enospc"))
        with faults.fault_plan(plan):
            with pytest.raises(OSError):
                storage.atomic_write_bytes(tmp_path / "x.bin", b"x", retry=policy)
        assert sleeps == []

    def test_missing_file_is_not_retried(self, tmp_path):
        sleeps: list[float] = []
        policy = storage.RetryPolicy(max_attempts=5, base_s=0.1, sleep=sleeps.append)
        with pytest.raises(FileNotFoundError):
            storage.read_bytes(tmp_path / "absent.bin", retry=policy)
        assert sleeps == []

    def test_default_policy_reads_env_knobs(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_MAX", "7")
        monkeypatch.setenv("REPRO_RETRY_BASE_S", "0.25")
        policy = storage.default_retry_policy()
        assert policy.max_attempts == 7
        assert policy.base_s == 0.25
        monkeypatch.delenv("REPRO_RETRY_MAX")
        monkeypatch.delenv("REPRO_RETRY_BASE_S")
        policy = storage.default_retry_policy()
        assert policy.max_attempts == storage.DEFAULT_RETRY_MAX
        assert policy.base_s == storage.DEFAULT_RETRY_BASE_S

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_default_policy_rejects_bad_base(self, monkeypatch, value):
        # Such a base made the first retry's sleep raise, so a transient
        # error was never retried.
        monkeypatch.setenv("REPRO_RETRY_BASE_S", value)
        with pytest.raises(ValueError, match="REPRO_RETRY_BASE_S"):
            storage.default_retry_policy()

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_default_policy_rejects_bad_max(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_RETRY_MAX", value)
        with pytest.raises(ValueError, match="REPRO_RETRY_MAX"):
            storage.default_retry_policy()

    def test_default_policy_accepts_zero_base(self, monkeypatch):
        monkeypatch.setenv("REPRO_RETRY_BASE_S", "0")
        monkeypatch.setenv("REPRO_RETRY_MAX", "1")
        policy = storage.default_retry_policy()
        assert (policy.max_attempts, policy.base_s) == (1, 0.0)


class TestRenameAndLink:
    def test_durable_link_is_exclusive(self, tmp_path):
        a = storage.write_private_text(tmp_path / "a.tmp", "claim-a")
        b = storage.write_private_text(tmp_path / "b.tmp", "claim-b")
        storage.durable_link(a, tmp_path / "claim")
        with pytest.raises(FileExistsError):
            storage.durable_link(b, tmp_path / "claim")
        assert (tmp_path / "claim").read_text() == "claim-a"

    def test_durable_rename_race_loser_sees_file_not_found(self, tmp_path):
        (tmp_path / "src").write_text("x")
        storage.durable_rename(tmp_path / "src", tmp_path / "dst")
        with pytest.raises(FileNotFoundError):
            storage.durable_rename(tmp_path / "src", tmp_path / "elsewhere")

    def test_injected_link_failure_raises_after_retries(self, tmp_path):
        sleeps: list[float] = []
        policy = storage.RetryPolicy(max_attempts=2, base_s=0.1, sleep=sleeps.append)
        (tmp_path / "src").write_text("x")
        plan = plan_of(faults.FaultRule(op="link", path="*claim*", kind="fail"))
        with faults.fault_plan(plan):
            with pytest.raises(OSError):
                storage.durable_link(tmp_path / "src", tmp_path / "claim", retry=policy)
        assert not (tmp_path / "claim").exists()
        assert sleeps == [0.1]  # injected EIO is transient; the budget bounds it

    def test_one_shot_rename_fault_self_heals_via_retry(self, tmp_path):
        sleeps: list[float] = []
        policy = storage.RetryPolicy(max_attempts=3, base_s=0.1, sleep=sleeps.append)
        (tmp_path / "src").write_text("x")
        plan = plan_of(faults.FaultRule(op="rename", path="*dst*", kind="fail", at=0))
        with faults.fault_plan(plan):
            storage.durable_rename(tmp_path / "src", tmp_path / "dst", retry=policy)
        assert (tmp_path / "dst").read_text() == "x"
        assert sleeps == [0.1]


class TestFaultPlanActivation:
    def test_env_knob_inline_json(self, tmp_path, monkeypatch):
        plan_json = json.dumps(
            {"rules": [{"op": "write", "path": "*.bin", "kind": "enospc"}]}
        )
        monkeypatch.setenv("REPRO_FAULT_PLAN", plan_json)
        with pytest.raises(OSError):
            storage.atomic_write_bytes(tmp_path / "x.bin", b"x")
        monkeypatch.delenv("REPRO_FAULT_PLAN")
        storage.atomic_write_bytes(tmp_path / "x.bin", b"x")

    def test_env_knob_plan_file(self, tmp_path, monkeypatch):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(
            json.dumps({"rules": [{"op": "write", "path": "*.bin", "kind": "enospc"}]})
        )
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(plan_path))
        with pytest.raises(OSError):
            storage.atomic_write_bytes(tmp_path / "x.bin", b"x")

    def test_invalid_plan_spec_fails_loudly(self, monkeypatch, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(bad))
        with pytest.raises(ValueError, match="unreadable fault plan"):
            storage.atomic_write_bytes(tmp_path / "x.bin", b"x")

    def test_installed_plan_wins_over_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"rules": [{"op": "write", "path": "*", "kind": "enospc"}]}),
        )
        with faults.fault_plan(faults.FaultPlan()):
            storage.atomic_write_bytes(tmp_path / "fine.bin", b"x")

    def test_plan_round_trips_through_json(self):
        plan = faults.seeded_plan(77, [("write", "*.pkl"), ("read", "*.json")], num_faults=6)
        clone = faults.FaultPlan.from_json(plan.to_json())
        assert [r.to_json() for r in clone.rules] == [r.to_json() for r in plan.rules]
        assert clone.seed == 77

    def test_seeded_plans_are_reproducible_and_seed_sensitive(self):
        targets = [("write", "*"), ("read", "*"), ("rename", "*")]
        again = [faults.seeded_plan(5, targets).to_json() for _ in range(2)]
        assert again[0] == again[1]
        assert faults.seeded_plan(6, targets).to_json() != again[0]

    def test_nth_match_addressing(self, tmp_path):
        plan = plan_of(faults.FaultRule(op="write", path="*.bin", kind="enospc", at=2))
        with faults.fault_plan(plan):
            storage.atomic_write_bytes(tmp_path / "a.bin", b"1")
            storage.atomic_write_bytes(tmp_path / "b.bin", b"2")
            with pytest.raises(OSError):
                storage.atomic_write_bytes(tmp_path / "c.bin", b"3")
            storage.atomic_write_bytes(tmp_path / "d.bin", b"4")
        assert plan.stats.total == 1


class TestQuarantine:
    def test_quarantine_moves_bytes_and_writes_reason(self, tmp_path):
        victim = tmp_path / "store" / "bad.pkl"
        victim.parent.mkdir()
        victim.write_bytes(b"corrupt")
        dest = storage.quarantine(victim, tmp_path / "store", "torn pickle", error=ValueError("x"))
        assert dest == tmp_path / "store" / "quarantine" / "bad.pkl"
        assert dest.read_bytes() == b"corrupt"
        assert not victim.exists()
        reason = json.loads(dest.with_name("bad.pkl.reason.json").read_text())
        assert reason["reason"] == "torn pickle"
        assert "ValueError" in reason["error"]
        assert storage.STATS.quarantined == 1

    def test_quarantine_race_loser_returns_none(self, tmp_path):
        assert storage.quarantine(tmp_path / "gone.pkl", tmp_path, "already handled") is None
        assert storage.STATS.quarantined == 0

    def test_quarantine_works_while_a_fault_plan_is_active(self, tmp_path):
        # The containment protocol must stay dependable under the very plan
        # that caused the corruption: rename/write gates do not apply to it.
        victim = tmp_path / "bad.pkl"
        victim.write_bytes(b"corrupt")
        plan = plan_of(
            faults.FaultRule(op="rename", path="*", kind="fail"),
            faults.FaultRule(op="write", path="*", kind="enospc"),
        )
        with faults.fault_plan(plan):
            dest = storage.quarantine(victim, tmp_path, "under chaos")
        assert dest is not None and dest.read_bytes() == b"corrupt"
        assert dest.with_name("bad.pkl.reason.json").exists()


class TestCacheDegradation:
    def test_failing_disk_layer_degrades_with_one_warning(self, tmp_path):
        cache = CompileCache(directory=tmp_path / "cache")
        plan = plan_of(faults.FaultRule(op="write", path="*.pkl", kind="enospc"))
        with faults.fault_plan(plan):
            with pytest.warns(RuntimeWarning, match="degrading to in-process caching"):
                cache.put("deadbeef", {"artifact": 1})
            cache.put("cafe" * 16, {"artifact": 2})  # second failure: no second warning
        assert cache.stats.degraded == 2
        assert cache.stats.disk_errors == 2
        # The memory front still serves both artifacts: no crash, no loss.
        assert cache.get("deadbeef") == {"artifact": 1}
        assert cache.get("cafe" * 16) == {"artifact": 2}

    def test_disk_layer_recovers_when_the_fault_clears(self, tmp_path):
        cache = CompileCache(directory=tmp_path / "cache")
        plan = plan_of(faults.FaultRule(op="write", path="*.pkl", kind="enospc", at=0))
        with faults.fault_plan(plan):
            with pytest.warns(RuntimeWarning):
                cache.put("deadbeef", {"artifact": 1})
            cache.put("cafe" * 16, {"artifact": 2})  # the one-shot fault has passed
        cache.clear_memory()
        assert cache.get("cafe" * 16) == {"artifact": 2}
