"""Tests for the sweep-as-a-service front (repro.experiments.serve).

Covers the job lifecycle the operator workflow relies on — submit is
idempotent by content hash, watch streams rows as they land, merge
reproduces the unsharded artifacts byte for byte — plus the CLI surface
and the lazy-import guarantee (``--help`` and queue inspection never pull
in the numpy-heavy figure drivers).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import serve as serve_mod
from repro.experiments.scheduler import LeasedWorker, SchedulerError, job_status
from repro.experiments.serve import (
    job_dir,
    list_jobs,
    merge_result,
    queue_status,
    submit_job,
    watch_job,
)
from repro.experiments.sweep import SweepRunner
from helpers import mini_points as _shared_mini_points

REPO_ROOT = Path(__file__).parents[1]


def mini_points(num_trajectories=2):
    return _shared_mini_points(num_trajectories=num_trajectories)


def drain(root, job_id, worker_id="w0", **kwargs):
    kwargs.setdefault("runner", SweepRunner(max_workers=1))
    worker = LeasedWorker(
        job_dir(root, job_id),
        worker_id=worker_id,
        ttl=60,
        heartbeat=False,
        sleep=lambda seconds: None,
        **kwargs,
    )
    return worker.run()


class TestSubmit:
    def test_submit_is_idempotent_for_the_same_grid(self, tmp_path):
        points = mini_points()
        first = submit_job(tmp_path, points)
        second = submit_job(tmp_path, points)
        assert first == second
        assert first.startswith("job-") and list_jobs(tmp_path) == [first]

    def test_submit_different_grid_under_same_name_errors(self, tmp_path):
        points = mini_points()
        submit_job(tmp_path, points, name="fig7")
        with pytest.raises(SchedulerError, match="different grid"):
            submit_job(tmp_path, points[:3], name="fig7")
        # ...but resubmitting the identical grid under the name is a no-op.
        assert submit_job(tmp_path, points, name="fig7") == "fig7"

    def test_job_ids_must_be_path_segments(self, tmp_path):
        with pytest.raises(SchedulerError, match="path segment"):
            job_dir(tmp_path, "../escape")
        with pytest.raises(SchedulerError, match="path segment"):
            job_dir(tmp_path, "")

    def test_queue_status_counts_every_job(self, tmp_path):
        points = mini_points()
        first = submit_job(tmp_path, points, name="alpha")
        submit_job(tmp_path, points[:3], name="beta")
        status = queue_status(tmp_path)
        assert status["num_jobs"] == 2
        assert [job["job_id"] for job in status["jobs"]] == ["alpha", "beta"]
        assert status["jobs"][0]["num_points"] == len(points)
        assert status["jobs"][1]["pending"] == 3
        assert first in list_jobs(tmp_path)


class TestLifecycle:
    def test_submit_watch_merge_round_trip(self, tmp_path, shared_cache):
        """The full service lifecycle reproduces the unsharded bytes."""
        points = mini_points()
        unsharded_csv = tmp_path / "unsharded.csv"
        unsharded_json = tmp_path / "unsharded.json"
        SweepRunner(max_workers=1, csv_path=unsharded_csv, json_path=unsharded_json).run(points)

        root = tmp_path / "queue"
        job_id = submit_job(root, points)
        drain(root, job_id)

        lines = []
        streamed = watch_job(root, job_id, poll=0.01, emit=lines.append, max_polls=1)
        assert streamed == len(points) == len(lines)
        payloads = [json.loads(line) for line in lines]
        assert [payload["index"] for payload in payloads] == list(range(len(points)))
        assert payloads[0]["row"]["workload"] == "cnu"

        merged = merge_result(root, job_id, tmp_path / "out.csv", tmp_path / "out.json")
        assert merged.num_rows == len(points)
        assert merged.csv_path.read_bytes() == unsharded_csv.read_bytes()
        assert merged.json_path.read_bytes() == unsharded_json.read_bytes()

    def test_watch_streams_rows_while_workers_drain(self, tmp_path, shared_cache):
        """Interleaved polls see monotone progress, each row exactly once."""
        points = mini_points()
        root = tmp_path / "queue"
        job_id = submit_job(root, points)
        lines = []

        remaining = [len(points)]

        def drain_one_between_polls(_interval):
            if remaining[0] > 0:
                drain(root, job_id, max_points=1)
                remaining[0] -= 1

        streamed = watch_job(
            root, job_id, poll=0.01, emit=lines.append, sleep=drain_one_between_polls
        )
        assert streamed == len(points)
        indices = [json.loads(line)["index"] for line in lines]
        assert sorted(indices) == list(range(len(points)))
        assert len(set(indices)) == len(indices)
        assert job_status(job_dir(root, job_id))["mergeable"]

    def test_watch_respects_max_polls_on_a_stalled_job(self, tmp_path):
        root = tmp_path / "queue"
        job_id = submit_job(root, mini_points())
        streamed = watch_job(root, job_id, poll=0.01, emit=lambda line: None, max_polls=3)
        assert streamed == 0  # no workers ever attached; watch gave up cleanly

    def test_merge_before_drain_is_a_clean_error(self, tmp_path):
        root = tmp_path / "queue"
        job_id = submit_job(root, mini_points())
        with pytest.raises(SchedulerError, match="not yet evaluated"):
            merge_result(root, job_id)


class TestCli:
    def test_cli_round_trip_in_process(self, tmp_path, shared_cache, capsys):
        root = tmp_path / "queue"
        assert serve_mod.main(["submit", "--grid", "fig7-mini", "--dir", str(root)]) == 0
        job_id = capsys.readouterr().out.split()[1].rstrip(":")
        assert list_jobs(root) == [job_id]

        drain(root, job_id)

        assert serve_mod.main(["status", "--dir", str(root)]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["num_jobs"] == 1 and status["jobs"][0]["mergeable"]

        assert serve_mod.main(["status", "--dir", str(root), "--job", job_id]) == 0
        assert json.loads(capsys.readouterr().out)["mergeable"]

        assert serve_mod.main(["watch", "--dir", str(root), "--job", job_id]) == 0
        watch_out = capsys.readouterr().out.strip().splitlines()
        assert watch_out[-1].startswith("watched") and len(watch_out) > 1

        out_csv = tmp_path / "merged.csv"
        rc = serve_mod.main(
            ["merge", "--dir", str(root), "--job", job_id, "--csv", str(out_csv)]
        )
        assert rc == 0 and out_csv.exists()

    def test_cli_scheduler_errors_exit_2(self, tmp_path, capsys):
        rc = serve_mod.main(["status", "--dir", str(tmp_path), "--job", "no-such-job"])
        assert rc == 2
        assert "error:" in capsys.readouterr().out

    def test_cli_unknown_grid_is_a_clean_error(self, tmp_path, capsys):
        assert serve_mod.main(["submit", "--grid", "nope", "--dir", str(tmp_path)]) == 2
        assert "error: unknown grid 'nope'" in capsys.readouterr().out
        assert list_jobs(tmp_path) == []

    def test_cli_help_runs_clean_in_a_subprocess(self):
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.serve", "--help"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "submit" in result.stdout and "watch" in result.stdout


class TestLazyImports:
    def test_serve_import_does_not_pull_figure_drivers(self):
        """Importing the service front must not import the sweep drivers."""
        script = (
            "import sys; import repro.experiments.serve; "
            "heavy = [name for name in sys.modules if 'fidelity_sweep' in name]; "
            "print('clean' if not heavy else 'leaked: ' + ', '.join(heavy))"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "clean", result.stdout

    def test_package_lazily_re_exports_scheduler_and_serve_names(self):
        import repro.experiments as experiments

        assert experiments.submit_job is submit_job
        assert experiments.watch_job is watch_job
        assert experiments.queue_status is queue_status
        from repro.experiments.scheduler import LeaseCoordinator, plan_job

        assert experiments.LeaseCoordinator is LeaseCoordinator
        assert experiments.plan_job is plan_job
        with pytest.raises(AttributeError):
            experiments.no_such_name
