"""Sweep-as-a-service front: submit jobs, watch rows land, merge results.

This is the async submission layer over :mod:`repro.experiments.scheduler`:
a **queue root** directory (a shared mount for multi-host fleets) holds one
coordinator directory per job under ``jobs/<job_id>/``, and this module
adds the operator workflow around it:

* :func:`submit_job` freezes a grid into a named job.  Job ids default to
  ``job-<fingerprint12>``, so resubmitting the same grid is idempotent
  (you get the same job back) while submitting a *different* grid under an
  existing name errors instead of mixing artifacts.
* :func:`queue_status` summarizes every job in the queue;
  :func:`~repro.experiments.scheduler.job_status` counts one job's
  pending/leased/expired/done/failed/reclaimed points.
* :func:`watch_job` polls (``REPRO_SERVE_POLL_S``) and streams each
  point's row as a JSON line the moment it lands — merged rows appear
  while workers are still draining the grid.
* :func:`merge_result` reassembles a finished job into CSV/JSON artifacts
  byte-identical to a local run of the same grid.

Every durable record under the queue root (job specs, leases, markers,
row stores) is published through :mod:`repro.core.storage` by the
scheduler layer, so submissions and merges survive kills and injected
faults without ever tearing a file.

Workers attach to a submitted job with the scheduler CLI::

    python -m repro.experiments.scheduler work --dir ROOT/jobs/<job_id>

Command line (mirroring the scheduler CLI)::

    python -m repro.experiments.serve submit --grid fig7 --dir ROOT
    python -m repro.experiments.serve status --dir ROOT [--job ID]
    python -m repro.experiments.serve watch  --dir ROOT --job ID
    python -m repro.experiments.serve merge  --dir ROOT --job ID

The CLI never imports the numpy-heavy figure drivers until a named grid is
actually built, so ``--help`` (and status/watch against a live queue) stay
cheap on operator machines.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.core import env
from repro.experiments.scheduler import (
    DEFAULT_POLL_S,
    JobSpec,
    MergeResult,
    SchedulerError,
    SweepPoint,
    job_status,
    landed_rows,
    load_job,
    merge_job,
    named_grid_points,
    plan_job,
    save_job,
)

__all__ = [
    "job_dir",
    "list_jobs",
    "main",
    "merge_result",
    "queue_status",
    "submit_job",
    "watch_job",
]


def job_dir(root: str | Path, job_id: str) -> Path:
    """The coordinator directory of one job under a queue root."""
    if "/" in job_id or not job_id:
        raise SchedulerError(f"job id {job_id!r} must be a non-empty path segment")
    return Path(root) / "jobs" / job_id


def submit_job(
    root: str | Path,
    points: Sequence[SweepPoint],
    policy: str = "fifo",
    name: str | None = None,
) -> str:
    """Enqueue a grid as a job; return its job id.

    Deterministically named: ``name`` if given, else ``job-<fingerprint12>``
    derived from the job's content hash (never from a clock or a counter,
    so every submitter of the same grid lands on the same job).  Submitting
    an identical grid to an existing job is an idempotent no-op; submitting
    a different grid under an existing name raises :class:`SchedulerError`.
    """
    spec = plan_job(points, policy=policy)
    job_id = name if name is not None else f"job-{spec.fingerprint[:12]}"
    save_job(spec, job_dir(root, job_id))
    return job_id


def list_jobs(root: str | Path) -> list[str]:
    """Every job id under a queue root, sorted."""
    jobs_root = Path(root) / "jobs"
    if not jobs_root.is_dir():
        return []
    return sorted(path.name for path in jobs_root.iterdir() if (path / "job.json").exists())


def queue_status(root: str | Path, clock: Callable[[], float] | None = None) -> dict:
    """Summarize every job in the queue."""
    jobs = []
    for job_id in list_jobs(root):
        jobs.append({"job_id": job_id, **job_status(job_dir(root, job_id), clock=clock)})
    return {"num_jobs": len(jobs), "jobs": jobs}


def watch_job(
    root: str | Path,
    job_id: str,
    poll: float | None = None,
    clock: Callable[[], float] | None = None,
    sleep: Callable[[float], None] = time.sleep,
    emit: Callable[[str], None] = print,
    max_polls: int | None = None,
) -> int:
    """Stream each landed row as a JSON line until the job settles.

    Every poll emits the rows that landed since the previous poll, sorted
    by global index (so one watcher's stream is deterministic given the
    same landing order), as ``{"index": ..., "row": {...}}`` lines.
    Returns the number of rows streamed; ``max_polls`` bounds the wait for
    schedulers that may never settle (and is what the tests use).
    """
    directory = job_dir(root, job_id)
    spec: JobSpec = load_job(directory)
    total = len(spec.points)
    if poll is None:
        poll = env.read_float("REPRO_SERVE_POLL_S")
    interval = float(poll) if poll is not None else DEFAULT_POLL_S
    emitted: dict[int, bool] = {}
    polls = 0
    while True:
        rows = landed_rows(directory)
        for index in sorted(index for index in rows if index not in emitted):
            emit(json.dumps({"index": index, "row": rows[index]}, default=str))
            emitted[index] = True
        status = job_status(directory, clock=clock)
        if status["done"] + status["failed"] >= total:
            break
        polls += 1
        if max_polls is not None and polls >= max_polls:
            break
        sleep(interval)
    return len(emitted)


def merge_result(
    root: str | Path,
    job_id: str,
    csv_path: str | Path | None = None,
    json_path: str | Path | None = None,
) -> MergeResult:
    """Merge one finished job's rows into its CSV/JSON artifacts."""
    return merge_job(job_dir(root, job_id), csv_path=csv_path, json_path=json_path)


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.serve",
        description="Submit, watch and merge lease-coordinated sweep jobs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit_parser = commands.add_parser("submit", help="enqueue a named grid as a job")
    submit_parser.add_argument("--grid", required=True, help="fig7 | fig7-mini | fig9a | fig9a-mini")
    submit_parser.add_argument("--dir", dest="root", required=True, help="queue root directory")
    submit_parser.add_argument("--policy", choices=("fifo", "cost-weighted"), default="fifo")
    submit_parser.add_argument("--name", default=None, help="job id (default: content-derived)")

    status_parser = commands.add_parser("status", help="summarize the queue or one job")
    status_parser.add_argument("--dir", dest="root", required=True)
    status_parser.add_argument("--job", default=None, help="job id (default: whole queue)")

    watch_parser = commands.add_parser("watch", help="stream rows as points land")
    watch_parser.add_argument("--dir", dest="root", required=True)
    watch_parser.add_argument("--job", required=True)
    watch_parser.add_argument("--poll", type=float, default=None, help="poll interval in seconds")
    watch_parser.add_argument("--max-polls", type=int, default=None)

    merge_parser = commands.add_parser("merge", help="reassemble a finished job")
    merge_parser.add_argument("--dir", dest="root", required=True)
    merge_parser.add_argument("--job", required=True)
    merge_parser.add_argument("--csv", default=None)
    merge_parser.add_argument("--json", dest="json_out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "submit":
            points = named_grid_points(args.grid)
            job_id = submit_job(args.root, points, policy=args.policy, name=args.name)
            print(f"job {job_id}: {len(points)} points ({args.policy})")
            return 0
        if args.command == "status":
            if args.job is not None:
                print(json.dumps(job_status(job_dir(args.root, args.job)), indent=2))
            else:
                print(json.dumps(queue_status(args.root), indent=2))
            return 0
        if args.command == "watch":
            streamed = watch_job(args.root, args.job, poll=args.poll, max_polls=args.max_polls)
            print(f"watched {streamed} rows land")
            return 0
        if args.command == "merge":
            merged = merge_result(args.root, args.job, csv_path=args.csv, json_path=args.json_out)
            print(f"merged {merged.num_rows} rows -> {merged.csv_path}, {merged.json_path}")
            return 0
    except SchedulerError as error:
        print(f"error: {error}")
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
