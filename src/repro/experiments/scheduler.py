"""Lease-based work-stealing sweep coordinator: run one grid on many machines.

The Fig. 7/9 fidelity sweeps are (workload x strategy x error-model) grids
of :class:`~repro.experiments.sweep.SweepPoint` — embarrassingly parallel,
with each point fully determined by picklable values and a seed.  This
module spreads such a grid across processes and hosts through a **dynamic
coordinator** that lives entirely on a shared filesystem — no server
process, no network protocol, just atomic file operations every POSIX
mount provides:

* :class:`JobSpec` freezes a grid into a job: the points, an acquisition
  policy (``fifo``, or ``cost-weighted`` — longest-processing-time first,
  using :func:`estimate_point_cost` as a priority queue), and a
  fingerprint binding every durable record to the exact grid under
  ``SHARD_SCHEMA_VERSION``.  Adaptive points (``num_trajectories="auto"`` /
  ``target_stderr``) are costed at the fixed nominal budget
  :func:`estimate_point_cost` documents — their true count is decided by
  the data at run time, and acquisition order never changes results anyway.
* :class:`LeaseCoordinator` hands out **leases**: per-point claim files
  whose creation (private write + link) and reclamation (rename into a
  graveyard) go through :mod:`repro.core.storage` and are atomic, so
  exactly one worker wins any race.
  Leases carry a wall-clock deadline; holders renew it via heartbeats
  (deadlines only ever move forward), and any worker may reclaim a lease
  whose deadline passed — which is how points held by dead or straggling
  workers get re-leased without an operator.
* :class:`LeasedWorker` is the pull loop: acquire a lease, evaluate the
  point with the function :meth:`SweepRunner.iter_evaluate` maps (the same
  single-point engine as the in-process runner), publish a done marker
  carrying the point's row, repeat until the job drains.  A failed point
  is recorded under ``failed/`` and not re-leased until
  :func:`retry_failed` moves its marker aside.
* :func:`merge_job` reassembles the done markers' rows into combined
  CSV/JSON artifacts **byte-identical to an in-process ``SweepRunner``
  run** — for any worker count, kill schedule or lease-TTL setting
  (enforced by ``examples/scheduler_equivalence_check.py`` in CI).

Races lose cleanly, never corrupt: a claim race loses the exclusive link,
a reclaim race loses the graveyard rename, and the loser simply pulls the
next point.  A torn or unreadable lease file is quarantined with a reason
record (never honoured, never silently deleted) and its point becomes
claimable again; so is a torn or foreign done marker, when the merge reads
it.  The one benign anomaly is double execution — a reclaimed-but-alive
worker and the reclaimer may both evaluate a point — and the one record it
can write (the done marker, row included) is deterministic and
attribution-free, so double writes are byte-identical, mirroring the
compile cache's documented duplicate-compile-on-cold-race stance.

Command line::

    python -m repro.experiments.scheduler plan   --grid fig7 --dir DIR
    python -m repro.experiments.scheduler work   --dir DIR --worker-id w0
    python -m repro.experiments.scheduler status --dir DIR
    python -m repro.experiments.scheduler retry  --dir DIR
    python -m repro.experiments.scheduler merge  --dir DIR

The Fig. 7 / Fig. 9a drivers save their own (flag-built) grid as a job
with ``--dir``; workers then drain it with ``work`` as above::

    python -m repro.experiments.fidelity_sweep --sizes 5 7 --dir DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import threading
import time
import uuid
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

from repro.core import env, storage
from repro.core.compile_cache import fingerprint
from repro.experiments.sweep import (
    PointFailure,
    SweepFailure,
    SweepPoint,
    SweepRunner,
    _compiled,
    _evaluate_point_guarded,
    atomic_write_json,
    point_key,
    sweep_rows,
    write_csv,
    write_json,
)

__all__ = [
    "DEFAULT_LEASE_TTL",
    "JOB_POLICIES",
    "SHARD_SCHEMA_VERSION",
    "JobSpec",
    "Lease",
    "LeaseCoordinator",
    "LeaseLost",
    "LeasedWorker",
    "MergeResult",
    "SchedulerError",
    "WorkerReport",
    "add_driver_arguments",
    "estimate_point_cost",
    "job_status",
    "landed_rows",
    "load_job",
    "main",
    "merge_job",
    "named_grid_points",
    "plan_job",
    "point_from_json",
    "point_to_json",
    "retry_failed",
    "run_driver",
    "save_job",
]

#: Supported lease-acquisition policies.
JOB_POLICIES = ("fifo", "cost-weighted")

#: Bump when point identity or the job/lease/marker layout changes; old
#: state then errors loudly instead of being honoured.
#: v2: points carry ``target_stderr`` (the adaptive sampling opt-in).
#: v3: points no longer carry ``workers`` (trajectory-level fan-out is gone).
#: v4: the done marker carries the point's row; per-worker manifests and
#: row stores are gone.
SHARD_SCHEMA_VERSION = 4

#: Planning-time trajectory stand-in for adaptive points: their true count
#: is data-dependent (early stopping), so cost-weighted acquisition uses a
#: fixed nominal budget — scheduling only, never results.
_ADAPTIVE_PLANNING_TRAJECTORIES = 256

#: Fallback lease time-to-live in seconds when ``REPRO_LEASE_TTL`` is unset.
DEFAULT_LEASE_TTL = 30.0

#: Idle-poll interval in seconds of a :class:`LeasedWorker` given no ``poll``.
DEFAULT_POLL_S = 0.5


class SchedulerError(RuntimeError):
    """Raised for invalid jobs or grids, stale leases or incomplete merges."""


class LeaseLost(SchedulerError):
    """Raised when renewing a lease another worker has reclaimed."""


def _now() -> float:
    """The shared lease timebase: wall-clock seconds.

    Deadlines must compare across worker processes and hosts on a shared
    mount, so this is the one clock every participant agrees on.  Renewal
    only ever moves a deadline forward (``max(old, now + ttl)``), so local
    clock adjustments cannot shrink a lease another worker is counting on.
    """
    # repro-lint: disable=DET002 -- lease deadlines are scheduling state, never artifact bytes
    return time.time()


# ---------------------------------------------------------------------------
# point serialization
# ---------------------------------------------------------------------------


def point_to_json(point: SweepPoint) -> dict:
    """JSON-ready dict of one sweep point (exact round trip for all fields).

    Workload kwargs must be JSON primitives: a tuple (or any richer object)
    would silently come back as a different type, change the point's key and
    make the stored job read as corrupt — so reject it here, with a message
    that names the offending kwarg, before anything is written.
    """
    for name, value in point.workload_kwargs:
        if value is not None and not isinstance(value, (str, int, float, bool)):
            raise SchedulerError(
                f"workload kwarg {name!r}={value!r} ({type(value).__name__}) is not a "
                "JSON primitive; sharded plans require str/int/float/bool/None kwargs"
            )
    return {
        "workload": point.workload,
        "size": point.size,
        "strategy": point.strategy,
        "error_factor": point.error_factor,
        "coherence_scale": point.coherence_scale,
        "num_trajectories": point.num_trajectories,
        "seed": point.seed,
        "batch_size": point.batch_size,
        "axis": point.axis,
        "workload_kwargs": [[name, value] for name, value in point.workload_kwargs],
        "target_stderr": point.target_stderr,
    }


def point_from_json(data: dict) -> SweepPoint:
    """Rebuild a sweep point from :func:`point_to_json` output."""
    return SweepPoint(
        workload=data["workload"],
        size=data["size"],
        strategy=data["strategy"],
        error_factor=data["error_factor"],
        coherence_scale=data["coherence_scale"],
        num_trajectories=data["num_trajectories"],
        seed=data["seed"],
        batch_size=data["batch_size"],
        axis=data["axis"],
        workload_kwargs=tuple((name, value) for name, value in data["workload_kwargs"]),
        target_stderr=data["target_stderr"],
    )


def estimate_point_cost(point: SweepPoint) -> float:
    """Estimated relative cost of one point: compiled op count x trajectories.

    The compilation goes through the shared cache (`$REPRO_CACHE_DIR`), so
    cost-weighted planning doubles as a cache warm-up: every worker that
    later executes the point reuses the artifact the planner already
    published.

    Adaptive points stop when their data says so, which planning cannot
    know; they are costed at a fixed nominal budget (capped by an explicit
    integer ``num_trajectories`` when the point sets one).
    """
    compilation = _compiled(
        point.workload, point.size, point.workload_kwargs, point.strategy, point.error_factor
    )
    if point.num_trajectories == "auto" or point.target_stderr is not None:
        trajectories = _ADAPTIVE_PLANNING_TRAJECTORIES
        if isinstance(point.num_trajectories, int) and point.num_trajectories > 0:
            trajectories = min(trajectories, point.num_trajectories)
    else:
        trajectories = max(point.num_trajectories, 1)
    return float(compilation.num_ops) * float(trajectories)


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JobSpec:
    """A frozen grid plus the order its points should be leased in.

    ``priorities[i]`` is the estimated cost of point ``i`` (all zero under
    ``fifo``); ``cost-weighted`` acquisition leases the most expensive
    pending point first — longest-processing-time as a *priority queue*, so
    stragglers shrink without pinning any point to any worker.
    """

    points: tuple[SweepPoint, ...]
    policy: str
    priorities: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.policy not in JOB_POLICIES:
            raise SchedulerError(f"unknown policy {self.policy!r}; expected one of {JOB_POLICIES}")
        if len(self.priorities) != len(self.points):
            raise SchedulerError(
                f"{len(self.priorities)} priorities for {len(self.points)} points; "
                "every point needs exactly one priority"
            )

    @property
    def fingerprint(self) -> str:
        """Content hash binding leases and markers to this job."""
        return fingerprint(
            [
                "lease-job",
                f"schema:{SHARD_SCHEMA_VERSION}",
                f"policy:{self.policy}",
                *[point_key(point) for point in self.points],
                *[f"priority:{priority!r}" for priority in self.priorities],
            ]
        )

    def acquisition_order(self) -> list[int]:
        """Global point indices in the order they should be leased."""
        if self.policy == "cost-weighted":
            indices = range(len(self.points))
            return sorted(indices, key=lambda index: (-self.priorities[index], index))
        return list(range(len(self.points)))

    def to_json(self) -> dict:
        return {
            "schema": SHARD_SCHEMA_VERSION,
            "policy": self.policy,
            "fingerprint": self.fingerprint,
            "points": [point_to_json(point) for point in self.points],
            "priorities": list(self.priorities),
        }

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        if data.get("schema") != SHARD_SCHEMA_VERSION:
            raise SchedulerError(
                f"job schema {data.get('schema')!r} does not match "
                f"this code's schema {SHARD_SCHEMA_VERSION}"
            )
        spec = cls(
            points=tuple(point_from_json(point) for point in data["points"]),
            policy=data["policy"],
            priorities=tuple(float(priority) for priority in data["priorities"]),
        )
        if data.get("fingerprint") != spec.fingerprint:
            raise SchedulerError("job file is corrupt: stored fingerprint does not match contents")
        return spec


def plan_job(
    points: Sequence[SweepPoint],
    policy: str = "fifo",
    cost_fn: Callable[[SweepPoint], float] = estimate_point_cost,
) -> JobSpec:
    """Freeze a grid into a :class:`JobSpec`.

    ``cost-weighted`` evaluates ``cost_fn`` per point (the default compiles
    through the shared cache, so planning doubles as a cache warm-up);
    ``fifo`` costs nothing and leases points in grid order.
    """
    points = tuple(points)
    if policy == "cost-weighted":
        priorities = tuple(float(cost_fn(point)) for point in points)
    else:
        priorities = tuple(0.0 for _ in points)
    return JobSpec(points=points, policy=policy, priorities=priorities)


def _job_path(directory: Path) -> Path:
    return Path(directory) / "job.json"


def save_job(spec: JobSpec, directory: str | Path) -> Path:
    """Write ``job.json`` under ``directory`` (atomically).

    Saving the job a directory already holds is a no-op; saving a
    *different* grid there raises :class:`SchedulerError` instead of
    letting its done markers mix with the stored job's.
    """
    path = _job_path(Path(directory))
    if path.exists():
        existing = load_job(directory)
        if existing.fingerprint != spec.fingerprint:
            raise SchedulerError(
                f"{path.parent} already holds a job with a different grid "
                f"({existing.fingerprint[:12]} != {spec.fingerprint[:12]}); "
                "use a fresh directory"
            )
        return path
    atomic_write_json(path, spec.to_json())
    return path


def load_job(directory: str | Path) -> JobSpec:
    """Load and validate the job stored under ``directory``."""
    path = _job_path(Path(directory))
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise SchedulerError(f"no job at {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise SchedulerError(f"unreadable job at {path}: {error}") from error
    return JobSpec.from_json(payload)


# ---------------------------------------------------------------------------
# leases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lease:
    """One worker's time-bounded claim on one grid point.

    ``token`` is unique per acquisition (worker, process, counter), so a
    worker can always tell its own live claim from a successor lease on the
    same point after a reclaim.  ``expires_at`` is a wall-clock deadline in
    the shared timebase; a lease whose deadline passed may be reclaimed by
    anyone.
    """

    index: int
    point_key: str
    job_fingerprint: str
    worker_id: str
    token: str
    expires_at: float

    def expired(self, now: float) -> bool:
        return self.expires_at <= now

    def to_json(self) -> dict:
        return {
            "schema": SHARD_SCHEMA_VERSION,
            "index": self.index,
            "point_key": self.point_key,
            "job_fingerprint": self.job_fingerprint,
            "worker_id": self.worker_id,
            "token": self.token,
            "expires_at": self.expires_at,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Lease":
        if data.get("schema") != SHARD_SCHEMA_VERSION:
            raise SchedulerError(
                f"lease schema {data.get('schema')!r} does not match this code's "
                f"schema {SHARD_SCHEMA_VERSION}; stale leases are rejected, never honoured"
            )
        return cls(
            index=int(data["index"]),
            point_key=data["point_key"],
            job_fingerprint=data["job_fingerprint"],
            worker_id=data["worker_id"],
            token=data["token"],
            expires_at=float(data["expires_at"]),
        )


class LeaseCoordinator:
    """Atomic filesystem lease protocol over one job directory.

    Layout under ``directory`` (a shared mount for multi-host jobs)::

        job.json                     the JobSpec
        leases/00042.lease           live claims (atomically created)
        reclaimed/00042.<by>.<n>.json  graveyard of expired claims
        done/00042.json              done markers {schema, index, point_key, row}:
                                     the point's row, its only durable record
        failed/00042.json            failure markers (PointFailure records)
        retried/00042.<n>.json       failure markers moved aside by retry_failed
        quarantine/                  unreadable leases and markers, with reasons

    Claiming writes the lease to a unique private file and links it to the
    canonical name (:func:`repro.core.storage.durable_link`) — creation is
    exclusive, so losing a race raises ``FileExistsError`` and the loser
    moves on.  Reclaiming an expired lease renames it into the graveyard
    (:func:`repro.core.storage.durable_rename`) — exactly one renamer wins,
    the loser gets ``FileNotFoundError`` and re-pulls.  Renewal replaces
    the lease content after a token check, with the deadline only ever
    moving forward.  Every transition of a lease file goes through this
    class (rule ``ENG004`` enforces that statically).
    """

    def __init__(
        self,
        directory: str | Path,
        worker_id: str | None = None,
        ttl: float | None = None,
        clock: Callable[[], float] | None = None,
    ):
        self.directory = Path(directory)
        self.spec = load_job(self.directory)
        self.worker_id = worker_id if worker_id is not None else f"pid-{os.getpid()}"
        if "/" in self.worker_id or not self.worker_id:
            raise SchedulerError(f"worker_id {self.worker_id!r} must be a non-empty path segment")
        if ttl is None:
            try:
                ttl = env.read_float("REPRO_LEASE_TTL")
            except ValueError as error:
                raise SchedulerError(f"lease ttl from REPRO_LEASE_TTL: {error}") from None
        self.ttl = float(ttl) if ttl is not None else DEFAULT_LEASE_TTL
        # A NaN deadline never compares as passed, so its lease would never
        # be reclaimed; an infinite one never expires either.
        if not 0 < self.ttl < math.inf:
            raise SchedulerError(f"lease ttl must be finite and positive, got {self.ttl!r}")
        self._clock = clock if clock is not None else _now
        self._counter = 0
        self._order = self.spec.acquisition_order()

    # -- paths -------------------------------------------------------------------
    def _lease_path(self, index: int) -> Path:
        return self.directory / "leases" / f"{index:05d}.lease"

    def _done_path(self, index: int) -> Path:
        return self.directory / "done" / f"{index:05d}.json"

    def _failed_path(self, index: int) -> Path:
        return self.directory / "failed" / f"{index:05d}.json"

    def _read_lease(self, index: int) -> Lease | None:
        path = self._lease_path(index)
        try:
            payload = json.loads(storage.read_text(path))
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError) as error:
            # A torn or unreadable lease can never be honoured — quarantine
            # it (reason-recorded, never silently deleted) and treat the
            # point as claimable again.
            storage.quarantine(
                path, self.directory, f"unreadable lease for point {index}", error=error
            )
            return None
        return Lease.from_json(payload)

    # -- protocol ----------------------------------------------------------------
    def acquire(self) -> Lease | None:
        """Claim the highest-priority available point, or ``None``.

        Walks the job's acquisition order, skipping finished and
        live-leased points, reclaiming expired leases along the way.
        ``None`` means nothing is claimable *right now* — the job may still
        have points leased to other (live) workers.
        """
        now = self._clock()
        for index in self._order:
            if self._done_path(index).exists() or self._failed_path(index).exists():
                continue
            stale = self._read_lease(index)
            if stale is not None:
                if not stale.expired(now):
                    continue
                if not self._reclaim(index, stale):
                    continue  # another worker won the rename; re-pull
            lease = self._try_claim(index)
            if lease is not None:
                return lease
        return None

    def _try_claim(self, index: int) -> Lease | None:
        """Atomically create the lease file; ``None`` if a racer won."""
        self._counter += 1
        token = f"{self.worker_id}:{os.getpid()}:{self._counter}"
        lease = Lease(
            index=index,
            point_key=point_key(self.spec.points[index]),
            job_fingerprint=self.spec.fingerprint,
            worker_id=self.worker_id,
            token=token,
            expires_at=self._clock() + self.ttl,
        )
        path = self._lease_path(index)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.{self.worker_id}.{self._counter}.tmp")
        try:
            storage.write_private_text(tmp, json.dumps(lease.to_json(), indent=2) + "\n")
            storage.durable_link(tmp, path)
        except (FileExistsError, OSError):
            # A racer won the link, or the write/link failed outright
            # (disk trouble, injected fault): either way we lose cleanly
            # and move on to the next point.
            tmp.unlink(missing_ok=True)
            return None
        tmp.unlink(missing_ok=True)
        return lease

    def _reclaim(self, index: int, stale: Lease) -> bool:
        """Move an expired lease into the graveyard; ``False`` if we lost.

        The rename is the decider: exactly one reclaimer wins, every
        loser sees ``FileNotFoundError`` and re-pulls.  The graveyard
        record keeps the stale lease plus who reclaimed it when, feeding
        the reclaim-latency histogram in the scheduler benchmark.
        """
        self._counter += 1
        grave_dir = self.directory / "reclaimed"
        grave_dir.mkdir(parents=True, exist_ok=True)
        grave = grave_dir / f"{index:05d}.{self.worker_id}.{self._counter}.json"
        try:
            storage.durable_rename(self._lease_path(index), grave)
        except FileNotFoundError:
            return False
        except OSError:
            return False  # rename failed outright (injected/transient): lose cleanly
        record = {
            **stale.to_json(),
            "reclaimed_by": self.worker_id,
            "reclaimed_at": self._clock(),
        }
        try:
            atomic_write_json(grave, record)
        except OSError:
            pass  # the grave still holds the raw stale lease; attribution is cosmetic
        return True

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: extend our own lease's deadline, monotonically.

        Raises :class:`LeaseLost` when the lease file is gone or carries a
        different token — someone reclaimed the point.  The new deadline is
        ``max(current, now + ttl)``, so renewal can only extend.
        """
        current = self._read_lease(lease.index)
        if current is None or current.token != lease.token:
            raise LeaseLost(
                f"lease on point {lease.index} was reclaimed from {lease.worker_id} "
                f"(held now: {current.worker_id if current else 'nobody'})"
            )
        renewed = replace(current, expires_at=max(current.expires_at, self._clock() + self.ttl))
        atomic_write_json(self._lease_path(lease.index), renewed.to_json())
        return renewed

    def complete(self, lease: Lease, row: dict) -> Path:
        """Publish a point's done marker, carrying its row, and release the lease.

        The marker is the point's only durable record and lands in one
        atomic write, so it exists only with its complete row: a kill
        before the publish leaves the lease to expire, one after it leaves
        a lingering lease :func:`job_status` ignores.  It carries no worker
        attribution — a double execution after a reclaim race writes
        byte-identical markers, so the anomaly stays invisible to every
        downstream consumer.
        """
        marker = {
            "schema": SHARD_SCHEMA_VERSION,
            "index": lease.index,
            "point_key": lease.point_key,
            "row": row,
        }
        path = atomic_write_json(self._done_path(lease.index), marker)
        self._release(lease)
        return path

    def fail(self, lease: Lease, record: dict) -> Path:
        """Record a point's failure (not re-leased until :func:`retry_failed`) and release."""
        payload = {"schema": SHARD_SCHEMA_VERSION, "index": lease.index, **record}
        path = atomic_write_json(self._failed_path(lease.index), payload)
        self._release(lease)
        return path

    def _release(self, lease: Lease) -> None:
        """Drop our own lease file; a reclaimed (foreign) lease is left alone."""
        try:
            current = self._read_lease(lease.index)
            if current is not None and current.token == lease.token:
                self._lease_path(lease.index).unlink(missing_ok=True)
        except SchedulerError:
            pass  # unreadable successor lease: its owner's problem, not ours


# ---------------------------------------------------------------------------
# status / merge
# ---------------------------------------------------------------------------


def _marker_indices(directory: Path, kind: str) -> list[int]:
    folder = directory / kind
    if not folder.is_dir():
        return []
    return sorted(int(path.stem) for path in folder.glob("*.json"))


def job_status(directory: str | Path, clock: Callable[[], float] | None = None) -> dict:
    """Summarize one job: pending/leased/expired/done/failed/reclaimed counts."""
    directory = Path(directory)
    now = (clock if clock is not None else _now)()
    spec = load_job(directory)
    total = len(spec.points)
    done = _marker_indices(directory, "done")
    failed = _marker_indices(directory, "failed")
    settled = {*done, *failed}
    live = 0
    expired = 0
    stale = 0
    leases_dir = directory / "leases"
    lease_files = sorted(leases_dir.glob("*.lease")) if leases_dir.is_dir() else []
    for path in lease_files:
        if int(path.stem) in settled:
            continue  # lingering lease of a finished point: not outstanding work
        try:
            lease = Lease.from_json(json.loads(path.read_text(encoding="utf-8")))
        except (SchedulerError, OSError, json.JSONDecodeError):
            stale += 1
            continue
        if lease.expired(now):
            expired += 1
        else:
            live += 1
    reclaimed_dir = directory / "reclaimed"
    reclaimed = len(list(reclaimed_dir.glob("*.json"))) if reclaimed_dir.is_dir() else 0
    return {
        "num_points": total,
        "policy": spec.policy,
        "done": len(done),
        "failed": len(failed),
        "leased": live,
        "expired": expired,
        "stale_leases": stale,
        "pending": total - len(settled) - live - expired,
        "reclaimed": reclaimed,
        "mergeable": len(done) == total and not failed,
    }


def _marker_mismatch(marker: object, index: int, spec: JobSpec) -> str | None:
    """Why a parsed done marker cannot stand for point ``index``, or ``None``."""
    if not isinstance(marker, dict):
        return "is not a JSON object"
    if marker.get("schema") != SHARD_SCHEMA_VERSION:
        return f"has schema {marker.get('schema')!r}, not {SHARD_SCHEMA_VERSION}"
    if marker.get("index") != index:
        return f"names point {marker.get('index')!r}"
    if index >= len(spec.points) or marker.get("point_key") != point_key(spec.points[index]):
        return "belongs to another job"
    if not isinstance(marker.get("row"), dict):
        return "holds no row"
    return None


def landed_rows(directory: str | Path) -> dict[int, dict]:
    """Rows of the points finished so far, read from their done markers.

    A marker is published in one atomic write with its row, so an existing
    marker is the whole record.  One that is unreadable, holds no row, or
    does not match the job's point at its index (another job's or another
    schema's) is quarantined with a reason record — never honoured, never
    silently deleted — which makes its point leasable again; then
    :class:`SchedulerError` names every such marker.  Markers of a benign
    double execution are byte-identical, so whichever write landed last is
    the row.
    """
    directory = Path(directory)
    spec = load_job(directory)
    rows_by_index: dict[int, dict] = {}
    rejected: list[str] = []
    for index in _marker_indices(directory, "done"):
        path = directory / "done" / f"{index:05d}.json"
        error: BaseException | None = None
        try:
            marker = storage.read_json(path)
        except FileNotFoundError:
            continue  # quarantined by a concurrent reader
        except (OSError, ValueError) as caught:  # ValueError: torn JSON or UTF-8
            marker, error = None, caught
        problem = "is unreadable" if error is not None else _marker_mismatch(marker, index, spec)
        if problem is None:
            rows_by_index[index] = marker["row"]
            continue
        reason = f"done marker {path.name} {problem}"
        storage.quarantine(path, directory, reason, error=error)
        rejected.append(reason)
    if rejected:
        raise SchedulerError(
            f"quarantined {len(rejected)} done marker(s) ({'; '.join(rejected)}); "
            "drain the job again before merging"
        )
    return rows_by_index


@dataclass(frozen=True)
class MergeResult:
    """Artifacts produced by :func:`merge_job`."""

    csv_path: Path
    json_path: Path
    num_rows: int


def merge_job(
    directory: str | Path,
    csv_path: str | Path | None = None,
    json_path: str | Path | None = None,
) -> MergeResult:
    """Reassemble the done markers' rows into the local sweep's output.

    Rows are ordered by global grid index and written through the same
    ``write_csv`` / ``write_json`` helpers the in-process ``SweepRunner``
    uses, so a fully completed job merges byte-identical to a
    single-machine run of the same grid — whatever the worker count, kill
    schedule or lease TTL was.  Failed or missing points, and done markers
    :func:`landed_rows` quarantines, raise :class:`SchedulerError` naming
    them.
    """
    directory = Path(directory)
    spec = load_job(directory)
    failed = _marker_indices(directory, "failed")
    if failed:
        raise SchedulerError(
            f"{len(failed)} point(s) failed (indices {failed[:5]}); inspect failed/, "
            "then run `retry` and drain the job again before merging"
        )
    rows_by_index = landed_rows(directory)
    missing = [index for index in range(len(spec.points)) if index not in rows_by_index]
    if missing:
        raise SchedulerError(
            f"{len(missing)} point(s) not yet evaluated (first missing: {missing[:5]}); "
            "keep workers running before merging"
        )
    ordered = [rows_by_index[index] for index in range(len(spec.points))]
    csv_path = Path(csv_path) if csv_path is not None else directory / "merged.csv"
    json_path = Path(json_path) if json_path is not None else directory / "merged.json"
    write_csv(ordered, csv_path)
    write_json(ordered, json_path)
    return MergeResult(csv_path=csv_path, json_path=json_path, num_rows=len(ordered))


def retry_failed(directory: str | Path) -> list[int]:
    """Make every failed point leasable again; return their indices.

    Each ``failed/NNNNN.json`` marker moves into ``retried/`` as
    ``NNNNN.<attempt>.json``, so the failure record is kept for audit and
    nothing is deleted.  The move is in two steps: a
    :func:`repro.core.storage.durable_rename` to a name only this call uses
    claims the marker (a marker another retrier moved first is skipped),
    then a :func:`repro.core.storage.durable_link` publishes it under the
    next free attempt number, so a racing retrier can never replace an
    earlier record.
    """
    directory = Path(directory)
    load_job(directory)  # refuse a directory that holds no valid job
    retried_dir = directory / "retried"
    retried: list[int] = []
    for index in _marker_indices(directory, "failed"):
        retried_dir.mkdir(parents=True, exist_ok=True)
        claim = retried_dir / f"{index:05d}.{uuid.uuid4().hex}.claim"
        try:
            storage.durable_rename(directory / "failed" / f"{index:05d}.json", claim)
        except FileNotFoundError:
            continue  # another retrier moved it first
        attempt = len(list(retried_dir.glob(f"{index:05d}.*.json"))) + 1
        while True:
            try:
                storage.durable_link(claim, retried_dir / f"{index:05d}.{attempt}.json")
                break
            except FileExistsError:
                attempt += 1  # a racing retrier took this number
        claim.unlink()
        retried.append(index)
    return retried


# ---------------------------------------------------------------------------
# workers
# ---------------------------------------------------------------------------


class _Heartbeat:
    """Daemon thread renewing one lease every ``interval`` real seconds.

    Used as a context manager around a point's evaluation; ``lost`` flips
    when a renewal discovers the lease was reclaimed (the evaluation still
    finishes — its done marker is byte-identical to the reclaimer's, so
    finishing is harmless).
    """

    def __init__(self, coordinator: LeaseCoordinator, lease: Lease, interval: float):
        self._coordinator = coordinator
        self._lease = lease
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.lost = False

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                self._lease = self._coordinator.renew(self._lease)
            except (LeaseLost, SchedulerError, OSError):
                self.lost = True
                return


@dataclass(frozen=True)
class WorkerReport:
    """What one :meth:`LeasedWorker.run` invocation did."""

    worker_id: str
    num_acquired: int
    num_completed: int
    num_failed: int
    abandoned: bool = False

    def describe(self) -> str:
        tail = ", abandoned mid-lease" if self.abandoned else ""
        return (
            f"worker {self.worker_id}: {self.num_acquired} leased, "
            f"{self.num_completed} completed, {self.num_failed} failed{tail}"
        )


class LeasedWorker:
    """Pull-based worker: lease, evaluate, publish, repeat until drained.

    Each leased point is evaluated by the function
    :meth:`SweepRunner.iter_evaluate` maps for the in-process runner (one
    point per lease, so there is no pool to size), and its row lands in the
    point's done marker, so a killed worker loses at most the point it was
    on, and that point's lease expires into someone else's hands.

    ``heartbeat=True`` renews the held lease from a daemon thread every
    ``ttl / 4`` real seconds, so a slow-but-alive worker is never
    reclaimed.  ``abandon_after=N`` is the fault-injection hook the
    equivalence gate and tests use: the worker exits *without releasing*
    its ``N+1``-th lease, exactly like a SIGKILL between acquire and
    complete.
    """

    def __init__(
        self,
        directory: str | Path,
        worker_id: str | None = None,
        ttl: float | None = None,
        clock: Callable[[], float] | None = None,
        heartbeat: bool = True,
        poll: float | None = None,
        max_points: int | None = None,
        abandon_after: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.poll = float(poll) if poll is not None else DEFAULT_POLL_S
        if not 0 <= self.poll < math.inf:
            raise SchedulerError(f"idle poll must be finite and non-negative, got {self.poll!r}")
        self.coordinator = LeaseCoordinator(directory, worker_id=worker_id, ttl=ttl, clock=clock)
        self.heartbeat = heartbeat
        self.max_points = max_points
        self.abandon_after = abandon_after
        self._sleep = sleep

    def _drained(self) -> bool:
        directory = self.coordinator.directory
        settled = len(_marker_indices(directory, "done")) + len(_marker_indices(directory, "failed"))
        return settled >= len(self.coordinator.spec.points)

    def run(self) -> WorkerReport:
        """Drain the job (or ``max_points``); return what happened."""
        acquired = completed = failed = 0
        while True:
            if self.max_points is not None and completed + failed >= self.max_points:
                break
            lease = self.coordinator.acquire()
            if lease is None:
                if self._drained():
                    break
                self._sleep(self.poll)
                continue
            acquired += 1
            if self.abandon_after is not None and acquired > self.abandon_after:
                # Fault injection: walk away holding the lease, like a SIGKILL.
                return WorkerReport(
                    worker_id=self.coordinator.worker_id,
                    num_acquired=acquired,
                    num_completed=completed,
                    num_failed=failed,
                    abandoned=True,
                )
            if self._evaluate(lease):
                completed += 1
            else:
                failed += 1
        return WorkerReport(
            worker_id=self.coordinator.worker_id,
            num_acquired=acquired,
            num_completed=completed,
            num_failed=failed,
        )

    def _evaluate(self, lease: Lease) -> bool:
        """Evaluate one leased point and publish its done or failure marker."""
        point = self.coordinator.spec.points[lease.index]
        if self.heartbeat:
            interval = max(self.coordinator.ttl / 4.0, 0.05)
            with _Heartbeat(self.coordinator, lease, interval):
                outcome = _evaluate_point_guarded(point)
        else:
            outcome = _evaluate_point_guarded(point)
        if isinstance(outcome, PointFailure):
            self.coordinator.fail(lease, outcome.as_record())
            return False
        self.coordinator.complete(lease, sweep_rows([point], [outcome])[0])
        return True


# ---------------------------------------------------------------------------
# driver integration (Fig. 7 / Fig. 9 CLIs)
# ---------------------------------------------------------------------------


def add_driver_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the figure drivers' ``--dir / --max-workers / --csv / --json`` options."""
    parser.add_argument(
        "--dir",
        dest="job_dir",
        default=None,
        metavar="DIR",
        help="save the grid as a lease job here and exit; workers then run "
        "`python -m repro.experiments.scheduler work --dir DIR`, then `merge`",
    )
    parser.add_argument("--max-workers", type=int, default=None, help="processes for a local run")
    parser.add_argument("--csv", default=None, help="CSV artifact path of a local run")
    parser.add_argument("--json", dest="json_out", default=None, help="JSON artifact path of a local run")


def run_driver(points: Sequence[SweepPoint], args: argparse.Namespace) -> int:
    """Shared driver logic behind the figure CLIs' :func:`add_driver_arguments`.

    Without ``--dir`` the grid runs in this process through the artifact
    graph.  With ``--dir`` the grid is saved as a ``fifo`` lease job (saving
    the same grid again is a no-op) and nothing runs here.  Errors print as
    clean messages with a non-zero exit code instead of raw tracebacks.
    """
    if args.job_dir is None:
        from repro.artifacts.figures import compute_table

        runner = SweepRunner(max_workers=args.max_workers, csv_path=args.csv, json_path=args.json_out)
        try:
            evaluations = compute_table(list(points), runner, name="cli")
        except SweepFailure as error:
            print(f"error: {error}")
            return 1
        print(f"evaluated {len(evaluations)} points")
        return 0
    if args.max_workers is not None or args.csv is not None or args.json_out is not None:
        print(
            "error: --max-workers/--csv/--json apply to a local run; with --dir run "
            "several `scheduler work` processes and pass --csv/--json to `scheduler merge`"
        )
        return 2
    try:
        path = save_job(plan_job(points), args.job_dir)
    except SchedulerError as error:
        print(f"error: {error}")
        return 2
    print(
        f"job: {len(points)} points at {path}; drain it with "
        f"`python -m repro.experiments.scheduler work --dir {args.job_dir}`"
    )
    return 0


# ---------------------------------------------------------------------------
# command-line interface
# ---------------------------------------------------------------------------


def named_grid_points(name: str) -> list[SweepPoint]:
    """Named grids runnable straight from the CLI.

    The figure drivers are imported lazily: they import this module for
    their own ``--dir`` flag, and ``--help``, ``status`` and ``merge`` stay
    cheap until a grid is built.
    """
    from repro.experiments.cswap_study import cswap_study_points
    from repro.experiments.fidelity_sweep import fidelity_sweep_points

    grids: dict[str, Callable[[], list[SweepPoint]]] = {
        "fig7": lambda: fidelity_sweep_points(),
        "fig7-mini": lambda: fidelity_sweep_points(
            workloads=("cnu",), sizes=(5,), num_trajectories=4, rng=0
        ),
        "fig9a": lambda: cswap_study_points(),
        "fig9a-mini": lambda: cswap_study_points(sizes=(5,), num_trajectories=4, rng=0),
    }
    if name not in grids:
        raise SchedulerError(f"unknown grid {name!r}; expected one of {sorted(grids)}")
    return grids[name]()


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.scheduler",
        description="Plan, work, inspect, retry and merge lease-coordinated sweep jobs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    plan_parser = commands.add_parser("plan", help="freeze a named grid into a job")
    plan_parser.add_argument("--grid", required=True, help="fig7 | fig7-mini | fig9a | fig9a-mini")
    plan_parser.add_argument("--policy", choices=JOB_POLICIES, default="fifo")
    plan_parser.add_argument("--dir", dest="job_dir", required=True)

    work_parser = commands.add_parser("work", help="pull and evaluate leased points")
    work_parser.add_argument("--dir", dest="job_dir", required=True)
    work_parser.add_argument("--worker-id", default=None)
    work_parser.add_argument("--ttl", type=float, default=None, help="lease ttl in seconds")
    work_parser.add_argument("--poll", type=float, default=None, help="idle poll in seconds")
    work_parser.add_argument("--max-points", type=int, default=None)
    work_parser.add_argument("--no-heartbeat", action="store_true")

    status_parser = commands.add_parser("status", help="summarize job progress")
    status_parser.add_argument("--dir", dest="job_dir", required=True)

    retry_parser = commands.add_parser("retry", help="make failed points leasable again")
    retry_parser.add_argument("--dir", dest="job_dir", required=True)

    merge_parser = commands.add_parser("merge", help="reassemble the done markers into CSV/JSON")
    merge_parser.add_argument("--dir", dest="job_dir", required=True)
    merge_parser.add_argument("--csv", default=None)
    merge_parser.add_argument("--json", dest="json_out", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "plan":
            points = named_grid_points(args.grid)
            spec = plan_job(points, policy=args.policy)
            path = save_job(spec, args.job_dir)
            print(f"job: {len(points)} points ({spec.policy}) at {path}")
            return 0
        if args.command == "work":
            worker = LeasedWorker(
                args.job_dir,
                worker_id=args.worker_id,
                ttl=args.ttl,
                poll=args.poll,
                max_points=args.max_points,
                heartbeat=not args.no_heartbeat,
            )
            report = worker.run()
            print(report.describe())
            return 0 if report.num_failed == 0 else 1
        if args.command == "status":
            print(json.dumps(job_status(args.job_dir), indent=2))
            return 0
        if args.command == "retry":
            retried = retry_failed(args.job_dir)
            print(f"retried {len(retried)} failed point(s): {retried}")
            return 0
        if args.command == "merge":
            merged = merge_job(args.job_dir, csv_path=args.csv, json_path=args.json_out)
            print(f"merged {merged.num_rows} rows -> {merged.csv_path}, {merged.json_path}")
            return 0
    except SchedulerError as error:
        print(f"error: {error}")
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
