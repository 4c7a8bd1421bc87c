"""Unified durable-I/O layer: atomic writes, guarded reads, retry, quarantine.

Before this module, the durable subsystems (the compile cache, the lease
coordinator with its manifests/rows and artifact-graph persistence) each
hand-rolled a tmp-write/rename or tmp-write/link protocol.  They now share
one implementation with three properties none of the copies had:

* **fault injectability** — every primitive gates its syscalls through the
  active :class:`~repro.faults.FaultPlan` (torn writes, EIO/ENOSPC,
  failed rename/link, simulated crash points), so the chaos harness can
  prove the byte-identity invariants survive real failure modes,
* **bounded deterministic retry** — transient failures (EIO, EINTR,
  EAGAIN classes) retry through :class:`RetryPolicy` with exponential
  backoff and an injectable sleep, mirroring the scheduler's injectable
  clock; non-transient failures (ENOSPC, read-only mounts) propagate so
  callers can degrade explicitly,
* **quarantine, never silent deletion** — corrupt or unreadable artifacts
  are moved into a ``quarantine/`` directory next to the store with a JSON
  reason record and counted in :data:`STATS`; bad bytes are never honoured
  and never destroyed, so every incident stays auditable.

Rule ``ENG006`` (:mod:`repro.analysis.rules`) statically bans the raw
primitives (``open(..., "w")``, ``os.replace``/``os.rename``/``os.link``,
``tempfile``) inside the durable subsystems, so new write paths cannot
bypass this module.

Nothing here reads a wall clock (``DET002``): backoff sleeps through an
injectable callable and quarantine records carry no timestamps — artifact
bytes stay a pure function of inputs.
"""

from __future__ import annotations

import errno
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
from tempfile import NamedTemporaryFile
from typing import Any, Callable

from repro import faults
from repro.core import env

__all__ = [
    "DEFAULT_RETRY_BASE_S",
    "DEFAULT_RETRY_MAX",
    "QUARANTINE_DIR_NAME",
    "RETRY_BASE_ENV_VAR",
    "RETRY_MAX_ENV_VAR",
    "RetryPolicy",
    "STATS",
    "StorageStats",
    "TRANSIENT_ERRNOS",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "default_retry_policy",
    "durable_link",
    "durable_rename",
    "quarantine",
    "read_bytes",
    "read_json",
    "read_text",
    "reset_storage_stats",
    "write_private_bytes",
    "write_private_text",
]

#: Environment knob bounding retry attempts for transient failures.
RETRY_MAX_ENV_VAR = "REPRO_RETRY_MAX"

#: Environment knob setting the base backoff delay in seconds.
RETRY_BASE_ENV_VAR = "REPRO_RETRY_BASE_S"

DEFAULT_RETRY_MAX = 3
DEFAULT_RETRY_BASE_S = 0.01

#: Subdirectory (next to each durable store) holding quarantined artifacts.
QUARANTINE_DIR_NAME = "quarantine"

#: Errno classes worth retrying: the failure can pass on a second attempt.
#: ENOSPC / EROFS / EACCES / ENOENT are deliberately absent — a full or
#: read-only store does not heal by retrying; callers degrade instead.
TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EINTR, errno.EAGAIN, errno.ETIMEDOUT, errno.ESTALE}
)


@dataclass
class StorageStats:
    """Process-wide counters over the durable-I/O primitives."""

    writes: int = 0
    reads: int = 0
    renames: int = 0
    links: int = 0
    retries: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "writes": self.writes,
            "reads": self.reads,
            "renames": self.renames,
            "links": self.links,
            "retries": self.retries,
            "quarantined": self.quarantined,
        }


STATS = StorageStats()


def reset_storage_stats() -> None:
    """Reset the process-wide counters (mainly for tests and benchmarks)."""
    global STATS
    STATS = StorageStats()


# ---------------------------------------------------------------------------
# retry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded deterministic backoff for transient durable-I/O failures.

    Attempt ``n`` (0-based) sleeps ``base_s * 2**n`` before retrying —
    a fixed, configuration-determined schedule, observable and testable
    through the injectable ``sleep`` (the same discipline as the
    scheduler's injectable clock).  Non-transient errors propagate
    immediately; the final attempt's error propagates unchanged.
    """

    max_attempts: int = DEFAULT_RETRY_MAX
    base_s: float = DEFAULT_RETRY_BASE_S
    sleep: Callable[[float], None] = time.sleep

    def is_transient(self, error: BaseException) -> bool:
        return isinstance(error, OSError) and error.errno in TRANSIENT_ERRNOS

    def run(self, operation: Callable[[], Any]) -> Any:
        attempt = 0
        while True:
            try:
                return operation()
            except OSError as error:
                if not self.is_transient(error) or attempt + 1 >= max(1, self.max_attempts):
                    raise
                STATS.retries += 1
                self.sleep(self.base_s * (2**attempt))
                attempt += 1


def default_retry_policy(sleep: Callable[[float], None] = time.sleep) -> RetryPolicy:
    """The environment-configured policy (``REPRO_RETRY_MAX/BASE_S``).

    A base that is not a finite number at least 0 would make ``sleep``
    raise on the first transient error, which is then never retried; it is
    refused here, as is a maximum below one attempt.
    """
    max_attempts = env.read_int(RETRY_MAX_ENV_VAR)
    base_s = env.read_float(RETRY_BASE_ENV_VAR)
    if max_attempts is not None and max_attempts < 1:
        raise ValueError(f"retry max from {RETRY_MAX_ENV_VAR} must be at least 1, got {max_attempts!r}")
    if base_s is not None and not 0 <= base_s < math.inf:
        raise ValueError(
            f"retry base from {RETRY_BASE_ENV_VAR} must be finite and at least 0, got {base_s!r}"
        )
    return RetryPolicy(
        max_attempts=DEFAULT_RETRY_MAX if max_attempts is None else max_attempts,
        base_s=DEFAULT_RETRY_BASE_S if base_s is None else base_s,
        sleep=sleep,
    )


# ---------------------------------------------------------------------------
# fault gates
# ---------------------------------------------------------------------------


def _gate(op: str, *paths: str | os.PathLike) -> faults.FaultRule | None:
    plan = faults.active_plan()
    if plan is None:
        return None
    return plan.match(op, [str(path) for path in paths])


def _injected_oserror(kind: str, path: Path) -> OSError:
    code = errno.ENOSPC if kind == "enospc" else errno.EIO
    return OSError(code, f"injected {kind} fault", str(path))


def _fire_move(rule: faults.FaultRule | None, op: str, src: Path, dst: Path) -> None:
    """Apply a rename/link fault: ``fail`` errors out, ``crash`` kills."""
    if rule is None:
        return
    if rule.kind == "crash":
        raise faults.SimulatedCrash(f"injected crash at {op} {src} -> {dst}")
    raise _injected_oserror("eio", dst)


# ---------------------------------------------------------------------------
# writes
# ---------------------------------------------------------------------------


def atomic_write_bytes(
    path: str | Path, data: bytes, retry: RetryPolicy | None = None
) -> Path:
    """Publish ``data`` at ``path`` via tmp + ``os.replace`` (never torn).

    Parent directories are created.  A fault-injected *torn* write
    truncates the payload but completes the rename — publishing corrupt
    bytes readers must detect, which is exactly the incident the
    quarantine protocol exists for.  A *crash* leaves the temp file
    stranded and the destination untouched, like a SIGKILL between the
    write and the rename; ordinary failures reap the temp file and
    propagate (after transient retries).
    """
    path = Path(path)
    policy = retry if retry is not None else default_retry_policy()
    path.parent.mkdir(parents=True, exist_ok=True)

    def attempt() -> Path:
        rule = _gate("write", path)
        if rule is not None and rule.kind in ("enospc", "eio"):
            raise _injected_oserror(rule.kind, path)
        payload = data
        if rule is not None and rule.kind == "torn":
            payload = data[: max(0, rule.arg)]
        handle = NamedTemporaryFile(dir=path.parent, suffix=".tmp", delete=False)
        temp_name = handle.name
        try:
            with handle:
                handle.write(payload)
            if rule is not None and rule.kind == "crash":
                raise faults.SimulatedCrash(f"injected crash before publishing {path}")
            _fire_move(_gate("rename", temp_name, path), "rename", Path(temp_name), path)
            os.replace(temp_name, path)
        except faults.SimulatedCrash:
            raise  # leave the stranded temp file, exactly like a kill
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        STATS.writes += 1
        return path

    return policy.run(attempt)


def atomic_write_text(
    path: str | Path, text: str, retry: RetryPolicy | None = None
) -> Path:
    """Publish UTF-8 text atomically (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"), retry=retry)


def atomic_write_json(
    path: str | Path, payload: Any, retry: RetryPolicy | None = None
) -> Path:
    """Publish JSON with tmp + ``os.replace`` so a kill never tears a file.

    Shared by the sweep failure artifacts, the scheduler's markers,
    manifests and row stores, and the artifact providers: durable progress
    records are written exactly when crashes are likely, so they must never
    be half-written.  The bytes are ``json.dumps(payload, indent=2,
    default=str)`` — the historical format every byte-identity gate is
    pinned to.
    """
    return atomic_write_text(path, json.dumps(payload, indent=2, default=str), retry=retry)


def write_private_bytes(path: str | Path, data: bytes) -> Path:
    """Write a *non-published* scratch file (no rename; for link protocols).

    The lease coordinator's claim protocol writes its lease content to a
    unique private file and publishes it with :func:`durable_link`; the
    write itself needs no tmp/rename dance because nothing reads the
    private name.  Still fault-gated: a torn private file gets *linked*
    into publication, exercising readers' corruption handling.
    """
    path = Path(path)
    rule = _gate("write", path)
    if rule is not None and rule.kind in ("enospc", "eio"):
        raise _injected_oserror(rule.kind, path)
    payload = data
    if rule is not None and rule.kind == "torn":
        payload = data[: max(0, rule.arg)]
    path.write_bytes(payload)
    if rule is not None and rule.kind == "crash":
        raise faults.SimulatedCrash(f"injected crash after private write {path}")
    STATS.writes += 1
    return path


def write_private_text(path: str | Path, text: str) -> Path:
    """UTF-8 variant of :func:`write_private_bytes`."""
    return write_private_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# rename / link
# ---------------------------------------------------------------------------


def durable_rename(src: str | Path, dst: str | Path, retry: RetryPolicy | None = None) -> Path:
    """Atomically move ``src`` to ``dst`` (the lease-reclaim decider).

    ``FileNotFoundError`` propagates untouched — losing a rename race is
    protocol semantics, not an error.  Transient injected/real failures
    retry; a crash point fires *before* the rename, so the source survives.
    """
    src, dst = Path(src), Path(dst)
    policy = retry if retry is not None else default_retry_policy()

    def attempt() -> Path:
        _fire_move(_gate("rename", src, dst), "rename", src, dst)
        os.rename(src, dst)
        STATS.renames += 1
        return dst

    return policy.run(attempt)


def durable_link(src: str | Path, dst: str | Path, retry: RetryPolicy | None = None) -> Path:
    """Atomically link ``src`` to ``dst`` (the exclusive-claim decider).

    ``FileExistsError`` propagates untouched — losing a link race is
    protocol semantics.  Transient failures retry; a crash point fires
    before the link.
    """
    src, dst = Path(src), Path(dst)
    policy = retry if retry is not None else default_retry_policy()

    def attempt() -> Path:
        _fire_move(_gate("link", src, dst), "link", src, dst)
        os.link(src, dst)
        STATS.links += 1
        return dst

    return policy.run(attempt)


# ---------------------------------------------------------------------------
# guarded reads
# ---------------------------------------------------------------------------


def read_bytes(path: str | Path, retry: RetryPolicy | None = None) -> bytes:
    """Read a durable artifact, retrying transient failures.

    ``FileNotFoundError`` propagates untouched (a miss is not a failure);
    injected EIO faults are raised exactly like real ones, so one-shot
    occurrences are absorbed by the retry policy and persistent ones
    surface to the caller's degradation path.
    """
    path = Path(path)
    policy = retry if retry is not None else default_retry_policy()

    def attempt() -> bytes:
        rule = _gate("read", path)
        if rule is not None:
            if rule.kind == "crash":
                raise faults.SimulatedCrash(f"injected crash reading {path}")
            raise _injected_oserror("eio", path)
        data = path.read_bytes()
        STATS.reads += 1
        return data

    return policy.run(attempt)


def read_text(path: str | Path, retry: RetryPolicy | None = None) -> str:
    """UTF-8 variant of :func:`read_bytes`."""
    return read_bytes(path, retry=retry).decode("utf-8")


def read_json(path: str | Path, retry: RetryPolicy | None = None) -> Any:
    """Read and parse a JSON artifact; ``json.JSONDecodeError`` is the
    caller's signal to quarantine (corrupt bytes are never honoured)."""
    return json.loads(read_text(path, retry=retry))


# ---------------------------------------------------------------------------
# quarantine
# ---------------------------------------------------------------------------


def quarantine(
    path: str | Path,
    root: str | Path,
    reason: str,
    error: BaseException | None = None,
) -> Path | None:
    """Move a corrupt/unreadable artifact into ``root/quarantine/``.

    Never a deletion: the artifact's bytes survive for post-mortem, a JSON
    reason record lands next to them, and :data:`STATS` counts the
    incident.  The move is a single atomic rename, so concurrent
    quarantiners race safely — the loser sees ``FileNotFoundError`` and
    returns ``None``.  The reason record deliberately bypasses the fault
    gates: the containment protocol itself must stay dependable while a
    fault plan is active.
    """
    path, root = Path(path), Path(root)
    destination_dir = root / QUARANTINE_DIR_NAME
    try:
        destination_dir.mkdir(parents=True, exist_ok=True)
        destination = destination_dir / path.name
        os.rename(path, destination)
    except FileNotFoundError:
        return None  # a racer quarantined (or a writer replaced) it first
    except OSError:
        return None  # containment is best-effort; the artifact stays put, unhonoured
    record = {
        "artifact": str(path),
        "quarantined_to": str(destination),
        "reason": reason,
        "error": repr(error) if error is not None else None,
    }
    _write_reason(destination.with_name(destination.name + ".reason.json"), record)
    STATS.quarantined += 1
    return destination


def _write_reason(path: Path, record: dict) -> None:
    """Best-effort, fault-gate-free atomic write of a quarantine record."""
    temp_name = None
    try:
        with NamedTemporaryFile(
            "w", dir=path.parent, suffix=".tmp", delete=False, encoding="utf-8"
        ) as handle:
            temp_name = handle.name
            handle.write(json.dumps(record, indent=2, sort_keys=True) + "\n")
        os.replace(temp_name, path)
    except OSError:
        if temp_name is not None:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
