"""Content-addressed, disk-backed cache for compilation artifacts.

Compilations are deterministic functions of their inputs, so their outputs
(:class:`~repro.core.compiler.CompilationResult` objects, compiled
trajectory programs) can be shared by every process — ``SweepRunner``
workers, repeated benchmark runs, and leased workers on other machines —
through a content-addressed store:

* the **key** is a SHA-256 over the circuit's op stream, the strategy, the
  device topology, the error model and :data:`CACHE_SCHEMA_VERSION`
  (bumping the version invalidates every artifact written by older code),
* the **value** is the pickled artifact, published atomically through
  :mod:`repro.core.storage` under ``$REPRO_CACHE_DIR`` so concurrent
  writers can never publish a torn file,
* an in-process **LRU front** keeps the hot artifacts deserialized; without
  ``REPRO_CACHE_DIR`` the cache degrades to exactly that in-memory layer.

Corrupt or unreadable disk entries are treated as misses and moved into
``quarantine/`` with a JSON reason record — never honoured, never silently
deleted — so every corruption incident stays auditable.  A disk layer that
stops accepting writes (quota, read-only mounts) degrades the instance to
in-process-only caching with a counted warning instead of failing
compilations: the cache can only trade repeated work for disk space, it
cannot change results — a cached compilation is bit-for-bit the pickle
round-trip of the original, which is exact for every array payload.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.core import env, storage

__all__ = [
    "CACHE_DIR_ENV_VAR",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "CompileCache",
    "circuit_token",
    "compilation_cache_key",
    "device_token",
    "error_model_token",
    "fingerprint",
    "get_cache",
    "physical_token",
    "reset_cache",
]

#: Environment variable naming the shared artifact directory.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"

#: Bump whenever the layout of cached artifacts or of the key tokens
#: changes; old artifacts then miss instead of deserializing garbage.
#: v2: trajectory programs carry precomputed idle-step tables and the
#: fusion flag, and the cache gained no-jump fast-path checkpoint records.
#: v3: gather kernels carry span-local indices (and fused phases) with their
#: ``(left, span, right)`` view instead of full-register arrays.
#: v4: fixed-count runs always take the explicit engines and adaptive rounds
#: resume deviating streams from their own prescan records; no no-jump
#: record is keyed or persisted any more.
#: v5: fixed-count runs with ``batch_size=None`` run one-row engine blocks
#: (the scalar loop is gone), and idle populations of large rows are
#: contracted row by row, so results no longer depend on the block size.
#: v6: ``single`` kernels carry the float64 ``real`` part of a real unitary
#: (applied as one float64 einsum, same bits), and depolarizing draws reuse
#: cached error factors.
#: v7: programs simulate a register truncated to each device's reachable
#: levels; kernels, idle tables and error factors are built on it.
#: v8: the kernels run on numpy alone; no key carries an array-backend token.
#: v9: fixed-count and adaptive runs simulate every stream in process; the
#: trajectory-level process pool (``workers=``) is gone.  No bit moves.
CACHE_SCHEMA_VERSION = 9

#: Default capacity of the in-process LRU front (artifacts, not bytes).
DEFAULT_MEMORY_ENTRIES = 256


# ---------------------------------------------------------------------------
# key construction
# ---------------------------------------------------------------------------


def fingerprint(parts: Iterable[str]) -> str:
    """Return the hex SHA-256 of an ordered sequence of token strings."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x1f")  # unit separator: "ab","c" != "a","bc"
    return digest.hexdigest()


def circuit_token(circuit) -> str:
    """Canonical token of a logical circuit: register size, name and ops.

    The name participates because it flows into the compiled physical
    circuit's name (and from there into sweep artifacts); ``repr`` of the
    float params is an exact round-trip, so distinct angles never collide.
    """
    gates = ";".join(
        f"{gate.name}{gate.qubits}{tuple(repr(p) for p in gate.params)}"
        for gate in circuit.gates
    )
    return f"circuit:{circuit.name}:{circuit.num_qubits}:{gates}"


def device_token(device) -> str:
    """Canonical token of a device topology (``None``: the default mesh).

    The default mesh is fully determined by the circuit and strategy (which
    are in the key already), so ``None`` needs no structure of its own.
    """
    if device is None:
        return "device:default-mesh"
    edges = sorted(tuple(sorted(edge)) for edge in device.coupling_graph.edges)
    coherence = device.coherence
    return (
        f"device:{device.name}:{device.num_devices}:{edges}:"
        f"{coherence.base_t1_ns!r}:{coherence.excited_scale!r}"
    )


def error_model_token(error_model) -> str:
    """Canonical token of an :class:`~repro.core.gateset.ErrorModel`."""
    if error_model is None:
        return "errors:default"
    return (
        f"errors:{error_model.single_device_error!r}:{error_model.two_device_error!r}:"
        f"{error_model.itoffoli_error!r}:{error_model.ququart_error_factor!r}"
    )


def compilation_cache_key(
    circuit,
    strategy: str,
    device,
    error_model,
) -> str:
    """Key of one ``QuantumWaltzCompiler.compile`` invocation's result."""
    return fingerprint(
        [
            "compilation",
            f"schema:{CACHE_SCHEMA_VERSION}",
            circuit_token(circuit),
            f"strategy:{strategy}",
            device_token(device),
            error_model_token(error_model),
        ]
    )


def physical_token(physical) -> str:
    """Canonical token of a compiled physical circuit (for program caching)."""
    placement = physical.initial_placement
    placement_part = (
        sorted((q, (s.device, s.slot)) for q, s in placement.as_dict().items())
        if placement is not None
        else None
    )
    ops = ";".join(
        f"{op.label}:{op.logical_name}:{op.devices}:{op.operand_slots}:"
        f"{op.duration_ns!r}:{op.error_rate!r}:{op.gate_class.value}:"
        f"{op.logical_qubits}:{tuple(repr(p) for p in op.params)}:{op.sets_mode}"
        for op in physical.ops
    )
    return (
        f"physical:{physical.name}:{physical.num_devices}:{physical.device_dims}:"
        f"{physical.num_logical_qubits}:{sorted(physical.initial_modes.items())}:"
        f"{placement_part}:{ops}"
    )


# ---------------------------------------------------------------------------
# the cache
# ---------------------------------------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`CompileCache` instance."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    disk_errors: int = 0
    degraded: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "puts": self.puts,
            "disk_errors": self.disk_errors,
            "degraded": self.degraded,
        }


class CompileCache:
    """Two-layer artifact cache: in-process LRU front, shared disk behind.

    ``directory=None`` disables the disk layer (pure per-process
    memoization, the pre-refactor behavior of ``experiments.sweep``).  The
    disk layer is safe for concurrent writers: values are pickled to a
    temporary file and published with ``os.replace``, and readers treat any
    undeserializable entry as a miss.
    """

    def __init__(
        self,
        directory: str | os.PathLike | None = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ):
        if memory_entries < 1:
            raise ValueError("memory_entries must be at least 1")
        self.directory = Path(directory) if directory is not None else None
        self.memory_entries = memory_entries
        self.stats = CacheStats()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        self._warned_degraded = False

    # -- layout -----------------------------------------------------------------
    @property
    def persistent(self) -> bool:
        """Whether a disk layer backs this cache."""
        return self.directory is not None

    def path_for(self, key: str) -> Path:
        """Disk location of one artifact (sharded by key prefix)."""
        if self.directory is None:
            raise ValueError("cache has no disk layer (directory is None)")
        return self.directory / f"v{CACHE_SCHEMA_VERSION}" / key[:2] / f"{key}.pkl"

    # -- memory front ------------------------------------------------------------
    def _memory_get(self, key: str) -> Any | None:
        value = self._memory.get(key)
        if value is not None:
            self._memory.move_to_end(key)
        return value

    def _memory_put(self, key: str, value: Any) -> None:
        self._memory[key] = value
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        """Drop the in-process front (forces the next gets to the disk layer)."""
        self._memory.clear()

    # -- lookup -----------------------------------------------------------------
    def get(self, key: str) -> Any | None:
        """Return the cached artifact, or ``None`` on a miss.

        ``None`` is therefore not a cacheable value — compilation artifacts
        never are ``None``.
        """
        value = self._memory_get(key)
        if value is not None:
            self.stats.memory_hits += 1
            return value
        if self.directory is not None:
            value = self._disk_get(key)
            if value is not None:
                self.stats.disk_hits += 1
                self._memory_put(key, value)
                return value
        self.stats.misses += 1
        return None

    def _disk_get(self, key: str) -> Any | None:
        path = self.path_for(key)
        try:
            payload = storage.read_bytes(path)
        except FileNotFoundError:
            return None
        except OSError:
            # Unreadable (EIO past the retry budget): a miss, counted.  The
            # entry stays put — the next reader may succeed.
            self.stats.disk_errors += 1
            return None
        try:
            return pickle.loads(payload)
        except Exception as error:
            # Torn or stale bytes: never honoured, never silently deleted.
            self.quarantine_entry(key, "undeserializable cache entry", error=error)
            return None

    # -- disk-only access ---------------------------------------------------------
    def disk_get(self, key: str) -> Any | None:
        """Fetch an artifact from the disk layer only, bypassing the LRU front.

        Artifacts with their own in-process memo (artifact-graph nodes,
        persisted point results) would only evict compilations from the
        entry-counted front if routed through :meth:`get`.  Returns ``None``
        without a disk layer.
        """
        if self.directory is None:
            return None
        value = self._disk_get(key)
        if value is not None:
            self.stats.disk_hits += 1
        return value

    def disk_put(self, key: str, value: Any) -> None:
        """Publish an artifact to the disk layer only (best effort, atomic).

        Unlike :meth:`put` this neither touches the memory front nor appends
        to ``compile-log.txt``: the log is an audit of *compilations*, and
        the reuse gates count its lines.  A no-op without a disk layer.
        """
        if value is None:
            raise ValueError("None is not a cacheable artifact")
        if self.directory is None:
            return
        self._disk_write(key, value)

    # -- store ------------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """Store an artifact in the memory front and (best effort) on disk."""
        if value is None:
            raise ValueError("None is not a cacheable artifact")
        self._memory_put(key, value)
        self.stats.puts += 1
        if self.directory is None:
            return
        self._disk_write(key, value)

    def _disk_write(self, key: str, value: Any) -> None:
        try:
            storage.atomic_write_bytes(
                self.path_for(key), pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            )
        except (OSError, pickle.PickleError) as error:
            # Disk trouble (quota, read-only or vanished mounts) or an
            # unpicklable artifact must never fail a compilation; the
            # memory front already has it.
            self.stats.disk_errors += 1
            self._degrade(error)

    def _degrade(self, error: Exception) -> None:
        """Count a disk-layer failure and warn once per instance.

        The instance keeps *trying* the disk on later puts (a transient
        quota may clear), but callers are told — once, not per artifact —
        that they are running on in-process caching only.
        """
        self.stats.degraded += 1
        if not self._warned_degraded:
            self._warned_degraded = True
            warnings.warn(
                f"compile cache disk layer at {self.directory} is failing writes "
                f"({error!r}); degrading to in-process caching only",
                RuntimeWarning,
                stacklevel=4,
            )

    def quarantine_entry(self, key: str, reason: str, error: Exception | None = None) -> None:
        """Move a corrupt disk entry into ``quarantine/`` with a reason record."""
        self.stats.disk_errors += 1
        if self.directory is None:
            return
        storage.quarantine(self.path_for(key), self.directory, reason, error=error)

    def get_or_create(self, key: str, factory: Callable[[], Any]) -> Any:
        """Return the cached artifact, computing and storing it on a miss.

        Cache misses are recorded (pid + key) in ``compile-log.txt`` next to
        the artifacts, so operators — and the CI reuse check — can audit
        which process actually recompiled what.

        There is deliberately no cross-process lock around the factory: on a
        *cold* cache, workers that miss the same key simultaneously may each
        compute it once (results are deterministic and published atomically,
        so the duplicates are wasted work, never corruption).  Once a key is
        on disk it is never recomputed, so warm caches — and any grid whose
        points carry distinct keys — compile each key exactly once.
        """
        value = self.get(key)
        if value is not None:
            return value
        value = factory()
        self._log_compute(key)
        self.put(key, value)
        return value

    def _log_compute(self, key: str) -> None:
        if self.directory is None:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            with open(self.directory / "compile-log.txt", "a") as handle:
                handle.write(f"{os.getpid()} {key}\n")
        except OSError:
            self.stats.disk_errors += 1


# ---------------------------------------------------------------------------
# the process-wide instance
# ---------------------------------------------------------------------------

_CACHE: CompileCache | None = None
_CACHE_DIRECTORY: str | None = None


def get_cache() -> CompileCache:
    """Return the process-wide cache, honouring ``$REPRO_CACHE_DIR``.

    The instance is rebuilt whenever the environment variable changes, so
    tests (and long-lived processes reconfigured at runtime) always talk to
    the directory currently configured.
    """
    global _CACHE, _CACHE_DIRECTORY
    directory = env.read_raw(CACHE_DIR_ENV_VAR) or None
    if _CACHE is None or directory != _CACHE_DIRECTORY:
        _CACHE = CompileCache(directory)
        _CACHE_DIRECTORY = directory
    return _CACHE


def reset_cache() -> None:
    """Drop the process-wide instance (mainly for test isolation)."""
    global _CACHE, _CACHE_DIRECTORY
    _CACHE = None
    _CACHE_DIRECTORY = None
