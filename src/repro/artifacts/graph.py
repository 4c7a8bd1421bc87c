"""The typed artifact graph engine: providers, planning, memoized compute.

The pipeline's intermediate products — compiled programs, sweep tables,
figure CSV/JSON files — are already a DAG of content-addressed artifacts;
this module makes the DAG explicit in the sciline style: one :class:`Provider` per artifact *type*, registered in a
:class:`Graph`, with :meth:`Graph.compute` as the sole entry point.

Identity is a content hash, not an object id: every node (a small frozen
dataclass, see :mod:`repro.artifacts.nodes`) contributes an
``identity_token()``, and its graph key is a SHA-256 over the provider
fingerprint, the cache schema version and the keys of its dependencies —
the same :func:`repro.core.compile_cache.fingerprint` discipline the
compile cache and lease scheduler use.  Two nodes that hash identically
(for example two figure tables labelled differently over the same points)
are *the same artifact* and evaluate at most once per store; the planner
collapses them.

Evaluation walks a deterministic topological order (DFS postorder over the
targets, dependency order preserved), consults the per-graph value memo and
— for providers that opt into persistence — the shared
:class:`~repro.core.compile_cache.CompileCache` disk layer, and otherwise
calls the provider's ``build``.  Per-key build counters make the
at-most-once guarantee auditable from tests and CI gates.

Persistence inherits the compile cache's durability contract: artifacts
are published atomically through :mod:`repro.core.storage`, corrupt
entries are quarantined with a reason record (never honoured, never
silently deleted), and a failing disk layer degrades to in-process
memoization instead of failing the build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Protocol, Sequence, runtime_checkable

from repro.core.compile_cache import CACHE_SCHEMA_VERSION, CompileCache, fingerprint, get_cache

__all__ = [
    "ArtifactNode",
    "Graph",
    "GraphCycleError",
    "GraphError",
    "GraphPlan",
    "GraphStats",
    "MissingProviderError",
    "Provider",
]


@runtime_checkable
class ArtifactNode(Protocol):
    """Anything usable as a graph node: hashable, with a content token.

    ``identity_token()`` must determine every result-relevant field of the
    node (the ``point_key`` discipline: ``repr`` floats so distinct values
    never collide, exclude scheduling-only knobs) — upstream content enters
    the key through the dependency keys, not through the token.
    """

    def identity_token(self) -> str: ...

    def __hash__(self) -> int: ...


class GraphError(RuntimeError):
    """Base error of the artifact graph."""


class MissingProviderError(GraphError):
    """No registered provider produces the requested artifact type."""

    def __init__(self, artifact_type: type):
        self.artifact_type = artifact_type
        super().__init__(
            f"no provider registered for artifact type {artifact_type.__name__!r}"
        )


class GraphCycleError(GraphError):
    """The provider dependencies form a cycle (artifacts cannot be built)."""

    def __init__(self, cycle: Sequence[Any]):
        self.cycle = tuple(cycle)
        names = " -> ".join(type(node).__name__ for node in self.cycle)
        super().__init__(f"artifact dependency cycle: {names}")


class Provider:
    """Builds every artifact of one node type from its dependencies.

    Subclasses set the class attributes and implement :meth:`build`;
    :meth:`requires` returns the dependency *nodes* (not values) so the
    planner can resolve shared upstream work before anything evaluates.
    ``version`` participates in every key this provider produces — bump it
    when the build output changes for identical inputs, exactly like
    ``CACHE_SCHEMA_VERSION`` for the compile cache.  ``persist=True`` opts
    the artifact into the shared ``CompileCache`` disk layer (the value
    must then survive a pickle round-trip bit-for-bit, like sweep rows).
    """

    artifact_type: type = object
    name: str = ""
    version: int = 1
    persist: bool = False

    def fingerprint_token(self) -> str:
        """The provider's contribution to every key it produces."""
        return f"provider:{self.name}:v{self.version}"

    def requires(self, node: Any) -> Sequence[Any]:
        """Dependency nodes of ``node`` (default: a source artifact)."""
        del node
        return ()

    def build(self, node: Any, inputs: Sequence[Any]) -> Any:
        """Produce the artifact value; ``inputs`` align with :meth:`requires`."""
        raise NotImplementedError


@dataclass
class GraphStats:
    """Counters of one :class:`Graph` instance, across its compute calls."""

    built: int = 0
    memo_hits: int = 0
    disk_hits: int = 0
    disk_puts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "built": self.built,
            "memo_hits": self.memo_hits,
            "disk_hits": self.disk_hits,
            "disk_puts": self.disk_puts,
        }


@dataclass
class GraphPlan:
    """A resolved evaluation plan: deterministic order, keys, dependencies.

    ``order`` lists one canonical node per distinct *key* in dependency
    order (every dependency precedes its dependents); nodes that hash to
    an existing key — label-twin tables, repeated targets — are collapsed
    onto the first occurrence.  ``keys`` and ``dependencies`` cover every
    node encountered, collapsed or not, so targets always resolve.
    """

    targets: tuple[Any, ...]
    order: tuple[Any, ...]
    keys: Mapping[Any, str] = field(default_factory=dict)
    dependencies: Mapping[Any, tuple[Any, ...]] = field(default_factory=dict)


_ACTIVE, _DONE = 1, 2


class Graph:
    """A registry of providers plus a memoized, cache-backed evaluator.

    The value memo is per-instance and keyed by artifact key, so repeated
    ``compute`` calls (and shared subtrees across figures) evaluate each
    artifact at most once per graph; ``builds`` records how many times each
    key was actually built — the auditable at-most-once counter.  ``cache``
    defaults to the process-wide compile cache (resolved per compute, so a
    changed ``$REPRO_CACHE_DIR`` is honoured); persistent providers read
    and publish through its disk-only methods, which never touch the
    compilation audit log.
    """

    def __init__(
        self,
        providers: Iterable[Provider] = (),
        cache: CompileCache | None = None,
    ):
        self._providers: dict[type, Provider] = {}
        self._cache = cache
        self._values: dict[str, Any] = {}
        self.builds: dict[str, int] = {}
        self.stats = GraphStats()
        for provider in providers:
            self.register(provider)

    # -- registry -----------------------------------------------------------------
    def register(self, provider: Provider) -> None:
        """Register ``provider`` for its artifact type (one per type)."""
        artifact_type = provider.artifact_type
        if artifact_type in self._providers:
            raise GraphError(
                f"duplicate provider for artifact type {artifact_type.__name__!r}: "
                f"{self._providers[artifact_type].name!r} is already registered"
            )
        if not provider.name:
            raise GraphError(f"provider for {artifact_type.__name__!r} has no name")
        self._providers[artifact_type] = provider

    def provider_for(self, node: Any) -> Provider:
        """The provider that builds ``node``'s artifact type."""
        provider = self._providers.get(type(node))
        if provider is None:
            raise MissingProviderError(type(node))
        return provider

    # -- planning -----------------------------------------------------------------
    def key_of(self, node: Any) -> str:
        """Content key of one node (planning its subtree as a side effect)."""
        return self.plan([node]).keys[node]

    def plan(self, targets: Sequence[Any]) -> GraphPlan:
        """Resolve ``targets`` into a deterministic bottom-up evaluation order.

        DFS postorder over the targets with dependency order preserved:
        the order is a pure function of the targets and the providers'
        ``requires``, independent of hash seeds or set iteration (the
        at-most-once and replay-equivalence properties are tested on
        randomly generated DAGs).  Raises :class:`MissingProviderError` for
        an unregistered node type and :class:`GraphCycleError` (naming the
        cycle) when dependencies loop.
        """
        targets = tuple(targets)
        keys: dict[Any, str] = {}
        dependencies: dict[Any, tuple[Any, ...]] = {}
        state: dict[Any, int] = {}
        path: list[Any] = []
        postorder: list[Any] = []

        for root in targets:
            if state.get(root) == _DONE:
                continue
            stack: list[tuple[Any, int]] = [(root, 0)]
            while stack:
                node, index = stack.pop()
                if index == 0:
                    if state.get(node) == _DONE:
                        continue
                    state[node] = _ACTIVE
                    path.append(node)
                    if node not in dependencies:
                        dependencies[node] = tuple(self.provider_for(node).requires(node))
                children = dependencies[node]
                if index < len(children):
                    stack.append((node, index + 1))
                    child = children[index]
                    child_state = state.get(child)
                    if child_state == _ACTIVE:
                        cycle = path[path.index(child):] + [child]
                        raise GraphCycleError(cycle)
                    if child_state != _DONE:
                        stack.append((child, 0))
                else:
                    state[node] = _DONE
                    path.pop()
                    keys[node] = self._key(node, [keys[child] for child in children])
                    postorder.append(node)

        # Collapse nodes that hash identically (label-twins, repeated
        # targets): the first occurrence is canonical, evaluated once.
        canonical: dict[str, Any] = {}
        order: list[Any] = []
        for node in postorder:
            if canonical.setdefault(keys[node], node) is node:
                order.append(node)
        return GraphPlan(
            targets=targets, order=tuple(order), keys=keys, dependencies=dependencies
        )

    def _key(self, node: Any, dependency_keys: Sequence[str]) -> str:
        provider = self.provider_for(node)
        return fingerprint(
            [
                "artifact",
                f"schema:{CACHE_SCHEMA_VERSION}",
                provider.fingerprint_token(),
                node.identity_token(),
                *dependency_keys,
            ]
        )

    # -- evaluation ---------------------------------------------------------------
    def compute(self, target: Any) -> Any:
        """Resolve and evaluate one target artifact, returning its value."""
        return self.compute_many([target])[0]

    def compute_many(self, targets: Sequence[Any]) -> list[Any]:
        """Evaluate ``targets`` bottom-up, sharing every common subtree.

        Values land in the per-graph memo keyed by content hash, so a node
        reachable from several targets (a compilation shared by two
        figures) builds exactly once; persistent providers additionally
        round-trip through the compile cache's disk layer, so a second
        graph over the same store replays instead of rebuilding.
        """
        plan = self.plan(targets)
        cache = self._resolve_cache()
        for node in plan.order:
            key = plan.keys[node]
            if key in self._values:
                self.stats.memo_hits += 1
                continue
            provider = self.provider_for(node)
            if provider.persist and cache is not None:
                cached = cache.disk_get(key)
                if cached is not None:
                    self._values[key] = cached
                    self.stats.disk_hits += 1
                    continue
            inputs = [self._values[plan.keys[child]] for child in plan.dependencies[node]]
            value = provider.build(node, inputs)
            if value is None:
                raise GraphError(
                    f"provider {provider.name!r} returned None for "
                    f"{type(node).__name__} (None is not an artifact value)"
                )
            self._values[key] = value
            self.stats.built += 1
            self.builds[key] = self.builds.get(key, 0) + 1
            if provider.persist and cache is not None:
                cache.disk_put(key, value)
                self.stats.disk_puts += 1
        return [self._values[plan.keys[target]] for target in plan.targets]

    def _resolve_cache(self) -> CompileCache:
        return self._cache if self._cache is not None else get_cache()

    def value_of(self, node: Any) -> Any | None:
        """The memoized value of ``node``, or ``None`` if never computed."""
        return self._values.get(self.key_of(node))
