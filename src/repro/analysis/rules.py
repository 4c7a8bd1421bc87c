"""The initial rule pack: this repo's determinism/engine/env contracts.

Rule IDs are the stable contract surface (they appear in suppression
comments, CI output and the ROADMAP's standing-invariants table):

* ``DET001`` — no unseeded or globally-seeded RNG,
* ``DET002`` — no wall-clock reads in deterministic layers,
* ``DET003`` — no iteration over sets in deterministic layers,
* ``ENG001`` — no process pools outside the sweep engine,
* ``ENG002`` — trajectory compilation must go through the cache,
* ``ENG003`` — nothing but the cache touches ``compile-log.txt``,
* ``ENG004`` — lease files are written only by the coordinator,
* ``ENG005`` — figure/table artifacts are written only through the
  artifact layer (no direct ``write_csv``/``write_json`` in drivers),
* ``ENG006`` — durable subsystems publish bytes only through
  :mod:`repro.core.storage` (no bare write-mode ``open``,
  ``os.replace``/``os.rename``/``os.link`` or ``tempfile`` writes),
* ``ENV001`` — environment reads go through :mod:`repro.core.env`,
* ``STAT001`` — the opt-in adaptive estimators are never imported at
  module level by default paths.

The engine additionally emits ``SUP001``/``SUP002`` (suppression hygiene)
and ``PARSE001`` (unparseable source); :mod:`repro.analysis.fingerprint`
emits ``FPR001`` (schema-fingerprint mismatch).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule

__all__ = [
    "AdaptiveImportRule",
    "DEFAULT_RULES",
    "DirectArtifactWriteRule",
    "DirectEnvReadRule",
    "PoolOutsideEngineRule",
    "RawDurableWriteRule",
    "SetIterationRule",
    "UncachedCompileRule",
    "UnmanagedCompileLogRule",
    "UnmanagedLeaseRule",
    "UnseededRngRule",
    "WallClockRule",
    "dotted_name",
    "import_aliases",
]

#: Layers bound by the bit-for-bit determinism contract (ROADMAP standing
#: invariants): trajectory kernels, tensor algebra, compiler, experiment
#: drivers.  ``pulse``/``topology``/``workloads`` build inputs, not artifact
#: bytes, and stay outside the strict scope.
DETERMINISTIC_SCOPE = (
    "repro/noise/",
    "repro/qudit/",
    "repro/core/",
    "repro/experiments/",
)


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the dotted module/attribute they were bound from.

    ``import numpy as np`` maps ``np -> numpy``; ``from repro.noise.program
    import compile_program as cp`` maps ``cp ->
    repro.noise.program.compile_program``.  Plain ``import a.b`` binds only
    the top-level name ``a``.  Relative imports are ignored (they cannot
    name the stdlib modules these rules watch).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                if name.asname is not None:
                    aliases[name.asname] = name.name
                else:
                    top = name.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:
                continue
            for name in node.names:
                if name.name == "*":
                    continue
                aliases[name.asname or name.name] = f"{node.module}.{name.name}"
    return aliases


def dotted_name(node: ast.AST, aliases: dict[str, str]) -> str | None:
    """Resolve an attribute chain to its import-aware dotted name.

    With ``aliases`` from :func:`import_aliases`, ``np.random.seed``
    resolves to ``numpy.random.seed`` and a ``random`` name bound by
    ``from repro.qudit import random`` resolves to ``repro.qudit.random``
    (so the stdlib-``random`` rule cannot misfire on it).  Returns ``None``
    for chains not rooted in a plain name.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    root = aliases.get(parts[0], parts[0])
    return ".".join([root] + parts[1:])


class UnseededRngRule(Rule):
    """DET001: randomness must flow through explicitly-seeded generators."""

    rule_id = "DET001"
    title = "unseeded or global RNG"
    invariant = (
        "bit-for-bit determinism: every random draw comes from a spawned, "
        "seeded numpy Generator stream, never global or wall-seeded state"
    )

    _LEGACY_NUMPY = frozenset(
        {
            "seed",
            "rand",
            "randn",
            "randint",
            "random",
            "random_sample",
            "ranf",
            "sample",
            "choice",
            "shuffle",
            "permutation",
            "uniform",
            "normal",
            "standard_normal",
            "binomial",
            "poisson",
            "exponential",
            "beta",
            "gamma",
            "get_state",
            "set_state",
        }
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name is None:
                continue
            if name == "numpy.random.default_rng" and not node.args and not node.keywords:
                yield self.finding(
                    module,
                    node,
                    "default_rng() without a seed draws from OS entropy; "
                    "pass an explicit seed or a spawned SeedSequence",
                )
            elif name.startswith("numpy.random.") and name.rsplit(".", 1)[1] in self._LEGACY_NUMPY:
                yield self.finding(
                    module,
                    node,
                    f"{name} uses numpy's global RNG state; "
                    "use a seeded numpy.random.Generator stream instead",
                )
            elif name == "random" or name.startswith("random."):
                yield self.finding(
                    module,
                    node,
                    f"stdlib {name} is process-global RNG state; "
                    "use a seeded numpy.random.Generator stream instead",
                )


class WallClockRule(Rule):
    """DET002: deterministic layers must not read the wall clock."""

    rule_id = "DET002"
    title = "wall-clock read in deterministic layer"
    invariant = (
        "bit-for-bit determinism: artifact bytes must be a pure function of "
        "inputs and seeds, never of when the code ran"
    )
    scope = DETERMINISTIC_SCOPE

    _CLOCKS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "time.perf_counter",
            "time.perf_counter_ns",
            "time.monotonic",
            "time.monotonic_ns",
            "time.process_time",
            "time.process_time_ns",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "datetime.datetime.today",
            "datetime.date.today",
        }
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in self._CLOCKS:
                yield self.finding(
                    module,
                    node,
                    f"{name}() reads the wall clock inside a deterministic layer",
                )


class SetIterationRule(Rule):
    """DET003: no order-sensitive consumption of set iteration order."""

    rule_id = "DET003"
    title = "iteration over a set"
    invariant = (
        "bit-for-bit determinism: set iteration order varies with insertion "
        "history and hash randomization, so anything feeding artifact "
        "writers or float accumulation must iterate sorted(...) instead"
    )
    scope = DETERMINISTIC_SCOPE

    #: Builtins whose result depends on the iteration order of their input.
    _ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "sum", "enumerate", "iter"})
    _SET_METHODS = frozenset({"union", "intersection", "difference", "symmetric_difference", "copy"})

    def _set_names(self, tree: ast.Module) -> set[str]:
        """Names assigned set-valued expressions anywhere in the module."""
        names: set[str] = set()
        for _ in range(3):  # small fixpoint: catches s2 = s1 | {...} chains
            before = len(names)
            for node in ast.walk(tree):
                target: ast.expr | None = None
                value: ast.expr | None = None
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                elif isinstance(node, ast.AnnAssign) and node.value is not None:
                    target, value = node.target, node.value
                elif isinstance(node, ast.AugAssign):
                    target, value = node.target, node.value
                if isinstance(target, ast.Name) and value is not None:
                    if isinstance(node, ast.AugAssign) and target.id in names:
                        continue  # s |= ... keeps set-ness; nothing to add
                    if self._is_set_expr(value, names):
                        names.add(target.id)
            if len(names) == before:
                break
        return names

    def _is_set_expr(self, node: ast.expr, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._SET_METHODS
                and self._is_set_expr(func.value, set_names)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._is_set_expr(node.left, set_names) or self._is_set_expr(node.right, set_names)
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        set_names = self._set_names(module.tree)

        def flag(node: ast.AST, how: str) -> Finding:
            return self.finding(
                module,
                node,
                f"{how} iterates a set in undefined order; use sorted(...) "
                "or an ordered container",
            )

        for node in ast.walk(module.tree):
            if isinstance(node, ast.For) and self._is_set_expr(node.iter, set_names):
                yield flag(node.iter, "for loop")
            elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
                # SetComp output is itself unordered, so its source order
                # cannot leak; every other comprehension preserves order.
                for generator in node.generators:
                    if self._is_set_expr(generator.iter, set_names):
                        yield flag(generator.iter, "comprehension")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in self._ORDER_SENSITIVE_CALLS
                    and node.args
                    and self._is_set_expr(node.args[0], set_names)
                ):
                    yield flag(node, f"{func.id}(...)")


class PoolOutsideEngineRule(Rule):
    """ENG001: one sweep engine owns process-level fan-out."""

    rule_id = "ENG001"
    title = "process pool outside the sweep engine"
    invariant = (
        "single sweep engine: grid execution fans out only through "
        "SweepRunner.iter_evaluate so checkpointing, leased scheduling and "
        "determinism guarantees hold for every experiment"
    )
    exempt = ("repro/experiments/sweep.py",)

    _POOLS = frozenset(
        {
            "concurrent.futures.ProcessPoolExecutor",
            "concurrent.futures.process.ProcessPoolExecutor",
            "multiprocessing.Pool",
            "multiprocessing.pool.Pool",
            "multiprocessing.dummy.Pool",
        }
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in self._POOLS:
                yield self.finding(
                    module,
                    node,
                    f"{name} builds a hand-rolled process pool; route grid "
                    "work through SweepRunner.iter_evaluate",
                )


class UncachedCompileRule(Rule):
    """ENG002: trajectory programs compile through the shared cache."""

    rule_id = "ENG002"
    title = "uncached trajectory compilation"
    invariant = (
        "versioned artifacts: cached_compile_program keys compilations "
        "under CACHE_SCHEMA_VERSION; direct compile_program calls bypass "
        "the cache and its audit log"
    )
    exempt = ("repro/noise/program.py",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name == "repro.noise.program.compile_program":
                yield self.finding(
                    module,
                    node,
                    "compile_program called directly; use "
                    "cached_compile_program so the artifact is cached and audited",
                )


class UnmanagedCompileLogRule(Rule):
    """ENG003: only CompileCache's audited path writes compile-log.txt."""

    rule_id = "ENG003"
    title = "unmanaged compile-log access"
    invariant = (
        "compile-log purity: compile-log.txt records exactly the true "
        "compute events under the cache lock; any other writer breaks the "
        "CI cache-reuse audit"
    )
    # The rule's own definition necessarily names the file it protects.
    exempt = ("repro/core/compile_cache.py", "repro/analysis/rules.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and "compile-log" in node.value
            ):
                yield self.finding(
                    module,
                    node,
                    "references the compile log file; only "
                    "CompileCache._log_compute may touch compile-log.txt",
                )


class UnmanagedLeaseRule(Rule):
    """ENG004: only LeaseCoordinator's atomic protocol touches lease files."""

    rule_id = "ENG004"
    title = "lease file access outside the coordinator"
    invariant = (
        "lease integrity: work-stealing correctness rests on every lease "
        "transition (claim, renew, reclaim, release) going through "
        "LeaseCoordinator's atomic link/rename protocol; any other writer "
        "can double-lease or orphan sweep points"
    )
    # The rule's own definition necessarily names the files it protects.
    exempt = ("repro/experiments/scheduler.py", "repro/analysis/rules.py")

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ".lease" in node.value
            ):
                yield self.finding(
                    module,
                    node,
                    "references a lease file; only LeaseCoordinator may "
                    "create, renew, reclaim or release *.lease files",
                )


class DirectEnvReadRule(Rule):
    """ENV001: environment access goes through the typed knob registry."""

    rule_id = "ENV001"
    title = "direct environment read"
    invariant = (
        "env hygiene: every REPRO_* knob is declared once in "
        "repro.core.env.REGISTRY (typed, documented, drift-tested); direct "
        "os.environ access creates undocumented configuration surface"
    )
    exempt = ("repro/core/env.py",)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            name: str | None = None
            if isinstance(node, (ast.Attribute, ast.Name)):
                name = dotted_name(node, aliases)
            if name == "os.environ":
                yield self.finding(
                    module,
                    node,
                    "os.environ accessed directly; read knobs through repro.core.env",
                )
            elif isinstance(node, ast.Call):
                call_name = dotted_name(node.func, aliases)
                if call_name == "os.getenv":
                    yield self.finding(
                        module,
                        node,
                        "os.getenv called directly; read knobs through repro.core.env",
                    )


class AdaptiveImportRule(Rule):
    """STAT001: default paths never import the adaptive estimators."""

    rule_id = "STAT001"
    title = "adaptive estimator imported at module level"
    invariant = (
        "statistical containment: repro.noise.adaptive / repro.noise.stats "
        "are opt-in estimators; default execution paths stay byte-for-byte "
        "untouched, so only function-scoped (lazy) imports behind an "
        "explicit target_stderr opt-in may reach them"
    )
    # The estimator package itself is the one module-level consumer.
    exempt = ("repro/noise/adaptive.py",)

    _MODULES = ("repro.noise.adaptive", "repro.noise.stats")

    def _matches(self, name: str | None) -> bool:
        if name is None:
            return False
        return any(name == mod or name.startswith(mod + ".") for mod in self._MODULES)

    def _module_level(self, tree: ast.Module) -> Iterator[ast.stmt]:
        """Statements executed at import time (function bodies excluded)."""
        pending: list[ast.stmt] = list(tree.body)
        while pending:
            node = pending.pop(0)
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # lazy imports inside functions are the sanctioned form
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    pending.append(child)

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in self._module_level(module.tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    if self._matches(name.name):
                        yield self.finding(
                            module,
                            node,
                            f"imports {name.name} at module level; the adaptive "
                            "estimators are opt-in — import them inside the "
                            "function that handles target_stderr",
                        )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [f"{node.module}.{name.name}" for name in node.names if name.name != "*"]
                for full in names:
                    if self._matches(full) or self._matches(node.module):
                        yield self.finding(
                            module,
                            node,
                            f"imports {full} at module level; the adaptive "
                            "estimators are opt-in — import them inside the "
                            "function that handles target_stderr",
                        )


class DirectArtifactWriteRule(Rule):
    """ENG005: figure/table artifacts are produced through graph providers."""

    rule_id = "ENG005"
    title = "direct artifact write in an experiment driver"
    invariant = (
        "artifact provenance: every figure/table file is rendered by the "
        "artifact graph's providers (repro.artifacts), so its bytes are "
        "tied to a content-addressed node and the at-most-once/dedupe "
        "guarantees hold; a driver calling the sweep writers directly "
        "produces untracked artifacts the graph cannot replay or audit"
    )
    scope = ("repro/experiments/",)
    # The sweep engine owns the writers; the scheduler's merge path
    # reproduces local-run artifacts byte-for-byte from landed rows
    # (its own CI-gated invariant) and predates the graph layer.
    exempt = (
        "repro/experiments/sweep.py",
        "repro/experiments/scheduler.py",
    )

    _WRITERS = frozenset(
        {
            "repro.experiments.sweep.write_csv",
            "repro.experiments.sweep.write_json",
        }
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name in self._WRITERS:
                yield self.finding(
                    module,
                    node,
                    f"calls {name.rsplit('.', 1)[1]} directly; render figure/"
                    "table artifacts through repro.artifacts providers "
                    "(FigureCSVArtifact / FigureJSONArtifact targets)",
                )


class RawDurableWriteRule(Rule):
    """ENG006: durable subsystems write bytes only through repro.core.storage."""

    rule_id = "ENG006"
    title = "raw durable write outside the storage layer"
    invariant = (
        "durable-I/O unification: every byte the cache, "
        "scheduler and artifact layers publish goes through "
        "repro.core.storage (atomic, fault-injectable, retried, "
        "quarantine-aware); a bare write-mode open, os.replace/rename/link "
        "or tempfile write re-creates the torn-file and silent-corruption "
        "bugs the storage layer exists to prevent"
    )
    #: The durable subsystems; repro/core/storage.py itself sits outside
    #: this scope by construction, and the append-only compile log
    #: (mode "a") is the one sanctioned direct open.
    scope = (
        "repro/core/compile_cache.py",
        "repro/experiments/",
        "repro/artifacts/",
    )

    _MOVERS = frozenset({"os.replace", "os.rename", "os.link"})
    _TEMPFILE = frozenset(
        {
            "tempfile.NamedTemporaryFile",
            "tempfile.TemporaryFile",
            "tempfile.SpooledTemporaryFile",
            "tempfile.mkstemp",
            "tempfile.mktemp",
        }
    )

    def _write_mode(self, node: ast.Call, mode_position: int) -> str | None:
        """The call's constant mode string, if it opens for writing."""
        mode: object = "r"
        if len(node.args) > mode_position:
            arg = node.args[mode_position]
            if not isinstance(arg, ast.Constant):
                return None
            mode = arg.value
        for keyword in node.keywords:
            if keyword.arg == "mode":
                if not isinstance(keyword.value, ast.Constant):
                    return None
                mode = keyword.value.value
        if isinstance(mode, str) and any(flag in mode for flag in ("w", "x", "+")):
            return mode
        return None

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        aliases = import_aliases(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func, aliases)
            if name == "open":
                mode = self._write_mode(node, mode_position=1)
                if mode is not None:
                    yield self.finding(
                        module,
                        node,
                        f"open(..., {mode!r}) writes durable bytes directly; "
                        "publish through repro.core.storage (atomic_write_*)",
                    )
            elif isinstance(node.func, ast.Attribute) and node.func.attr == "open":
                mode = self._write_mode(node, mode_position=0)
                if mode is not None:
                    yield self.finding(
                        module,
                        node,
                        f".open({mode!r}) writes durable bytes directly; "
                        "publish through repro.core.storage (atomic_write_*)",
                    )
            elif name in self._MOVERS:
                yield self.finding(
                    module,
                    node,
                    f"{name} moves durable files directly; use "
                    "repro.core.storage (atomic_write_* / durable_rename / durable_link)",
                )
            elif name in self._TEMPFILE:
                yield self.finding(
                    module,
                    node,
                    f"{name} hand-rolls a temp-file publish protocol; "
                    "repro.core.storage owns the tmp+rename dance",
                )


DEFAULT_RULES: tuple[Rule, ...] = (
    UnseededRngRule(),
    WallClockRule(),
    SetIterationRule(),
    PoolOutsideEngineRule(),
    UncachedCompileRule(),
    UnmanagedCompileLogRule(),
    UnmanagedLeaseRule(),
    DirectArtifactWriteRule(),
    RawDurableWriteRule(),
    DirectEnvReadRule(),
    AdaptiveImportRule(),
)
