"""Schema-fingerprint guards: AST hashes of schema-governed code regions.

The compile cache (``CACHE_SCHEMA_VERSION``) and the lease-job store
(``SHARD_SCHEMA_VERSION``) persist artifacts whose *meaning* is defined by
specific code regions: the trajectory kernel arithmetic baked into cached
no-jump records, the draw-replay order those records assume, the token
functions that build cache keys, and the point identity and job/lease
layout of scheduled sweeps.  Editing one of those regions without bumping the
governing schema version silently invalidates every warm artifact — a
cache hit then replays stale bits, which no unit test of the new code can
catch.

This module makes that contract machine-checked.  Each :class:`Region`
names a function or class whose *normalized* AST (docstrings stripped,
formatting and comments irrelevant) is hashed into
``fingerprints.json`` next to the schema version that governed it.  On
every lint run the hash is recomputed:

* hash unchanged — fine (comments/docstrings/formatting may differ);
* hash changed, schema version bumped — allowed; the manifest is then
  re-blessed with ``python -m repro.analysis --update-fingerprints``;
* hash changed, schema version unchanged — ``FPR001``, naming the
  invariant at stake.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.engine import Finding

__all__ = [
    "DEFAULT_MANIFEST_PATH",
    "MANIFEST_VERSION",
    "REGIONS",
    "Region",
    "SCHEMA_FILES",
    "check_fingerprints",
    "compute_manifest",
    "load_manifest",
    "region_fingerprint",
    "schema_version",
    "write_manifest",
]

MANIFEST_VERSION = 1

DEFAULT_MANIFEST_PATH = Path(__file__).with_name("fingerprints.json")

#: Source file (relative to the src root) declaring each schema version.
SCHEMA_FILES: dict[str, str] = {
    "CACHE_SCHEMA_VERSION": "repro/core/compile_cache.py",
    "SHARD_SCHEMA_VERSION": "repro/experiments/scheduler.py",
}


@dataclass(frozen=True)
class Region:
    """One fingerprinted code region and the schema version governing it."""

    file: str  # path relative to the src root, e.g. "repro/noise/program.py"
    name: str  # function, class, or "Class.method" qualified name
    schema: str  # governing schema-version variable name
    invariant: str  # what breaks if this changes without a bump

    @property
    def key(self) -> str:
        return f"{self.file}::{self.name}"


_KERNEL_INVARIANT = (
    "kernel arithmetic is baked into cached NoJumpRecord checkpoints keyed "
    "by CACHE_SCHEMA_VERSION; changing it without a bump lets a warm cache "
    "replay stale bits instead of recomputing"
)
_REPLAY_INVARIANT = (
    "the fast path replays recorded RNG draw schedules; changing draw "
    "order, record keys or generator cloning without bumping "
    "CACHE_SCHEMA_VERSION desynchronizes replay from persisted records"
)
_CACHE_KEY_INVARIANT = (
    "cache keys are the identity of persisted compilation artifacts; "
    "changing token construction without bumping CACHE_SCHEMA_VERSION "
    "aliases new requests onto incompatible cached entries"
)
_RESULT_INVARIANT = (
    "persisted point results bake in the whole trajectory computation "
    "(sampler, spawn order, engines, fidelity, adaptive estimator) keyed by "
    "CACHE_SCHEMA_VERSION; changing it without a bump lets a warm figure "
    "rerun replay stale results instead of recomputing"
)
_SHARD_INVARIANT = (
    "point identity is the durable identity of scheduled sweep artifacts; "
    "changing it without bumping SHARD_SCHEMA_VERSION orphans or "
    "mismatches persisted jobs, markers and rows on resume"
)
_LEASE_INVARIANT = (
    "lease and job serialization is the durable state of the work-stealing "
    "coordinator; changing it without bumping SHARD_SCHEMA_VERSION lets "
    "live fleets misread each other's leases, manifests and job specs"
)


def _kernel(name: str) -> Region:
    return Region("repro/noise/program.py", name, "CACHE_SCHEMA_VERSION", _KERNEL_INVARIANT)


def _replay(name: str) -> Region:
    return Region("repro/noise/fastpath.py", name, "CACHE_SCHEMA_VERSION", _REPLAY_INVARIANT)


def _cache_key(name: str) -> Region:
    return Region("repro/core/compile_cache.py", name, "CACHE_SCHEMA_VERSION", _CACHE_KEY_INVARIANT)


def _result(file: str, name: str) -> Region:
    return Region(file, name, "CACHE_SCHEMA_VERSION", _RESULT_INVARIANT)


def _shard(file: str, name: str) -> Region:
    return Region(file, name, "SHARD_SCHEMA_VERSION", _SHARD_INVARIANT)


def _lease(name: str) -> Region:
    return Region("repro/experiments/scheduler.py", name, "SHARD_SCHEMA_VERSION", _LEASE_INVARIANT)


REGIONS: tuple[Region, ...] = (
    # Kernel arithmetic (noise/program.py): what cached records replay.
    _kernel("apply_kernel"),
    _kernel("apply_kernel_batch"),
    _kernel("device_populations"),
    _kernel("device_populations_batch"),
    _kernel("idle_no_jump_terms"),
    _kernel("no_jump_scales"),
    _kernel("no_jump_scales_batch"),
    _kernel("draw_idle_choice"),
    _kernel("jump_scale"),
    _kernel("apply_idle_scalar"),
    _kernel("sample_gate_error"),
    _kernel("_fuse_gate_runs"),
    _kernel("_program_cache_key"),
    # Draw replay (noise/fastpath.py): record construction and reuse.
    _replay("draw_schedule"),
    _replay("_scan_segment"),
    _replay("_clone_generator"),
    _replay("_record_key"),
    _replay("_bundle_key"),
    # Cache keys (core/compile_cache.py): artifact identity.
    _cache_key("fingerprint"),
    _cache_key("circuit_token"),
    _cache_key("device_token"),
    _cache_key("error_model_token"),
    _cache_key("compilation_cache_key"),
    _cache_key("physical_token"),
    # Persisted point results (artifacts/providers.py): the result-layer key
    # and every function whose output a cached result stands in for.
    _result("repro/artifacts/providers.py", "point_result_key"),
    _result("repro/noise/trajectory.py", "TrajectorySimulator.average_fidelity"),
    _result("repro/noise/trajectory.py", "TrajectorySimulator._fidelities_for_streams"),
    _result("repro/noise/trajectory.py", "_default_state_sampler"),
    _result("repro/qudit/random.py", "haar_random_state"),
    _result("repro/core/encoding.py", "embed_logical_state"),
    _result("repro/qudit/states.py", "fidelity"),
    _result("repro/noise/channels.py", "sample_depolarizing_error_factors"),
    _result("repro/noise/model.py", "NoiseModel.idle_decay_probabilities"),
    _result("repro/noise/batched.py", "BatchedTrajectoryEngine"),
    _result("repro/noise/adaptive.py", "adaptive_average_fidelity"),
    _result("repro/noise/adaptive.py", "stratified_contributions"),
    _result("repro/noise/adaptive.py", "_simulate_deviating"),
    # Point identity (experiments/sweep.py + scheduler.py): resumable sweeps.
    _shard("repro/experiments/sweep.py", "point_key"),
    _shard("repro/experiments/scheduler.py", "point_to_json"),
    _shard("repro/experiments/scheduler.py", "point_from_json"),
    # Lease/job serialization (experiments/scheduler.py): work-stealing state.
    _lease("Lease"),
    _lease("JobSpec"),
    _lease("WorkerManifest"),
)


def _strip_docstring(node: ast.AST) -> None:
    body = getattr(node, "body", None)
    if (
        isinstance(body, list)
        and body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        del body[0]


def _find_region_node(tree: ast.Module, qualname: str) -> ast.AST | None:
    """Locate a top-level def/class (or ``Class.method``) by name."""
    parts = qualname.split(".")
    scope: list[ast.stmt] = tree.body
    node: ast.AST | None = None
    for part in parts:
        node = None
        for candidate in scope:
            if (
                isinstance(candidate, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and candidate.name == part
            ):
                node = candidate
                break
        if node is None:
            return None
        scope = getattr(node, "body", [])
    return node


def region_fingerprint(source: str, qualname: str) -> str | None:
    """Hash the normalized AST of one region; ``None`` if it is missing.

    The fingerprint is a sha256 of ``ast.dump`` without line/column
    attributes and with the region's own docstring (and its nested
    defs'/classes' docstrings) removed, so formatting, comments and prose
    edits never trip the guard — only semantic structure does.
    """
    tree = ast.parse(source)
    node = _find_region_node(tree, qualname)
    if node is None:
        return None
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module)):
            _strip_docstring(sub)
    return hashlib.sha256(ast.dump(node).encode("utf-8")).hexdigest()


def schema_version(root: Path, variable: str) -> int | None:
    """Statically read ``variable = <int>`` from its declaring module.

    Parsing (not importing) keeps the guard usable against arbitrary
    source trees — the fingerprint tests run it on mutated tmp-dir copies
    that are never importable.
    """
    path = root / SCHEMA_FILES[variable]
    if not path.is_file():
        return None
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == variable
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    return int(node.value.value)
    return None


def compute_manifest(root: Path) -> dict[str, object]:
    """Compute the full fingerprint manifest for the tree under ``root``."""
    versions: dict[str, int] = {}
    for variable in sorted(SCHEMA_FILES):
        version = schema_version(root, variable)
        if version is None:
            raise FileNotFoundError(
                f"{variable} not found under {root} (expected in {SCHEMA_FILES[variable]})"
            )
        versions[variable] = version
    regions: dict[str, str] = {}
    for region in REGIONS:
        source = (root / region.file).read_text(encoding="utf-8")
        digest = region_fingerprint(source, region.name)
        if digest is None:
            raise LookupError(f"fingerprinted region {region.key} not found under {root}")
        regions[region.key] = digest
    return {
        "version": MANIFEST_VERSION,
        "schema_versions": versions,
        "regions": dict(sorted(regions.items())),
    }


def load_manifest(path: Path = DEFAULT_MANIFEST_PATH) -> dict[str, object]:
    with path.open(encoding="utf-8") as handle:
        manifest: dict[str, object] = json.load(handle)
    return manifest


def write_manifest(root: Path, path: Path = DEFAULT_MANIFEST_PATH) -> dict[str, object]:
    """Re-bless the manifest from the current tree and write it to disk."""
    manifest = compute_manifest(root)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return manifest


def check_fingerprints(
    root: Path, manifest: dict[str, object] | None = None
) -> tuple[list[Finding], list[str]]:
    """Diff the tree under ``root`` against the blessed manifest.

    Returns ``(findings, notices)``: findings are ``FPR001`` contract
    violations (region changed, governing schema version not bumped);
    notices report allowed-but-notable states (version bumped, manifest
    awaiting ``--update-fingerprints``).
    """
    if manifest is None:
        manifest = load_manifest()
    recorded_versions = manifest.get("schema_versions")
    recorded_regions = manifest.get("regions")
    if not isinstance(recorded_versions, dict) or not isinstance(recorded_regions, dict):
        raise ValueError("malformed fingerprint manifest")

    findings: list[Finding] = []
    notices: list[str] = []
    current_versions: dict[str, int | None] = {
        variable: schema_version(root, variable) for variable in SCHEMA_FILES
    }

    for region in REGIONS:
        path = root / region.file
        if not path.is_file():
            notices.append(f"fingerprint skip: {region.file} not present under {root}")
            continue
        current_version = current_versions[region.schema]
        recorded_version = recorded_versions.get(region.schema)
        bumped = current_version is not None and current_version != recorded_version
        source = path.read_text(encoding="utf-8")
        try:
            current = region_fingerprint(source, region.name)
        except SyntaxError:
            notices.append(f"fingerprint skip: {region.file} does not parse")
            continue
        recorded = recorded_regions.get(region.key)
        if current == recorded:
            continue
        if bumped:
            notices.append(
                f"{region.key} changed under a {region.schema} bump "
                f"({recorded_version} -> {current_version}); run "
                "--update-fingerprints to re-bless the manifest"
            )
            continue
        lineno = _region_lineno(source, region.name)
        if current is None:
            detail = "was removed or renamed"
        else:
            detail = "changed"
        findings.append(
            Finding(
                rule_id="FPR001",
                path=region.file,
                line=lineno,
                message=(
                    f"fingerprinted region {region.name} {detail} without a "
                    f"{region.schema} bump; {region.invariant}"
                ),
                invariant=region.invariant,
            )
        )
    return findings, notices


def _region_lineno(source: str, qualname: str) -> int:
    node = _find_region_node(ast.parse(source), qualname)
    lineno = getattr(node, "lineno", 1) if node is not None else 1
    return int(lineno)
