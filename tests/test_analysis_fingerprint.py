"""Schema-fingerprint guard tests: mutation without a bump fails, bump passes."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.fingerprint import (
    REGIONS,
    SCHEMA_FILES,
    check_fingerprints,
    compute_manifest,
    load_manifest,
    region_fingerprint,
    schema_version,
    write_manifest,
)

SRC_ROOT = Path(__file__).parents[1] / "src"

KERNEL_FILE = "repro/noise/program.py"
CACHE_FILE = "repro/core/compile_cache.py"
SWEEP_FILE = "repro/experiments/sweep.py"
SHARD_FILE = "repro/experiments/scheduler.py"
FASTPATH_FILE = "repro/noise/fastpath.py"
PROVIDERS_FILE = "repro/artifacts/providers.py"
STATES_FILE = "repro/qudit/states.py"

#: The first lines of ``apply_kernel``'s body (a mutation lands in that region).
KERNEL_ANCHOR = '    if kernel.kind == "diag":\n        if kernel.phase is None:\n'


@pytest.fixture
def tree(tmp_path: Path) -> Path:
    """A minimal copy of every fingerprinted file, plus its blessed manifest."""
    root = tmp_path / "srccopy"
    for rel in {region.file for region in REGIONS} | set(SCHEMA_FILES.values()):
        destination = root / rel
        destination.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(SRC_ROOT / rel, destination)
    return root


def edit(root: Path, rel: str, old: str, new: str) -> None:
    path = root / rel
    source = path.read_text(encoding="utf-8")
    assert source.count(old) >= 1, f"anchor not found in {rel}: {old!r}"
    path.write_text(source.replace(old, new, 1), encoding="utf-8")


def test_pristine_tree_is_clean(tree: Path) -> None:
    manifest = compute_manifest(tree)
    findings, notices = check_fingerprints(tree, manifest)
    assert findings == []
    assert notices == []


def test_comment_and_docstring_edits_do_not_trip(tree: Path) -> None:
    manifest = compute_manifest(tree)
    path = tree / KERNEL_FILE
    path.write_text(path.read_text(encoding="utf-8") + "\n# trailing comment\n", encoding="utf-8")
    edit(
        tree,
        KERNEL_FILE,
        "Apply a classified unitary to one flat statevector.",
        "Docstring edited in place.",
    )
    findings, notices = check_fingerprints(tree, manifest)
    assert findings == []
    assert notices == []


def test_kernel_mutation_without_bump_fails(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(
        tree,
        KERNEL_FILE,
        KERNEL_ANCHOR,
        "    state = +state\n" + KERNEL_ANCHOR,
    )
    findings, _ = check_fingerprints(tree, manifest)
    assert len(findings) == 1
    finding = findings[0]
    assert finding.rule_id == "FPR001"
    assert finding.path == KERNEL_FILE
    assert "apply_kernel" in finding.message
    assert "CACHE_SCHEMA_VERSION" in finding.message
    assert "stale bits" in finding.message


def test_kernel_mutation_with_bump_passes(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(
        tree,
        KERNEL_FILE,
        KERNEL_ANCHOR,
        "    state = +state\n" + KERNEL_ANCHOR,
    )
    version = schema_version(tree, "CACHE_SCHEMA_VERSION")
    assert version is not None
    edit(
        tree,
        CACHE_FILE,
        f"CACHE_SCHEMA_VERSION = {version}",
        f"CACHE_SCHEMA_VERSION = {version + 1}",
    )
    findings, notices = check_fingerprints(tree, manifest)
    assert findings == []
    assert any("apply_kernel" in notice and "re-bless" in notice for notice in notices)


def test_point_key_mutation_without_shard_bump_fails(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(tree, SWEEP_FILE, 'kwargs = ";".join(', 'kwargs = ",".join(')
    findings, _ = check_fingerprints(tree, manifest)
    assert [f.path for f in findings] == [SWEEP_FILE]
    assert "point_key" in findings[0].message
    assert "SHARD_SCHEMA_VERSION" in findings[0].message


def test_point_key_mutation_with_shard_bump_passes(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(tree, SWEEP_FILE, 'kwargs = ";".join(', 'kwargs = ",".join(')
    version = schema_version(tree, "SHARD_SCHEMA_VERSION")
    assert version is not None
    edit(
        tree,
        SHARD_FILE,
        f"SHARD_SCHEMA_VERSION = {version}",
        f"SHARD_SCHEMA_VERSION = {version + 1}",
    )
    findings, notices = check_fingerprints(tree, manifest)
    assert findings == []
    assert notices


def test_replay_region_is_guarded(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(
        tree,
        FASTPATH_FILE,
        "    bit_generator.state = stream.bit_generator.state\n",
        "    bit_generator.state = dict(stream.bit_generator.state)\n",
    )
    findings, _ = check_fingerprints(tree, manifest)
    assert len(findings) == 1
    assert "_clone_generator" in findings[0].message
    assert "CACHE_SCHEMA_VERSION" in findings[0].message
    assert "draw schedule" in findings[0].message


def test_program_layout_regions_are_guarded(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(tree, KERNEL_FILE, "if gather_budget[0] > 0:", "if gather_budget[0] > 1:")
    edit(
        tree,
        KERNEL_FILE,
        "phase = flat if phase is None else phase * flat",
        "phase = flat if phase is None else flat * phase",
    )
    edit(
        tree,
        KERNEL_FILE,
        "gather_budget = [_MAX_GATHER_ENTRIES]",
        "gather_budget = [_MAX_GATHER_ENTRIES + 1]",
    )
    findings, _ = check_fingerprints(tree, manifest)
    assert len(findings) == 3
    messages = sorted(f.message for f in findings)
    for name, message in zip(["_Fuser._build", "_classify", "compile_program"], messages):
        assert name in message
        assert "CACHE_SCHEMA_VERSION" in message
        assert "programs of the old layout" in message


def test_persisted_result_regions_are_guarded(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(tree, PROVIDERS_FILE, '"point-result",', '"point-result-v2",')
    edit(tree, STATES_FILE, "def fidelity(", "def fidelity(*_unused, ")
    findings, _ = check_fingerprints(tree, manifest)
    assert sorted(f.path for f in findings) == sorted([PROVIDERS_FILE, STATES_FILE])
    assert all("persisted point results" in f.message for f in findings)
    assert all("CACHE_SCHEMA_VERSION" in f.message for f in findings)


def test_removed_region_without_bump_fails(tree: Path) -> None:
    manifest = compute_manifest(tree)
    edit(tree, SWEEP_FILE, "def point_key(", "def point_key_renamed(")
    findings, _ = check_fingerprints(tree, manifest)
    assert len(findings) == 1
    assert "removed or renamed" in findings[0].message


def test_region_fingerprint_ignores_formatting() -> None:
    a = "def f(x):\n    return (x + 1)\n"
    b = "def f(x):\n    # comment\n    return x + 1\n"
    c = "def f(x):\n    return x + 2\n"
    assert region_fingerprint(a, "f") == region_fingerprint(b, "f")
    assert region_fingerprint(a, "f") != region_fingerprint(c, "f")
    assert region_fingerprint(a, "missing") is None


def test_blessed_manifest_matches_real_tree() -> None:
    """The committed fingerprints.json must be in sync with src/."""
    manifest = load_manifest()
    assert manifest == compute_manifest(SRC_ROOT)
    findings, notices = check_fingerprints(SRC_ROOT, manifest)
    assert findings == []
    assert notices == []


def test_write_manifest_round_trip(tree: Path, tmp_path: Path) -> None:
    target = tmp_path / "manifest.json"
    written = write_manifest(tree, target)
    assert load_manifest(target) == written
    assert written == compute_manifest(tree)
