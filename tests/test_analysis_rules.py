"""Fixture-based good/bad snippet tests for every lint rule."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import DEFAULT_RULES, analyze_module, analyze_paths
from repro.analysis.engine import ModuleContext

FIXTURES = Path(__file__).parent / "analysis_fixtures"


def run_on(path: Path) -> list:
    return analyze_module(ModuleContext.load(path), DEFAULT_RULES)


def run_source(tmp_path: Path, source: str, name: str = "snippet.py") -> list:
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return run_on(path)


@pytest.mark.parametrize(
    ("fixture", "expected"),
    [
        ("bad_rng.py", {"DET001": 4}),
        ("bad_wallclock.py", {"DET002": 2}),
        ("bad_set_iteration.py", {"DET003": 3}),
        ("bad_pool.py", {"ENG001": 1}),
        ("bad_compile.py", {"ENG002": 2}),
        ("bad_compile_log.py", {"ENG003": 1}),
        ("bad_env.py", {"ENV001": 3}),
        ("bad_lease.py", {"ENG004": 2}),
        ("bad_artifact_write.py", {"ENG005": 2}),
        ("bad_durable_write.py", {"ENG006": 6}),
        ("bad_adaptive.py", {"STAT001": 3}),
        ("bad_suppression.py", {"DET002": 1, "SUP001": 1, "SUP002": 1}),
    ],
)
def test_bad_fixture_findings(fixture: str, expected: dict[str, int]) -> None:
    findings = run_on(FIXTURES / fixture)
    counts: dict[str, int] = {}
    for finding in findings:
        counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
    assert counts == expected


def test_good_fixture_is_clean() -> None:
    assert run_on(FIXTURES / "good_clean.py") == []


def test_fixture_directory_is_nonzero_overall() -> None:
    report = analyze_paths([FIXTURES], DEFAULT_RULES)
    assert not report.ok
    assert report.files_scanned >= 10


def test_every_finding_names_its_invariant() -> None:
    report = analyze_paths([FIXTURES], DEFAULT_RULES)
    assert all(finding.invariant for finding in report.findings)


def test_rng_rule_resolves_import_aliases(tmp_path: Path) -> None:
    flagged = run_source(
        tmp_path,
        "import numpy.random as npr\n\n\ndef draw() -> float:\n    return npr.random()\n",
    )
    assert [f.rule_id for f in flagged] == ["DET001"]


def test_rng_rule_ignores_repro_qudit_random_module(tmp_path: Path) -> None:
    findings = run_source(
        tmp_path,
        "from repro.qudit import random\n\n\n"
        "def sample(rng: object) -> object:\n"
        "    return random.haar_random_state(rng, (4,))\n",
    )
    assert findings == []


def test_rng_rule_allows_seeded_and_method_draws(tmp_path: Path) -> None:
    findings = run_source(
        tmp_path,
        "import numpy as np\n\n\n"
        "def draw(seed: int) -> float:\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return float(rng.random())\n",
    )
    assert findings == []


def test_wall_clock_rule_scoped_to_deterministic_layers(tmp_path: Path) -> None:
    source = "import time\n\n\ndef stamp() -> float:\n    return time.time()\n"
    # Outside repro/ (standalone snippet): in scope, flagged.
    assert [f.rule_id for f in run_source(tmp_path, source)] == ["DET002"]
    # Inside repro/ but outside the deterministic layers: out of scope.
    workloads = tmp_path / "repro" / "workloads"
    workloads.mkdir(parents=True)
    (workloads / "timing.py").write_text(source, encoding="utf-8")
    assert run_on(workloads / "timing.py") == []
    # Inside a deterministic layer: flagged.
    noise = tmp_path / "repro" / "noise"
    noise.mkdir(parents=True)
    (noise / "timing.py").write_text(source, encoding="utf-8")
    assert [f.rule_id for f in run_on(noise / "timing.py")] == ["DET002"]


def test_set_rule_allows_sorted_len_and_membership(tmp_path: Path) -> None:
    findings = run_source(
        tmp_path,
        "def summarize(values: list[int]) -> tuple[int, list[int], bool]:\n"
        "    seen = set(values)\n"
        "    return len(seen), sorted(seen), 3 in seen\n",
    )
    assert findings == []


def test_set_rule_infers_set_names_through_binops(tmp_path: Path) -> None:
    findings = run_source(
        tmp_path,
        "def walk(a: list[int], b: list[int]) -> list[int]:\n"
        "    left = set(a)\n"
        "    merged = left | set(b)\n"
        "    return [x for x in merged]\n",
    )
    assert [f.rule_id for f in findings] == ["DET003"]


def test_pool_rule_exempts_sweep_engine(tmp_path: Path) -> None:
    source = (
        "from concurrent.futures import ProcessPoolExecutor\n\n\n"
        "def go() -> None:\n"
        "    with ProcessPoolExecutor() as pool:\n"
        "        pool.map(abs, [1])\n"
    )
    experiments = tmp_path / "repro" / "experiments"
    experiments.mkdir(parents=True)
    (experiments / "sweep.py").write_text(source, encoding="utf-8")
    assert run_on(experiments / "sweep.py") == []
    (experiments / "rogue.py").write_text(source, encoding="utf-8")
    assert [f.rule_id for f in run_on(experiments / "rogue.py")] == ["ENG001"]


def test_lease_rule_exempts_the_coordinator_module(tmp_path: Path) -> None:
    source = 'SUFFIX = ".lease"\n'
    experiments = tmp_path / "repro" / "experiments"
    experiments.mkdir(parents=True)
    (experiments / "scheduler.py").write_text(source, encoding="utf-8")
    assert run_on(experiments / "scheduler.py") == []
    (experiments / "rogue.py").write_text(source, encoding="utf-8")
    assert [f.rule_id for f in run_on(experiments / "rogue.py")] == ["ENG004"]


def test_artifact_write_rule_exempts_the_sweep_engine(tmp_path: Path) -> None:
    source = (
        "from repro.experiments.sweep import write_csv\n\n\n"
        "def render(rows: list, path: object) -> None:\n"
        "    write_csv(rows, path)\n"
    )
    experiments = tmp_path / "repro" / "experiments"
    experiments.mkdir(parents=True)
    (experiments / "sweep.py").write_text(source, encoding="utf-8")
    assert run_on(experiments / "sweep.py") == []
    (experiments / "rogue.py").write_text(source, encoding="utf-8")
    assert [f.rule_id for f in run_on(experiments / "rogue.py")] == ["ENG005"]


def test_artifact_write_rule_scopes_to_experiment_drivers(tmp_path: Path) -> None:
    # The artifact providers themselves live outside repro/experiments/ and
    # are the sanctioned writer call sites.
    source = (
        "from repro.experiments.sweep import write_json\n\n\n"
        "def render(rows: list, path: object) -> None:\n"
        "    write_json(rows, path)\n"
    )
    artifacts = tmp_path / "repro" / "artifacts"
    artifacts.mkdir(parents=True)
    (artifacts / "providers.py").write_text(source, encoding="utf-8")
    assert run_on(artifacts / "providers.py") == []


def test_durable_write_rule_scopes_to_durable_subsystems(tmp_path: Path) -> None:
    source = (
        "import os\n\n\n"
        "def publish(tmp: object, dst: object) -> None:\n"
        "    os.replace(tmp, dst)\n"
    )
    # The storage layer itself owns the raw primitives.
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (core / "storage.py").write_text(source, encoding="utf-8")
    assert run_on(core / "storage.py") == []
    # The durable subsystems may not touch them.
    (core / "compile_cache.py").write_text(source, encoding="utf-8")
    assert [f.rule_id for f in run_on(core / "compile_cache.py")] == ["ENG006"]
    # Layers outside the durable set (workload builders) stay unscoped.
    workloads = tmp_path / "repro" / "workloads"
    workloads.mkdir(parents=True)
    (workloads / "builder.py").write_text(source, encoding="utf-8")
    assert run_on(workloads / "builder.py") == []


def test_durable_write_rule_allows_reads_and_appends(tmp_path: Path) -> None:
    findings = run_source(
        tmp_path,
        "from pathlib import Path\n\n\n"
        "def audit(path: Path) -> str:\n"
        "    with open(path) as handle:\n"
        "        text = handle.read()\n"
        '    with open(path, "a") as handle:\n'
        '        handle.write("line")\n'
        "    with path.open() as handle:\n"
        "        text += handle.read()\n"
        "    return text\n",
    )
    assert findings == []


def test_durable_write_rule_flags_keyword_mode_and_suppression(tmp_path: Path) -> None:
    flagged = run_source(
        tmp_path,
        "def publish(path: str) -> None:\n"
        '    with open(path, mode="w") as handle:\n'
        '        handle.write("x")\n',
    )
    assert [f.rule_id for f in flagged] == ["ENG006"]
    suppressed = run_source(
        tmp_path,
        "def publish(path: str) -> None:\n"
        '    with open(path, mode="w") as handle:  '
        "# repro-lint: disable=ENG006 -- scratch file below the durable root\n"
        '        handle.write("x")\n',
    )
    assert suppressed == []


def test_env_rule_exempts_registry_module(tmp_path: Path) -> None:
    source = 'import os\n\nVALUE = os.environ.get("REPRO_CACHE_DIR")\n'
    core = tmp_path / "repro" / "core"
    core.mkdir(parents=True)
    (core / "env.py").write_text(source, encoding="utf-8")
    assert run_on(core / "env.py") == []
    (core / "other.py").write_text(source, encoding="utf-8")
    assert [f.rule_id for f in run_on(core / "other.py")] == ["ENV001"]


def test_compile_rule_allows_cached_entry_point(tmp_path: Path) -> None:
    findings = run_source(
        tmp_path,
        "from repro.noise.program import cached_compile_program\n\n\n"
        "def build(physical: object, noise: object) -> object:\n"
        "    return cached_compile_program(physical, noise)\n",
    )
    assert findings == []


def test_real_src_tree_is_clean() -> None:
    src = Path(__file__).parents[1] / "src"
    report = analyze_paths([src], DEFAULT_RULES)
    assert report.ok, "\n".join(f"{f.path}:{f.line}: {f.rule_id} {f.message}" for f in report.findings)
