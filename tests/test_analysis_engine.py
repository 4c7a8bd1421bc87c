"""Engine-level tests: suppressions, reporters, CLI exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.analysis import DEFAULT_RULES, analyze_module, analyze_paths, parse_suppressions
from repro.analysis.engine import ModuleContext
from repro.analysis.reporters import JSON_REPORT_VERSION, render_json, render_text

REPO_ROOT = Path(__file__).parents[1]
FIXTURES = Path(__file__).parent / "analysis_fixtures"

WALLCLOCK = "import time\n\n\ndef stamp() -> float:\n"


def run_source(tmp_path: Path, source: str) -> list:
    path = tmp_path / "snippet.py"
    path.write_text(source, encoding="utf-8")
    return analyze_module(ModuleContext.load(path), DEFAULT_RULES)


# -- suppressions -----------------------------------------------------------


def test_inline_justified_suppression_silences(tmp_path: Path) -> None:
    source = WALLCLOCK + "    return time.time()  # repro-lint: disable=DET002 -- test clock\n"
    assert run_source(tmp_path, source) == []


def test_standalone_suppression_applies_to_next_line(tmp_path: Path) -> None:
    source = WALLCLOCK + "    # repro-lint: disable=DET002 -- test clock\n    return time.time()\n"
    assert run_source(tmp_path, source) == []


def test_unjustified_suppression_does_not_silence(tmp_path: Path) -> None:
    source = WALLCLOCK + "    return time.time()  # repro-lint: disable=DET002\n"
    rule_ids = sorted(f.rule_id for f in run_source(tmp_path, source))
    assert rule_ids == ["DET002", "SUP001"]


def test_stale_suppression_is_reported(tmp_path: Path) -> None:
    source = "VALUE = 1  # repro-lint: disable=DET001 -- nothing random here\n"
    rule_ids = [f.rule_id for f in run_source(tmp_path, source)]
    assert rule_ids == ["SUP002"]


def test_multi_rule_suppression(tmp_path: Path) -> None:
    source = (
        "import time\nimport os\n\n\ndef both() -> float:\n"
        "    # repro-lint: disable=DET002,ENV001 -- exercising multi-rule disable\n"
        '    return time.time() if os.environ.get("REPRO_CACHE_DIR") else 0.0\n'
    )
    assert run_source(tmp_path, source) == []


def test_suppression_syntax_in_docstring_is_not_a_suppression() -> None:
    source = '"""Example: # repro-lint: disable=DET002 -- doc only."""\nVALUE = 1\n'
    assert parse_suppressions(source) == []


def test_parse_suppressions_positions() -> None:
    source = (
        "x = 1  # repro-lint: disable=DET001 -- inline\n"
        "# repro-lint: disable=DET002 -- standalone\n"
        "y = 2\n"
    )
    inline, standalone = parse_suppressions(source)
    assert (inline.line, inline.target, inline.rule_ids) == (1, 1, ("DET001",))
    assert (standalone.line, standalone.target, standalone.rule_ids) == (2, 3, ("DET002",))
    assert inline.justification == "inline"


# -- reporters --------------------------------------------------------------


def test_json_reporter_schema() -> None:
    report = analyze_paths([FIXTURES], DEFAULT_RULES)
    document = json.loads(render_json(report))
    assert set(document) == {
        "version",
        "ok",
        "files_scanned",
        "finding_count",
        "findings",
        "notices",
    }
    assert document["version"] == JSON_REPORT_VERSION
    assert document["ok"] is False
    assert document["finding_count"] == len(document["findings"])
    for finding in document["findings"]:
        assert set(finding) == {"rule_id", "path", "line", "message", "invariant"}
        assert isinstance(finding["line"], int)
    paths = [f["path"] for f in document["findings"]]
    assert paths == sorted(paths)


def test_text_reporter_mentions_counts() -> None:
    report = analyze_paths([FIXTURES / "good_clean.py"], DEFAULT_RULES)
    assert render_text(report) == "OK: no findings in 1 files"


def test_syntax_error_becomes_parse_finding(tmp_path: Path) -> None:
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    report = analyze_paths([bad], DEFAULT_RULES)
    assert [f.rule_id for f in report.findings] == ["PARSE001"]


# -- CLI --------------------------------------------------------------------


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )


def test_cli_clean_on_src_tree() -> None:
    result = run_cli("src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK: no findings" in result.stdout


def test_cli_nonzero_on_bad_fixtures() -> None:
    result = run_cli("tests/analysis_fixtures")
    assert result.returncode == 1
    assert "DET001" in result.stdout


def test_cli_json_output() -> None:
    result = run_cli("tests/analysis_fixtures", "--format", "json")
    assert result.returncode == 1
    document = json.loads(result.stdout)
    assert document["ok"] is False


def test_cli_list_rules() -> None:
    result = run_cli("--list-rules")
    assert result.returncode == 0
    for rule_id in ("DET001", "DET002", "DET003", "ENG001", "ENG002", "ENG003", "ENV001"):
        assert rule_id in result.stdout
