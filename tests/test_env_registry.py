"""Typed env-knob registry tests + README/source drift guards."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.core import env

REPO_ROOT = Path(__file__).parents[1]

KNOB_TOKEN = re.compile(r"\bREPRO_[A-Z][A-Z0-9_]*\b")


def test_registry_is_unique_and_well_formed() -> None:
    names = [knob.name for knob in env.knobs()]
    assert len(names) == len(set(names))
    for knob in env.knobs():
        assert knob.name.startswith("REPRO_")
        assert knob.kind in ("int", "float", "string", "path")
        assert knob.description
        assert knob.default


def test_unregistered_knob_is_rejected() -> None:
    with pytest.raises(KeyError, match="not a registered"):
        env.read_raw("REPRO_NOT_A_KNOB")
    with pytest.raises(KeyError):
        env.knob("PATH")


#: Knobs of the deleted no-jump record store, fixed-count fast path and
#: sweep-service front.
REMOVED_KNOBS = (
    "REPRO_NO_FASTPATH",
    "REPRO_FASTPATH_STRIDE",
    "REPRO_FASTPATH_MEMORY_MB",
    "REPRO_FASTPATH_MIN_TRAJ",
    "REPRO_FASTPATH_SPEEDUP_GATE",
    "REPRO_SERVE_POLL_S",
)


@pytest.mark.parametrize("name", REMOVED_KNOBS)
def test_removed_knob_is_rejected(monkeypatch: pytest.MonkeyPatch, name: str) -> None:
    monkeypatch.setenv(name, "1")
    with pytest.raises(KeyError, match="not a registered"):
        env.read_raw(name)
    assert name not in env.render_markdown_table()


def test_read_raw_mirrors_environ(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert env.read_raw("REPRO_BACKEND") is None
    monkeypatch.setenv("REPRO_BACKEND", "")
    assert env.read_raw("REPRO_BACKEND") == ""
    monkeypatch.setenv("REPRO_BACKEND", "torch")
    assert env.read_raw("REPRO_BACKEND") == "torch"


def test_read_int(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv("REPRO_ADAPTIVE_ROUND", raising=False)
    assert env.read_int("REPRO_ADAPTIVE_ROUND") is None
    monkeypatch.setenv("REPRO_ADAPTIVE_ROUND", "  ")
    assert env.read_int("REPRO_ADAPTIVE_ROUND") is None
    monkeypatch.setenv("REPRO_ADAPTIVE_ROUND", "7")
    assert env.read_int("REPRO_ADAPTIVE_ROUND") == 7
    monkeypatch.setenv("REPRO_ADAPTIVE_ROUND", "seven")
    with pytest.raises(ValueError):
        env.read_int("REPRO_ADAPTIVE_ROUND")


def test_read_float(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv("REPRO_SPEEDUP_GATE", raising=False)
    assert env.read_float("REPRO_SPEEDUP_GATE") is None
    monkeypatch.setenv("REPRO_SPEEDUP_GATE", "2.5")
    assert env.read_float("REPRO_SPEEDUP_GATE") == 2.5
    monkeypatch.setenv("REPRO_SPEEDUP_GATE", "fast")
    with pytest.raises(ValueError):
        env.read_float("REPRO_SPEEDUP_GATE")


def test_readme_table_matches_registry() -> None:
    """The README configuration table is generated from the registry."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    start = "<!-- env-table-start -->"
    end = "<!-- env-table-end -->"
    assert start in readme and end in readme, "README must carry the env-table markers"
    block = readme.split(start, 1)[1].split(end, 1)[0].strip()
    assert block == env.render_markdown_table(), (
        "README configuration table is out of date; regenerate it with "
        "`PYTHONPATH=src python -m repro.core.env`"
    )


def test_every_knob_in_code_is_registered() -> None:
    """Every REPRO_* token in src/ and benchmarks/ is a declared knob."""
    registered = {knob.name for knob in env.knobs()}
    found: dict[str, set[str]] = {}
    for directory in ("src", "benchmarks"):
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for token in KNOB_TOKEN.findall(path.read_text(encoding="utf-8")):
                found.setdefault(token, set()).add(str(path.relative_to(REPO_ROOT)))
    unregistered = {token: files for token, files in found.items() if token not in registered}
    assert not unregistered, f"undeclared knobs referenced: {unregistered}"
    unreferenced = registered - set(found)
    assert not unreferenced, f"registered knobs never used: {unreferenced}"
