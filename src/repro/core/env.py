"""Typed registry of every ``REPRO_*`` environment knob.

This module is the *only* place in the codebase allowed to touch
``os.environ`` (enforced statically by rule ``ENV001`` in
:mod:`repro.analysis`).  Every knob the project reads is declared once in
:data:`REGISTRY` with its type, default and documentation; call sites go
through the typed readers below, and the README's configuration table is
asserted against :func:`render_markdown_table` by a drift test
(``tests/test_env_registry.py``), so a knob can never be added without
being documented or documented without existing.

Reading an *unregistered* name raises ``KeyError`` immediately — an
undeclared knob is a bug, not a feature flag.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EnvKnob",
    "REGISTRY",
    "knob",
    "knobs",
    "read_float",
    "read_int",
    "read_raw",
    "render_markdown_table",
]


@dataclass(frozen=True)
class EnvKnob:
    """Declaration of one environment knob.

    ``kind`` is documentation-grade typing (``int`` / ``float`` /
    ``string`` / ``path``) used by the README table; the typed readers are
    what actually parse values.  ``default`` is the human-readable default
    shown in the table, not necessarily a parseable literal (several knobs
    have computed defaults such as "auto").
    """

    name: str
    kind: str
    default: str
    description: str


REGISTRY: tuple[EnvKnob, ...] = (
    EnvKnob(
        name="REPRO_CACHE_DIR",
        kind="path",
        default="unset (in-memory cache only)",
        description="Shared on-disk artifact cache directory (compilations, graph nodes, point results).",
    ),
    EnvKnob(
        name="REPRO_ADAPTIVE_ROUND",
        kind="int",
        default="32",
        description=(
            "Trajectories per round of the adaptive sampling mode; early stopping "
            "is decided only at round boundaries (the determinism granularity)."
        ),
    ),
    EnvKnob(
        name="REPRO_ADAPTIVE_MAX_TRAJ",
        kind="int",
        default="4096",
        description=(
            "Hard trajectory cap for adaptive points that do not set an explicit "
            "integer budget (`num_trajectories=\"auto\"`)."
        ),
    ),
    EnvKnob(
        name="REPRO_ADAPTIVE_SPEEDUP_GATE",
        kind="float",
        default="2.0",
        description=(
            "Minimum adaptive-vs-fixed-count speedup to equal stderr the benchmark "
            "gate asserts (0 = report only)."
        ),
    ),
    EnvKnob(
        name="REPRO_SPEEDUP_GATE",
        kind="float",
        default="4.0",
        description="Minimum speedup of the batched sweep over the seed-style pipeline the Fig. 7 benchmark gate asserts (0 = report only).",
    ),
    EnvKnob(
        name="REPRO_PARALLEL_SPEEDUP_GATE",
        kind="float",
        default="2.0",
        description="Minimum multi-worker speedup the benchmark gate asserts (0 = report only).",
    ),
    EnvKnob(
        name="REPRO_BENCH_DIR",
        kind="path",
        default="unset (no artifacts)",
        description="Directory the benchmarks write their `BENCH_*.json` / CSV artifacts into.",
    ),
    EnvKnob(
        name="REPRO_LEASE_TTL",
        kind="float",
        default="30",
        description=(
            "Lease time-to-live in seconds for the work-stealing sweep coordinator; "
            "leases past their deadline are reclaimed and re-leased."
        ),
    ),
    EnvKnob(
        name="REPRO_FAULT_PLAN",
        kind="string",
        default="unset (no fault injection)",
        description=(
            "Deterministic fault plan for the durable-storage layer: inline JSON "
            "or a path to a JSON plan file (see `repro.faults`)."
        ),
    ),
    EnvKnob(
        name="REPRO_RETRY_MAX",
        kind="int",
        default="3",
        description="Maximum attempts for transient durable-I/O failures (EIO class) before giving up.",
    ),
    EnvKnob(
        name="REPRO_RETRY_BASE_S",
        kind="float",
        default="0.01",
        description=(
            "Base backoff delay in seconds for durable-I/O retries; "
            "attempt n sleeps `base * 2**n`."
        ),
    ),
)

_BY_NAME: dict[str, EnvKnob] = {entry.name: entry for entry in REGISTRY}


def knobs() -> tuple[EnvKnob, ...]:
    """Return every registered knob, in registry (documentation) order."""
    return REGISTRY


def knob(name: str) -> EnvKnob:
    """Return the declaration for ``name``; raise ``KeyError`` if unknown."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"{name!r} is not a registered REPRO_* knob; declare it in "
            "repro.core.env.REGISTRY before reading it"
        ) from None


def read_raw(name: str) -> str | None:
    """Return the raw environment value of a *registered* knob, or ``None``.

    This mirrors ``os.environ.get`` exactly (empty strings pass through) so
    call sites keep their historical fallback semantics, e.g.
    ``read_raw("REPRO_CACHE_DIR") or None``.
    """
    knob(name)
    return os.environ.get(name)


def read_int(name: str) -> int | None:
    """Parse an integer knob; unset or blank returns ``None``.

    Malformed values raise ``ValueError`` (from ``int``) — a typo must fail
    loudly rather than silently fall back to a default.
    """
    raw = read_raw(name)
    if raw is None or not raw.strip():
        return None
    return int(raw)


def read_float(name: str) -> float | None:
    """Parse a float knob; unset or blank returns ``None``.

    Like :func:`read_int`, malformed values raise ``ValueError``.
    """
    raw = read_raw(name)
    if raw is None or not raw.strip():
        return None
    return float(raw)


def render_markdown_table() -> str:
    """Render the registry as the README's configuration table."""
    lines = [
        "| Knob | Type | Default | Description |",
        "| --- | --- | --- | --- |",
    ]
    for entry in REGISTRY:
        lines.append(f"| `{entry.name}` | {entry.kind} | {entry.default} | {entry.description} |")
    return "\n".join(lines)


if __name__ == "__main__":
    print(render_markdown_table())
