"""Compare saved benchmark records of a parent commit and a change.

Usage, from the repository root, with files written by ``run.py --save``::

    python3 perfbench/report.py --parent p1.json p2.json --change c1.json c2.json

Each side's value of a metric is the median over its records of the same
workload.  The layout follows a per-circuit scoreboard: one block per
workload, one line per metric with the parent, the change and the ratio
change / parent, written ``(xR)`` (base: the parent).  Traced records add "where the time
went": each layer's self time and the share of traced ``wall_s`` it takes,
ending with the remainder no span covers.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from collections import defaultdict
from pathlib import Path

#: Which end-to-end metric, on which workload, each per-layer metric should
#: move (keyed by metric-name prefix; the first match applies).
EXPECTED_EFFECT = (
    ("workloads.", "eps-large wall_s"),
    ("core.pipeline.", "eps-large wall_s; fig7-cold should not see it"),
    ("core.metrics.", "eps-large wall_s"),
    ("core.compile_cache.", "fig9a-warm wall_s and setup_s"),
    ("core.storage.write", "fig9a-warm setup_s and cache_disk_mb"),
    ("core.storage.bytes_written", "fig9a-warm setup_s and cache_disk_mb"),
    ("core.storage.", "fig9a-warm wall_s (reads) and setup_s (writes)"),
    ("artifacts.graph.", "fig9a-warm wall_s"),
    ("experiments.sweep.", "fig7-cold wall_s (the tail is the 4^9 points)"),
    (
        "noise.program.kernel.",
        "fig7-cold wall_s and traj_per_s; adaptive-sens a little; eps-large not at all",
    ),
    ("noise.program.", "fig7-cold wall_s"),
    ("noise.batched.", "adaptive-sens wall_s"),
    ("noise.fastpath.", "fig7-cold wall_s and peak_rss_mb; fig9a-warm wall_s"),
    ("noise.adaptive.", "adaptive-sens traj_per_s"),
    ("qudit.", "adaptive-sens wall_s"),
    ("self.", "where the time went (traced wall_s)"),
    ("trace.", "tracing overhead (traced minus untraced wall_s)"),
    ("traj_per_s", "simulating workloads' throughput"),
    ("cache_disk_mb", "fig9a-warm disk footprint"),
    ("check.", "fig9a-warm rows that are not bit-identical to the cold rows"),
)


def expected_effect(name: str) -> str:
    return next((effect for prefix, effect in EXPECTED_EFFECT if name.startswith(prefix)), "")


def load(paths: list[Path]) -> dict[tuple[str, int], dict[str, list[float]]]:
    """Values per (workload, trace) and metric, across every record given."""
    values: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        for record in json.loads(path.read_text()):
            group = values[(record["workload"], record["trace"])]
            for name, metric in record["metrics"].items():
                group[name].append(metric["value"])
            for name in ("traj_per_s", "cache_disk_mb"):
                if name in record["extra"]:
                    group[name].append(record["extra"][name])
    return values


def ratio(parent: float, change: float) -> str:
    return f"{change / parent:.2f}" if parent and not math.isnan(parent) else "n/a"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, nargs="+", required=True)
    parser.add_argument("--change", type=Path, nargs="+", required=True)
    args = parser.parse_args(argv)
    parent, change = load(args.parent), load(args.change)

    for group in sorted(set(parent) | set(change)):
        workload, trace = group
        before, after = parent.get(group, {}), change.get(group, {})
        print(f"Workload: {workload}{' (traced)' if trace else ''}")
        old = {name: statistics.median(v) for name, v in before.items()}
        new = {name: statistics.median(v) for name, v in after.items()}
        for name in {**old, **new}:
            a, b = old.get(name, math.nan), new.get(name, math.nan)
            note = f"  [{expected_effect(name)}]" if trace else ""
            print(f"{name} - parent: {a:.6g}, change: {b:.6g} (x{ratio(a, b)}){note}")
        if trace:
            print("Where the time went (self time; share of the change's traced wall_s):")
            wall = new.get("trace.wall_s", math.nan)
            layers = [n for n in {**old, **new} if n.startswith("self.")]
            for name in sorted(layers, key=lambda n: -new.get(n, 0.0)):
                a, b = old.get(name, math.nan), new.get(name, math.nan)
                if a or b:
                    layer = name[len("self.") : -len("_s")]
                    print(f"  {layer:<24} parent {a:9.4f} s  change {b:9.4f} s  {100 * b / wall:5.1f}%")
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
