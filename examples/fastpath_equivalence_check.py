"""CI gate: the no-jump fast path must be bit-for-bit equal to the slow path.

Runs the Figure 7 mini-grid four times against one ``$REPRO_CACHE_DIR``:

1. **fast path, cold** — the default configuration through the figure
   driver: builds the no-jump checkpoint records, publishes them to the
   shared artifact store, and publishes each point's result to the
   artifact graph's per-point result layer,
2. **slow path** — the ``REPRO_NO_FASTPATH=1`` escape hatch, run through
   ``SweepRunner.run`` (which never reads the result layer, so the explicit
   loop/batched evolution really executes, with no records involved),
3. **fast path, record-warm** — ``SweepRunner.run`` again, after the
   in-process record store and cache fronts are dropped, so every record
   must come back from the *disk* layer, the way a resumed shard or a
   direct sweep on a second host would see it,
4. **driver, result-warm** — the figure driver again: every point must be
   served by the result layer, simulating zero trajectories.

The check fails unless all four CSV **and** JSON artifacts are
byte-identical, the slow pass simulated every point, the record-warm pass reports checkpoint-record disk hits,
the result-warm pass simulated no trajectory, and no later pass recompiled
any compilation artifact the first pass had already cached (audited
through the cache's ``compile-log.txt`` — trajectory records and point
results deliberately never appear in that log).

Usage::

    PYTHONPATH=src REPRO_CACHE_DIR=/tmp/repro-cache \
        python examples/fastpath_equivalence_check.py
"""

import os
import sys
import tempfile
from pathlib import Path


def main() -> int:
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("error: REPRO_CACHE_DIR must be set for the fastpath-equivalence check")
        return 2
    os.environ.pop("REPRO_NO_FASTPATH", None)
    # The mini-grid runs 4 trajectories per point — below the default
    # publication threshold — and the warm pass audits disk hits, so the
    # gate must be opened for this check.
    os.environ["REPRO_FASTPATH_MIN_TRAJ"] = "1"

    from repro.core.compile_cache import get_cache
    from repro.experiments.fidelity_sweep import fidelity_sweep_points, run_fidelity_sweep
    from repro.experiments.sweep import SweepRunner
    from repro.noise.fastpath import fastpath_enabled, get_record_store
    from repro.noise.fastpath import stats as fastpath_stats
    from repro.noise.trajectory import TrajectorySimulator

    if not fastpath_enabled():
        print("error: the fast path must be enabled (unset REPRO_NO_FASTPATH)")
        return 2

    out_dir = Path(tempfile.mkdtemp(prefix="fastpath-equivalence-"))
    grid = dict(workloads=("cnu",), sizes=(5,), num_trajectories=4, rng=0)
    points = fidelity_sweep_points(**grid)

    def runner(tag: str) -> SweepRunner:
        return SweepRunner(
            max_workers=1, csv_path=out_dir / f"{tag}.csv", json_path=out_dir / f"{tag}.json"
        )

    def via_driver(tag: str) -> SweepRunner:
        sweep = runner(tag)
        run_fidelity_sweep(**grid, runner=sweep)
        return sweep

    def direct(tag: str) -> SweepRunner:
        sweep = runner(tag)
        sweep.run(points)
        return sweep

    simulations = 0
    average_fidelity = TrajectorySimulator.average_fidelity

    def counting_average_fidelity(self, *args, **kwargs):
        nonlocal simulations
        simulations += 1
        return average_fidelity(self, *args, **kwargs)

    TrajectorySimulator.average_fidelity = counting_average_fidelity

    # Pass 1: fast path, cold — builds checkpoint records and point results.
    fast = via_driver("fastpath")
    cache = get_cache()
    log_path = cache.directory / "compile-log.txt"
    compiles_after_fast = len(log_path.read_text().splitlines())

    # Pass 2: the escape hatch — the explicit slow path.
    os.environ["REPRO_NO_FASTPATH"] = "1"
    simulations_before = simulations
    slow = direct("slow")
    slow_simulations = simulations - simulations_before
    del os.environ["REPRO_NO_FASTPATH"]

    # Pass 3: fast path, record-warm — records must come back from disk.
    get_record_store().clear_memory()
    cache.clear_memory()
    hits_before = fastpath_stats()["record_disk_hits"]
    warm = direct("warm")
    record_hits = fastpath_stats()["record_disk_hits"] - hits_before

    # Pass 4: the driver again — every point must replay its stored result.
    get_record_store().clear_memory()
    cache.clear_memory()
    simulations_before = simulations
    replayed = via_driver("replayed")
    replay_simulations = simulations - simulations_before

    recompiles = len(log_path.read_text().splitlines()) - compiles_after_fast
    passes = (fast, slow, warm, replayed)
    csv_identical = len({sweep.csv_path.read_bytes() for sweep in passes}) == 1
    json_identical = len({sweep.json_path.read_bytes() for sweep in passes}) == 1
    print(
        f"fast-vs-slow-vs-warm-vs-replayed identical CSV: {csv_identical}, identical "
        f"JSON: {json_identical}, slow-pass simulations: {slow_simulations}, "
        f"warm-pass record disk hits: {record_hits}, "
        f"replayed-pass simulations: {replay_simulations}, "
        f"recompilations after pass 1: {recompiles}"
    )

    if not csv_identical or not json_identical:
        print("FAIL: the fast path changed sweep output bytes")
        return 1
    if slow_simulations != len(points):
        print("FAIL: the escape-hatch pass did not simulate every point")
        return 1
    if record_hits < 1:
        print("FAIL: the warm pass never hit the checkpoint-record disk layer")
        return 1
    if replay_simulations > 0:
        print("FAIL: the replayed driver pass simulated trajectories instead of replaying")
        return 1
    if recompiles > 0:
        print("FAIL: a later pass recompiled artifacts the first pass already cached")
        return 1
    print(
        "OK: fast path is byte-identical to the slow path, reuses checkpoint records "
        "and replays point results"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
