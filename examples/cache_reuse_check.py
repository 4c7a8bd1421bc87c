"""CI gate: the compilation cache must reuse artifacts across runs.

Runs the Figure 7 mini-sweep twice against one ``$REPRO_CACHE_DIR``.  The
first run cold-compiles every point, simulates it and publishes the
artifacts (compilations, and each point's result in the artifact graph's
per-point result layer); before the second run the in-process LRU front is
dropped, so everything must come back from the *disk* layer.  The check
fails unless the second run reports at least one disk hit, performs zero
recompilations (audited through the cache's ``compile-log.txt``), simulates
zero trajectories, and writes byte-identical CSV output.

Usage::

    PYTHONPATH=src REPRO_CACHE_DIR=/tmp/repro-cache python examples/cache_reuse_check.py
"""

import os
import sys
import tempfile
from pathlib import Path


def main() -> int:
    cache_dir = os.environ.get("REPRO_CACHE_DIR")
    if not cache_dir:
        print("error: REPRO_CACHE_DIR must be set for the cache-reuse check")
        return 2

    from repro.core.compile_cache import get_cache
    from repro.experiments.fidelity_sweep import run_fidelity_sweep
    from repro.experiments.sweep import SweepRunner
    from repro.noise.trajectory import TrajectorySimulator

    simulations = 0
    average_fidelity = TrajectorySimulator.average_fidelity

    def counting_average_fidelity(self, *args, **kwargs):
        nonlocal simulations
        simulations += 1
        return average_fidelity(self, *args, **kwargs)

    TrajectorySimulator.average_fidelity = counting_average_fidelity

    out_dir = Path(tempfile.mkdtemp(prefix="cache-reuse-"))
    first_csv = out_dir / "first.csv"
    second_csv = out_dir / "second.csv"
    grid = dict(workloads=("cnu",), sizes=(5,), num_trajectories=4, rng=0)

    run_fidelity_sweep(**grid, runner=SweepRunner(max_workers=1, csv_path=first_csv))
    cache = get_cache()
    log_path = cache.directory / "compile-log.txt"
    compiles_after_first = len(log_path.read_text().splitlines())
    disk_hits_before = cache.stats.disk_hits

    cache.clear_memory()  # force the second run down to the disk layer
    simulations_before = simulations
    run_fidelity_sweep(**grid, runner=SweepRunner(max_workers=1, csv_path=second_csv))
    second_simulations = simulations - simulations_before

    disk_hits = cache.stats.disk_hits - disk_hits_before
    recompiles = len(log_path.read_text().splitlines()) - compiles_after_first
    identical = first_csv.read_bytes() == second_csv.read_bytes()
    print(
        f"cold compilations: {compiles_after_first}, second-run disk hits: {disk_hits}, "
        f"second-run recompilations: {recompiles}, "
        f"second-run simulations: {second_simulations}, identical CSV: {identical}"
    )

    if disk_hits < 1:
        print("FAIL: the second run never hit the disk cache")
        return 1
    if recompiles > 0:
        print("FAIL: the second run recompiled artifacts that were already cached")
        return 1
    if second_simulations > 0:
        print("FAIL: the second run simulated trajectories instead of replaying results")
        return 1
    if not identical:
        print("FAIL: cached and freshly-compiled sweeps produced different CSV output")
        return 1
    print("OK: compilation artifacts and point results were reused bit-for-bit")
    return 0


if __name__ == "__main__":
    sys.exit(main())
