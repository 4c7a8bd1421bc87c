"""One benchmark process: set up, call one workload's driver once, check rows.

Started by ``run.py`` in a fresh interpreter for every repetition, with
``PERFBENCH_T0`` holding the monotonic clock at spawn, so set-up time covers
interpreter start-up and imports.  Writes ``result.json`` into ``--out``:

* ``--phase setup`` stops where the driver would be called (a set-up sample),
* ``--phase run`` calls the driver, then records wall time, peak RSS, the
  self time of each unit of the call's work (``spans.install_units``) and
  the correctness failures of the rows it wrote; ``--cold-rows`` additionally
  compares them with a cold run's rows (see ``check.compare_warm``),
* ``--trace 1`` wraps every layer first and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time
from pathlib import Path

import check
import spans
import workloads


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {
        var: os.environ[var]
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        if var in os.environ
    }
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or f"library default ({os.cpu_count()} CPUs)",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-rows", type=Path)
    args = parser.parse_args(argv)

    # Set-up: everything a user's process does before the driver call.
    import repro.artifacts.figures  # noqa: F401
    import repro.experiments.cswap_study  # noqa: F401
    import repro.experiments.fidelity_sweep  # noqa: F401
    import repro.experiments.sensitivity  # noqa: F401
    from repro.experiments.sweep import SweepRunner

    workload = workloads.WORKLOADS[args.workload]
    args.out.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer()
    read_counters = None
    if args.trace:
        read_counters = spans.install(tracer)
    else:
        spans.install_units(tracer)
        tracer.log = []
    rows_path = args.out / f"{workload.table}.json"
    runner = SweepRunner(
        max_workers=1, csv_path=args.out / f"{workload.table}.csv", json_path=rows_path
    )
    result: dict = {"setup_s": time.monotonic() - float(os.environ["PERFBENCH_T0"])}

    if args.phase == "run":
        driver = tracer.wrap(workload.run, "driver")
        start = time.perf_counter()
        driver(args.seed, runner)
        result["wall_s"] = time.perf_counter() - start
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        rows = json.loads(rows_path.read_text())
        failures, deviations = check.check_rows(rows, check.load_reference())
        drifted = 0
        if args.cold_rows is not None:
            warm_failures, drifted = check.compare_warm(rows, json.loads(args.cold_rows.read_text()))
            failures.update(warm_failures)
        result.update(
            points=len(rows),
            trajectories=sum(check.trajectories(row) for row in rows),
            failures=failures,
            deviations=deviations,
            warm_drifted=drifted,
            environment=environment(),
            units=tracer.log,
        )
        if args.trace:
            result["layers"] = spans.layer_metrics(tracer, read_counters())
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
