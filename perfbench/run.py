"""Benchmark of the Quantum Waltz reproduction: four workloads, one per run.

Run from the repository root::

    python3 perfbench/run.py --workload fig7-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload in turn
    python3 perfbench/run.py ... --save out/fig7-cold.json  # full record for report.py

Workloads (see ``BENCHMARK.json`` for why each exists): ``fig7-cold``,
``fig9a-warm``, ``eps-large`` and ``adaptive-sens``.  Every repetition is a
fresh interpreter (``child.py``) whose environment keeps no ``REPRO_*`` knob
except those the workload sets, working in a fresh scratch directory inside
the checkout that is deleted afterwards.  Every repetition runs the inputs
of ``--seed`` again; repetitions start while another is expected to end
within ``--seconds``, and at least two run.

The last line of standard output is one JSON object with ``correct``,
``attempted`` (grid points evaluated), ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, where ``wall_s`` adds up each unit
of the driver call's work at its fastest across repetitions (see
:func:`fastest_units`) and ``setup_s`` and ``peak_rss_mb`` are medians.  With
``--trace 1`` every repetition runs untraced and then traced, and the
metrics are the per-layer ones, with the tracing overhead (traced minus
untraced wall time).
Without ``src/repro`` in the working directory it exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from spans import tail

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
MIN_SETUP_SAMPLES = 5
MIN_REPETITIONS = 2  # even when one takes more than half the run
WARM_RUNS = 4  # measured calls per populated cache directory
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], env: dict[str, str], out: Path) -> dict:
    """Run one child process to completion and return its result record."""
    env = dict(env, PERFBENCH_T0=repr(time.monotonic()))
    start = time.monotonic()
    process = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args, "--out", str(out)],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    elapsed = time.monotonic() - start
    if process.returncode != 0:
        raise BenchError(f"child {' '.join(args)} exited {process.returncode}:\n{process.stderr}")
    result = json.loads((out / "result.json").read_text())
    result["process_s"] = elapsed
    return result


def directory_mb(path: Path) -> float:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file()) / 2**20


def child_env(workload, scratch: Path) -> dict[str, str]:
    """The caller's environment with only the workload's ``REPRO_*`` knobs,
    confined to ``scratch``.

    BLAS runs single-threaded: every workload is one serial process, and a
    fixed thread count keeps results independent of the machine's core count.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(workload.env, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch), **BLAS_THREADS)
    return env


def repetition(workload, seed: int, scratch: Path, traces: list[int]) -> list[dict]:
    """Measured driver calls on one seed, one fresh process per entry of ``traces``.

    A warm workload first runs the grid cold into a fresh ``REPRO_CACHE_DIR``
    (its set-up); every measured call then repeats it against that directory
    and must reproduce the cold rows.
    """
    rep = scratch / f"seed{seed}"
    env = child_env(workload, scratch)
    args = ["--workload", workload.name, "--seed", str(seed)]
    try:
        populate_s = 0.0
        cold_failures: dict = {}
        if workload.warm:
            env["REPRO_CACHE_DIR"] = str(rep / "cache")
            cold = spawn(args, env, rep / "cold")
            populate_s, cold_failures = cold["process_s"], cold["failures"]
            args += ["--cold-rows", str(rep / "cold" / f"{workload.table}.json")]
        results = [
            spawn([*args, "--trace", str(trace)], env, rep / f"run{i}")
            for i, trace in enumerate(traces)
        ]
        for result in results:
            result.update(seed=seed, failures={**cold_failures, **result["failures"]})
            result["setup_s"] += populate_s
            if workload.warm:
                result["cache_disk_mb"] = directory_mb(rep / "cache")
    finally:
        shutil.rmtree(rep, ignore_errors=True)
    return results


def repeat(seconds: float, measure, at_least: int = 1) -> list:
    """Call ``measure()`` at least ``at_least`` times, then again while half
    a call as fast as the fastest so far fits in ``seconds``, so the run
    ends as close to ``seconds`` as whole calls allow."""
    results: list = []
    calls, fastest = 0, math.inf
    start = time.monotonic()
    while calls < at_least or time.monotonic() - start + fastest / 2 <= seconds:
        begin = time.monotonic()
        results.extend(measure())
        fastest = min(fastest, time.monotonic() - begin)
        calls += 1
    return results


def fastest_units(reps: list[dict]) -> float:
    """A driver call's wall time with every unit of its work at its fastest.

    Every call repeats the same inputs, so each splits into the same units
    (graph-node builds, grid points and the driver's own remainder) in the
    same order.  On a shared host other tenants slowed identical calls by up
    to 50% in phases of seconds to minutes, and never sped one up; the
    fastest run of each unit across the calls is the program's own time.
    Calls whose units do not line up fall back to the fastest whole call.
    """
    logs = [r["units"] for r in reps]
    if any([name for name, _ in log] != [name for name, _ in logs[0]] for log in logs):
        return min(r["wall_s"] for r in reps)
    return sum(min(times) for times in zip(*([s for _, s in log] for log in logs)))


def end_to_end(workload, seed, seconds, scratch) -> tuple[dict, list[dict], dict]:
    runs = [0] * (WARM_RUNS if workload.warm else 1)
    reps = repeat(seconds, lambda: repetition(workload, seed, scratch, runs), MIN_REPETITIONS)
    setups = [r["setup_s"] for r in reps]
    while len(setups) < MIN_SETUP_SAMPLES and not workload.warm:
        probe = ["--workload", workload.name, "--seed", str(seed), "--phase", "setup"]
        out = scratch / f"setup{len(setups)}"
        setups.append(spawn(probe, child_env(workload, scratch), out)["setup_s"])
    walls = [r["wall_s"] for r in reps]
    values = {
        "wall_s": fastest_units(reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    # A run holds too few samples for a percentile with ten beyond it: the
    # tail is the maximum, and the repeated runs give the spread.
    percentile, slowest = tail(walls)
    extra = {
        "samples": {"wall_s": walls, "setup_s": setups},
        "wall_s.fastest_call": min(walls),
        "wall_s.p50": statistics.median(walls),
        f"wall_s.p{percentile:.0f}": slowest,
    }
    if workload.simulates:
        extra["traj_per_s"] = sum(r["trajectories"] for r in reps) / sum(walls)
    if workload.warm:
        extra["cache_disk_mb"] = statistics.median(r["cache_disk_mb"] for r in reps)
        extra["warm_rows_drifted"] = sum(r["warm_drifted"] for r in reps)
    return values, reps, extra


def per_layer(workload, seed, seconds, scratch) -> tuple[dict, list[dict], dict]:
    """Untraced then traced calls on the same inputs: layer metrics and overhead."""
    reps = repeat(seconds, lambda: repetition(workload, seed, scratch, [0, 1]))
    plain, traced = reps[0::2], reps[1::2]
    values = {
        name: statistics.median(t["layers"][name] for t in traced) for name in traced[0]["layers"]
    }
    values["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    values["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)
    )
    values["traj_per_s"] = sum(p["trajectories"] for p in plain) / sum(p["wall_s"] for p in plain)
    values["cache_disk_mb"] = statistics.median(p.get("cache_disk_mb", 0.0) for p in plain)
    values["check.warm_rows_drifted"] = sum(r["warm_drifted"] for r in reps)
    return values, reps, {"samples": {"seeds": len(plain)}}


def git_commit() -> str:
    try:
        process = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return process.stdout.strip() if process.returncode == 0 else "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    workload = workloads.WORKLOADS[name]
    scratch = ROOT / ".perfbench-scratch" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        measure = per_layer if trace else end_to_end
        values, reps, extra = measure(workload, seed, seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    declared = spec["per_layer" if trace else "end_to_end"]
    # Calls on one seed (warm reruns, traced twins) repeat the same rows.
    distinct = {(r["seed"], d[0]): d for r in reps for d in r["deviations"]}
    pooled = check.pooled_failure(list(distinct.values()))
    if pooled is not None:
        for r in reps:
            for key, *_ in r["deviations"]:
                r["failures"].setdefault(key, pooled)
    failures = [f"seed {r['seed']}: {k}: {v}" for r in reps for k, v in r["failures"].items()]
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "correct": not failures,
        "attempted": sum(r["points"] for r in reps),
        "failed": sum(len(r["failures"]) for r in reps),
        "failures": failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
        "extra": extra,
        "environment": {
            "python": platform.python_version(),
            **reps[0]["environment"],
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "seed": seed,
        },
    }


def print_result(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["extra"].items():
        print(f"  {name:<44} {value}")
    for name, value in result["environment"].items():
        print(f"  env.{name:<40} {value}")
    verdict = "PASS" if result["correct"] else "FAIL"
    print(f"  correctness: {verdict} ({result['failed']} of {result['attempted']} points failed)")
    for failure in result["failures"][:10]:
        print(f"    {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the full record(s) here as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: run from the repository root (no src/repro here)", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, spec)
        except (BenchError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: {name}: {error}", file=sys.stderr)
            return 1
        print_result(result)
        results.append(result)
    if args.save is not None:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results, indent=1) + "\n")

    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": results[0]["metrics"]
        if len(results) == 1
        else {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
