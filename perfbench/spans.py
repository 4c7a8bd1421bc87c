"""Span tracing for the benchmark's traced run, applied from outside ``src/``.

The program under test carries no spans of its own, so the traced run wraps
each layer's public functions where the program looks them up: a function is
replaced in *every* ``repro`` module that binds it by name (``from x import
f`` copies the binding, so ``apply_kernel_batch`` is wrapped in both
``repro.noise.batched`` and ``repro.noise.fastpath``), and methods are
replaced on their class.  Spans nest on one stack; a span's self time is its
duration minus the time of the spans it encloses, so the self times of all
spans plus the driver span's own remainder add up to the traced wall time.

Counters come from the layers' own statistics (``CacheStats``,
``StorageStats``, ``GraphStats``, ``repro.noise.fastpath.stats()``) and from
values the wrappers read off arguments and results (bytes moved by a
kernel, ops emitted by the emit pass, adaptive round counts).
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Kernel kinds of ``repro.noise.program`` (see its ``_Kernel.kind``).
KERNEL_KINDS = ("diag", "perm", "monomial", "fused", "single", "generic")

#: Span groups of the "where the time went" table, by span-name prefix.
#: Each span's self time lands in the first group whose prefix matches;
#: "unattributed" is the part of the timed driver call no span covers.
LAYER_GROUPS = (
    ("workloads", "workloads."),
    ("core.pipeline", "core.pipeline."),
    ("core.metrics", "core.metrics."),
    ("core.compile_cache", "core.compile_cache."),
    ("core.storage", "core.storage."),
    ("artifacts.graph", "artifacts.graph"),
    ("artifacts.providers", "artifacts.provider."),
    ("experiments.sweep", "experiments.sweep."),
    ("noise.program.compile", "noise.program.compile"),
    ("noise.program.kernels", "noise.program.kernel."),
    ("noise.batched", "noise.batched"),
    ("noise.fastpath", "noise.fastpath."),
    ("noise.adaptive", "noise.adaptive"),
    ("qudit.states", "qudit.states."),
    ("qudit.random", "qudit.random."),
    ("unattributed", "driver"),
)


class Tracer:
    """In-memory span and counter store for one benchmark process."""

    def __init__(self) -> None:
        self._open: list[list[float]] = []  # child time of each open span
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        #: ``(span, self time)`` of every call in order, when a list.
        self.log: list[tuple[str, float]] | None = None

    def wrap(
        self,
        function: Callable,
        name: str | Callable[[tuple, dict], str],
        on_exit: Callable[[Any, tuple, dict], None] | None = None,
        keep_samples: bool = False,
    ) -> Callable:
        """Return ``function`` timed as a span (``name`` may derive from the args)."""
        tracer = self

        def traced(*args, **kwargs):
            span = name(args, kwargs) if callable(name) else name
            children = [0.0]
            tracer._open.append(children)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._open.pop()
                if tracer._open:
                    tracer._open[-1][0] += elapsed
                tracer.inclusive[span] += elapsed
                tracer.self_time[span] += elapsed - children[0]
                tracer.calls[span] += 1
                if keep_samples:
                    tracer.samples[span].append(elapsed)
                if tracer.log is not None:
                    tracer.log.append((span, elapsed - children[0]))
            if on_exit is not None:
                on_exit(result, args, kwargs)
            return result

        traced.__wrapped__ = function
        return traced

    def patch_function(self, module: str, attr: str, name, on_exit=None, keep_samples=False):
        """Wrap ``module.attr`` in every loaded ``repro`` module that binds it."""
        original = getattr(sys.modules[module], attr)
        traced = self.wrap(original, name, on_exit, keep_samples)
        for module_name, loaded in list(sys.modules.items()):
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            # vars(): a module-level __getattr__ (lazy re-exports) must not fire.
            if vars(loaded).get(attr) is original:
                setattr(loaded, attr, traced)

    def patch_method(self, cls: type, attr: str, name, on_exit=None):
        setattr(cls, attr, self.wrap(vars(cls)[attr], name, on_exit))

    def layer_self_times(self) -> dict[str, float]:
        """Self time per layer group of :data:`LAYER_GROUPS`."""
        totals = {layer: 0.0 for layer, _ in LAYER_GROUPS}
        for span, seconds in self.self_time.items():
            for layer, prefix in LAYER_GROUPS:
                if span.startswith(prefix):
                    totals[layer] += seconds
                    break
        return totals


def _kernel_span(args: tuple, kwargs: dict) -> str:
    kernel = args[1] if len(args) > 1 else kwargs["kernel"]
    return f"noise.program.kernel.{kernel.kind}"


def install_units(tracer: Tracer) -> None:
    """Wrap the units a driver call's work splits into: every artifact-graph
    node's build and every grid point's evaluation (a few hundred spans)."""
    from repro.artifacts import providers

    for cls in vars(providers).values():
        if isinstance(cls, type) and issubclass(cls, providers.Provider) and "build" in vars(cls):
            tracer.patch_method(cls, "build", f"artifacts.provider.{cls.name}")
    tracer.patch_function(
        "repro.experiments.sweep", "evaluate_point", "experiments.sweep.point", keep_samples=True
    )


def install(tracer: Tracer) -> Callable[[], dict[str, float]]:
    """Wrap every traced layer; return a callable reading the layer counters."""
    import repro.backends.numpy_backend  # noqa: F401  (binds apply_unitary)
    import repro.noise.adaptive  # noqa: F401  (imported lazily by the program)
    import repro.noise.fastpath as fastpath
    from repro.artifacts.graph import Graph
    from repro.core import compile_cache, pipeline, storage
    from repro.noise.batched import BatchedTrajectoryEngine
    from repro.noise.program import IdleStep

    counts = tracer.counts
    graphs: dict[int, Any] = {}  # holding each graph keeps its id unique

    def kernel_bytes(result, args, kwargs):
        states, kernel = args[0], (args[1] if len(args) > 1 else kwargs["kernel"])
        # Amplitudes read plus written; an identity diag kernel touches none
        # on the batched path.
        moved = 0 if kernel.kind == "diag" and kernel.phase is None else 2 * states.nbytes
        if kernel.index is not None:
            moved += kernel.index.nbytes
        counts[f"noise.program.kernel.{kernel.kind}.bytes"] += moved

    def emitted_ops(result, args, kwargs):
        counts["core.pipeline.ops_out"] += len(args[1].physical)

    def program_steps(program, args, kwargs):
        counts["noise.program.steps"] += len(program.steps)
        counts["noise.program.idle_steps"] += sum(
            1 for step in program.steps if isinstance(step, IdleStep)
        )

    def adaptive_result(result, args, kwargs):
        counts["noise.adaptive.n_used"] += result.n_used
        counts["noise.adaptive.n_deviating"] += result.n_deviating
        counts["noise.adaptive.rounds"] += len(result.rounds)
        counts["noise.adaptive.ess"] += result.ess

    def bytes_written(result, args, kwargs):
        counts["core.storage.bytes_written"] += len(args[1] if len(args) > 1 else kwargs["data"])

    def bytes_read(result, args, kwargs):
        counts["core.storage.bytes_read"] += len(result)

    def remember_graph(result, args, kwargs):
        graphs[id(args[0])] = args[0]

    fn = tracer.patch_function
    fn("repro.workloads", "workload_by_name", "workloads.build")
    for cls in (pipeline.DecomposePass, pipeline.PlacePass, pipeline.RoutePass, pipeline.EmitPass):
        on_exit = emitted_ops if cls is pipeline.EmitPass else None
        tracer.patch_method(cls, "run", f"core.pipeline.{cls.name}", on_exit)
    fn("repro.core.metrics", "evaluate_metrics", "core.metrics.eps")
    tracer.patch_method(compile_cache.CompileCache, "get", "core.compile_cache.get")
    tracer.patch_method(compile_cache.CompileCache, "disk_get", "core.compile_cache.get")
    fn("repro.core.storage", "atomic_write_bytes", "core.storage.write", bytes_written)
    fn("repro.core.storage", "read_bytes", "core.storage.read", bytes_read)
    tracer.patch_method(Graph, "compute_many", "artifacts.graph", remember_graph)
    install_units(tracer)
    fn("repro.noise.program", "compile_program", "noise.program.compile", program_steps)
    fn("repro.noise.program", "apply_kernel_batch", _kernel_span, kernel_bytes)
    fn("repro.noise.program", "apply_kernel", _kernel_span, kernel_bytes)
    tracer.patch_method(BatchedTrajectoryEngine, "run_ideal", "noise.batched")
    tracer.patch_method(BatchedTrajectoryEngine, "resume_trajectories", "noise.batched")
    fn("repro.noise.fastpath", "run_fastpath_fidelities", "noise.fastpath.run")
    fn("repro.noise.fastpath", "prescan_trajectories", "noise.fastpath.prescan")
    fn("repro.noise.adaptive", "adaptive_average_fidelity", "noise.adaptive", adaptive_result)
    fn("repro.qudit.states", "apply_unitary", "qudit.states.apply_unitary")
    fn("repro.qudit.states", "apply_unitary_batch", "qudit.states.apply_unitary")
    fn("repro.qudit.random", "haar_random_state", "qudit.random.haar")

    def read_counters() -> dict[str, float]:
        cache = compile_cache.get_cache().stats
        store = storage.STATS  # rebound by reset_storage_stats: read it late
        path = fastpath.stats()
        trajectories = path["trajectories"]
        values = {
            "core.compile_cache.memory_hits": cache.memory_hits,
            "core.compile_cache.disk_hits": cache.disk_hits,
            "core.compile_cache.misses": cache.misses,
            "core.storage.writes": store.writes,
            "core.storage.reads": store.reads,
            "core.storage.retries": store.retries,
            "core.storage.quarantined": store.quarantined,
            "artifacts.graph.built": sum(g.stats.built for g in graphs.values()),
            "artifacts.graph.memo_hits": sum(g.stats.memo_hits for g in graphs.values()),
            "artifacts.graph.disk_hits": sum(g.stats.disk_hits for g in graphs.values()),
            "noise.fastpath.records_built": path["records_built"],
            "noise.fastpath.builds_per_traj": (
                path["records_built"] / trajectories if trajectories else 0.0
            ),
            "noise.fastpath.record_hits": path["record_memory_hits"] + path["record_disk_hits"],
            "noise.fastpath.clean_share": path["clean"] / trajectories if trajectories else 0.0,
            "noise.fastpath.suffix_steps": path["suffix_steps"],
            "noise.fastpath.prefix_steps_reused": path["prefix_steps_reused"],
        }
        return values

    return read_counters


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    Below 21 samples that percentile would not lie above the median, so the
    maximum is returned at percentile 100 instead.
    """
    ordered = sorted(samples)
    if len(ordered) < 21:
        return 100.0, ordered[-1]
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def layer_metrics(tracer: Tracer, counters: dict[str, float]) -> dict[str, float]:
    """Flatten spans and counters into the per-layer metric names."""
    span = tracer.inclusive
    points = tracer.samples["experiments.sweep.point"]
    n_used = tracer.counts["noise.adaptive.n_used"]
    metrics = {
        "workloads.build_s": span["workloads.build"],
        "core.pipeline.decompose_s": span["core.pipeline.decompose"],
        "core.pipeline.place_s": span["core.pipeline.place"],
        "core.pipeline.route_s": span["core.pipeline.route"],
        "core.pipeline.emit_s": span["core.pipeline.emit"],
        "core.pipeline.ops_out": tracer.counts["core.pipeline.ops_out"],
        "core.metrics.eps_s": span["core.metrics.eps"],
        "core.compile_cache.get_s": span["core.compile_cache.get"],
        "core.storage.write_s": span["core.storage.write"],
        "core.storage.read_s": span["core.storage.read"],
        "core.storage.bytes_written": tracer.counts["core.storage.bytes_written"],
        "core.storage.bytes_read": tracer.counts["core.storage.bytes_read"],
        "artifacts.graph.self_s": tracer.self_time["artifacts.graph"],
        "experiments.sweep.point_s.p50": statistics.median(points) if points else 0.0,
        "experiments.sweep.point_s.tail": tail(points)[1] if points else 0.0,
        "noise.program.compile_s": span["noise.program.compile"],
        "noise.program.steps": tracer.counts["noise.program.steps"],
        "noise.program.idle_steps": tracer.counts["noise.program.idle_steps"],
        "noise.batched.self_s": tracer.self_time["noise.batched"],
        "noise.fastpath.run_s": span["noise.fastpath.run"],
        "noise.fastpath.prescan_s": span["noise.fastpath.prescan"],
        "noise.adaptive.n_used": n_used,
        "noise.adaptive.n_deviating": tracer.counts["noise.adaptive.n_deviating"],
        "noise.adaptive.rounds": tracer.counts["noise.adaptive.rounds"],
        "noise.adaptive.ess_per_traj": tracer.counts["noise.adaptive.ess"] / n_used if n_used else 0.0,
        "qudit.states.apply_unitary_s": span["qudit.states.apply_unitary"],
        "qudit.random.haar_s": span["qudit.random.haar"],
    }
    for kind in KERNEL_KINDS:
        name = f"noise.program.kernel.{kind}"
        metrics[f"{name}.s"] = span[name]
        metrics[f"{name}.calls"] = tracer.calls[name]
        metrics[f"{name}.bytes"] = tracer.counts[f"{name}.bytes"]
    metrics.update(counters)
    for layer, seconds in tracer.layer_self_times().items():
        metrics[f"self.{layer}_s"] = seconds
    return metrics
