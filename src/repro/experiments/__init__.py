"""Per-table / per-figure evaluation drivers (Section 6 and 7).

Each module regenerates one artifact of the paper's evaluation:

========================  =====================================================
Module                    Paper artifact
========================  =====================================================
:mod:`.tables`            Table 1 and Table 2 (gate durations)
:mod:`.rb`                Figure 2 (randomized benchmarking of H (x) H)
:mod:`.fidelity_sweep`    Figure 7a-e (fidelity vs circuit size per strategy)
:mod:`.eps_study`         Figure 8 (gate / coherence / total EPS)
:mod:`.cswap_study`       Figure 9a (CSWAP orientations on QRAM)
:mod:`.sensitivity`       Figure 9b and 9c (gate-error and coherence sweeps)
:mod:`.gate_ratio`        Figure 9d (CX : CCX ratio)
========================  =====================================================

All drivers accept size / trajectory-count arguments so the full paper-scale
sweeps can be launched, while the defaults stay laptop-friendly (the same
trade-off the paper makes against its 86 GB simulation ceiling).

Grids run through :mod:`.sweep` on one machine, or are drained across
machines by lease-coordinated workers through :mod:`.scheduler` (``python
-m repro.experiments.scheduler``, or a figure driver's ``--dir`` flag) —
the merged artifacts are byte-identical to the single-machine run.
"""

from repro.experiments.runner import StrategyEvaluation, evaluate_strategy
from repro.experiments.sweep import SweepPoint, SweepRunner, evaluate_point, point_key
from repro.experiments.tables import format_table1, format_table2
from repro.experiments.rb import RandomizedBenchmarkingResult, run_interleaved_rb
from repro.experiments.eps_study import run_eps_study
from repro.experiments.sensitivity import run_coherence_sensitivity, run_gate_error_sensitivity
from repro.experiments.gate_ratio import run_gate_ratio_study

__all__ = [
    "JobSpec",
    "LeaseCoordinator",
    "LeasedWorker",
    "RandomizedBenchmarkingResult",
    "StrategyEvaluation",
    "evaluate_strategy",
    "format_table1",
    "format_table2",
    "job_status",
    "merge_job",
    "plan_job",
    "point_key",
    "retry_failed",
    "run_cswap_study",
    "run_coherence_sensitivity",
    "run_eps_study",
    "run_fidelity_sweep",
    "run_gate_error_sensitivity",
    "run_gate_ratio_study",
    "run_interleaved_rb",
    "summarize_improvements",
]

#: Names resolved lazily (PEP 562) from modules that double as CLIs:
#: eagerly importing them here would make ``python -m
#: repro.experiments.<module>`` execute the module twice (runpy's
#: found-in-sys.modules warning).
_LAZY_EXPORTS = {
    "JobSpec": "scheduler",
    "LeaseCoordinator": "scheduler",
    "LeasedWorker": "scheduler",
    "job_status": "scheduler",
    "merge_job": "scheduler",
    "plan_job": "scheduler",
    "retry_failed": "scheduler",
    "run_fidelity_sweep": "fidelity_sweep",
    "summarize_improvements": "fidelity_sweep",
    "run_cswap_study": "cswap_study",
}


def __getattr__(name):
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        return getattr(importlib.import_module(f"{__name__}.{module_name}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
