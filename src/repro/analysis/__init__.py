"""Per-table/figure experiment modules, registry and CLI."""

from ..runtime.result import ExperimentResult, format_value, render_table
from .registry import EXPERIMENTS, experiment_ids, run_all, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "experiment_ids",
    "format_value",
    "render_table",
    "run_all",
    "run_experiment",
]
