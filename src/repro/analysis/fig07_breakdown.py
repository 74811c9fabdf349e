"""Fig. 7: average execution-time breakdown per workload type."""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.population import batch_breakdowns
from ..runtime.result import ExperimentResult
from .context import default_hardware, trace_feature_arrays
from .paper_constants import FIG7

__all__ = ["run"]

_TYPES = (
    None,  # all workloads
    Architecture.SINGLE,
    Architecture.LOCAL_CENTRALIZED,
    Architecture.PS_WORKER,
)


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 7 stacked-bar averages (both columns).

    ``jobs=None`` stays ``None`` all the way into
    :func:`trace_feature_arrays`, whose columnar fast path never
    materializes records for on-disk columnar traces.
    """
    hardware = default_hardware()
    rows = []
    for arch in _TYPES:
        analyzed = batch_breakdowns(trace_feature_arrays(jobs, arch), hardware)
        for cnode_level in (False, True):
            fractions = analyzed.average_fractions(cnode_level)
            rows.append(
                {
                    "population": "all" if arch is None else str(arch),
                    "level": "cNode" if cnode_level else "job",
                    "data_io": fractions["data_io"],
                    "weight": fractions["weight"],
                    "compute_bound": fractions["compute_bound"],
                    "memory_bound": fractions["memory_bound"],
                }
            )
    all_cnode = next(
        r for r in rows if r["population"] == "all" and r["level"] == "cNode"
    )
    all_job = next(
        r for r in rows if r["population"] == "all" and r["level"] == "job"
    )
    notes = [
        f"weight share, cNode level: {all_cnode['weight']:.1%} "
        f"(paper: ~{FIG7['weight_share_cnode_level']:.0%})",
        f"weight share, job level: {all_job['weight']:.1%} "
        f"(paper: ~{FIG7['weight_share_job_level']:.0%})",
        f"compute-bound {all_cnode['compute_bound']:.1%} / memory-bound "
        f"{all_cnode['memory_bound']:.1%} at cNode level (paper: 13% / 22%)",
        "memory-bound computation exceeds compute-bound in every type",
    ]
    return ExperimentResult(
        experiment="fig7",
        title="Average execution-time breakdown (Fig. 7)",
        rows=rows,
        notes=notes,
    )
