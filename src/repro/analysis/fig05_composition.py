"""Fig. 5: constitution of workloads, job-level and cNode-level."""

from __future__ import annotations

from ..core.architectures import Architecture
from ..runtime.result import ExperimentResult
from .context import default_trace
from .paper_constants import FIG5

__all__ = ["run"]

_TYPES = (
    Architecture.SINGLE,
    Architecture.LOCAL_CENTRALIZED,
    Architecture.PS_WORKER,
    Architecture.ALLREDUCE_LOCAL,
)


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 5 pie shares."""
    if jobs is None:
        jobs = default_trace()
    total_jobs = len(jobs)
    total_cnodes = sum(job.num_cnodes for job in jobs)
    rows = []
    for arch in _TYPES:
        of_type = [job for job in jobs if job.workload_type is arch]
        cnodes = sum(job.num_cnodes for job in of_type)
        rows.append(
            {
                "type": str(arch),
                "job_share": len(of_type) / total_jobs,
                "cnode_share": cnodes / total_cnodes,
            }
        )
    ps_row = next(r for r in rows if r["type"] == "PS/Worker")
    notes = [
        f"paper Fig. 5: PS/Worker job share {FIG5['ps_job_share']:.0%} "
        f"(measured {ps_row['job_share']:.1%}), cNode share "
        f"{FIG5['ps_cnode_share']:.0%} (measured {ps_row['cnode_share']:.1%})",
        "1w1g dominates job counts; PS/Worker dominates resources",
    ]
    return ExperimentResult(
        experiment="fig5",
        title="Constitution of workloads (Fig. 5)",
        rows=rows,
        notes=notes,
    )
