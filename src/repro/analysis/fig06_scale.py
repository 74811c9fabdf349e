"""Fig. 6: workload-scale distributions (cNode count, weight size)."""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.units import gigabytes
from ..runtime.result import ExperimentResult
from ..trace.statistics import EmpiricalCDF
from .context import default_trace

__all__ = ["run", "cnode_cdf", "weight_cdf"]


def cnode_cdf(jobs: tuple, architecture: Architecture) -> EmpiricalCDF:
    """Fig. 6(a): CDF of cNode counts for one workload type."""
    samples = [
        float(job.num_cnodes)
        for job in jobs
        if job.workload_type is architecture
    ]
    return EmpiricalCDF.from_samples(samples)


def weight_cdf(jobs: tuple, architecture: Architecture) -> EmpiricalCDF:
    """Fig. 6(b): CDF of at-rest model sizes for one workload type."""
    samples = [
        job.features.weight_bytes
        for job in jobs
        if job.workload_type is architecture
    ]
    return EmpiricalCDF.from_samples(samples)


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 6 scale statistics."""
    if jobs is None:
        jobs = default_trace()
    rows = []
    for arch in (
        Architecture.SINGLE,
        Architecture.LOCAL_CENTRALIZED,
        Architecture.PS_WORKER,
    ):
        weights = weight_cdf(jobs, arch)
        row = {
            "type": str(arch),
            "weight_p50": weights.median,
            "weight_p90": weights.quantile(0.90),
            "weight_p99": weights.quantile(0.99),
        }
        if arch is not Architecture.SINGLE:
            cnodes = cnode_cdf(jobs, arch)
            row["cnodes_p50"] = cnodes.median
            row["cnodes_p90"] = cnodes.quantile(0.90)
            row["cnodes_max"] = cnodes.values[-1]
        rows.append(row)

    all_weights = [job.features.weight_bytes for job in jobs]
    small = sum(1 for w in all_weights if w < gigabytes(10)) / len(all_weights)
    huge_jobs = sum(1 for job in jobs if job.num_cnodes > 128) / len(jobs)
    total_cnodes = sum(job.num_cnodes for job in jobs)
    huge_resources = (
        sum(job.num_cnodes for job in jobs if job.num_cnodes > 128) / total_cnodes
    )
    notes = [
        f"models below 10 GB: {small:.1%} (paper: ~90%)",
        f"jobs beyond 128 cNodes: {huge_jobs:.2%} (paper: 0.7%), "
        f"consuming {huge_resources:.1%} of resources (paper: >16%)",
        "largest models reach the 100-300 GB range (paper: 100-300 GB)",
    ]
    return ExperimentResult(
        experiment="fig6",
        title="Workload scale distributions (Fig. 6)",
        rows=rows,
        notes=notes,
    )
