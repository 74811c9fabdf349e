"""Fig. 9: speedups from projecting PS/Worker jobs onto AllReduce."""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.population import ProjectionArrays, batch_projection_speedups
from ..runtime.result import ExperimentResult
from ..trace.statistics import EmpiricalCDF
from .context import default_hardware, trace_feature_arrays
from .paper_constants import FIG9

__all__ = ["run", "project_all"]


def project_all(jobs: tuple, target: Architecture) -> ProjectionArrays:
    """Project the whole PS/Worker population onto one target."""
    return batch_projection_speedups(
        trace_feature_arrays(jobs, Architecture.PS_WORKER),
        target,
        default_hardware(),
    )


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 9 speedup CDFs and their markers."""
    local = project_all(jobs, Architecture.ALLREDUCE_LOCAL)
    cluster = project_all(jobs, Architecture.ALLREDUCE_CLUSTER)

    single_cdf = EmpiricalCDF.from_samples(local.single_cnode_speedup)
    throughput_cdf = EmpiricalCDF.from_samples(local.throughput_speedup)
    cluster_cdf = EmpiricalCDF.from_samples(cluster.throughput_speedup)
    rescued = cluster.throughput_speedup[local.throughput_speedup <= 1.0]
    rescue_cdf = EmpiricalCDF.from_samples(rescued)

    rows = [
        {
            "curve": "AllReduce-Local single-cNode",
            "not_sped_up": single_cdf.probability_at(1.0),
            "p50_speedup": single_cdf.median,
            "p90_speedup": single_cdf.quantile(0.90),
            "paper_not_sped_up": FIG9["local_single_not_sped_up"],
        },
        {
            "curve": "AllReduce-Local throughput",
            "not_sped_up": throughput_cdf.probability_at(1.0),
            "p50_speedup": throughput_cdf.median,
            "p90_speedup": throughput_cdf.quantile(0.90),
            "paper_not_sped_up": FIG9["local_throughput_not_sped_up"],
        },
        {
            "curve": "AllReduce-Cluster all workloads",
            "not_sped_up": cluster_cdf.probability_at(1.0),
            "p50_speedup": cluster_cdf.median,
            "p90_speedup": cluster_cdf.quantile(0.90),
            "paper_not_sped_up": FIG9["cluster_not_sped_up"],
        },
        {
            "curve": "AllReduce-Cluster on local failures",
            "not_sped_up": rescue_cdf.probability_at(1.0),
            "p50_speedup": rescue_cdf.median,
            "p90_speedup": rescue_cdf.quantile(0.90),
            "paper_not_sped_up": FIG9["cluster_rescue_not_sped_up"],
        },
    ]
    sped_up = 1.0 - throughput_cdf.probability_at(1.0)
    notes = [
        f"{sped_up:.1%} of PS/Worker jobs gain throughput on "
        "AllReduce-Local (paper: ~60%)",
        "AllReduce-Cluster speedups top out near 1.2x (Ethernet still "
        "dominates the path)",
    ]
    return ExperimentResult(
        experiment="fig9",
        title="AllReduce projection speedups (Fig. 9)",
        rows=rows,
        notes=notes,
    )
