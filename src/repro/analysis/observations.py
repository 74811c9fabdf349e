"""Sec. III-D "Summary of Key Observations", regenerated as one table.

Also covers the Sec. II-A2 operational claim ("more than 85% of
computation resources are used by distributed training"), checked by
replaying the trace's head onto a 512-server fleet under FIFO.
"""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.population import batch_breakdowns, batch_projection_speedups
from ..core.sweep import sweep_resource
from ..core.units import gbps, gigabytes
from ..runtime.result import ExperimentResult
from ..sched import FifoPolicy, Fleet, run_schedule
from .context import default_hardware, default_trace, trace_feature_arrays

__all__ = ["run"]


def _distributed_resource_share(jobs) -> float:
    placeable = [
        j
        for j in jobs
        if not (
            j.workload_type is Architecture.PS_WORKER and j.num_cnodes > 512
        )
    ][:1500]
    outcome = run_schedule(
        placeable, Fleet(512), FifoPolicy(), collect_telemetry=False
    )
    if outcome.rejected:
        raise RuntimeError(
            f"{len(outcome.rejected)} jobs cannot be placed on the "
            "512-server fleet; the resource share would leave them out"
        )
    return outcome.distributed_resource_share()


def run(jobs: tuple = None) -> ExperimentResult:
    """Check every Sec. III-D bullet against the synthetic trace."""
    if jobs is None:
        jobs = default_trace()
    hardware = default_hardware()
    ps_arrays = trace_feature_arrays(jobs, Architecture.PS_WORKER)
    all_analyzed = batch_breakdowns(trace_feature_arrays(jobs), hardware)
    ps_analyzed = batch_breakdowns(ps_arrays, hardware)
    cnode_fractions = all_analyzed.average_fractions(cnode_level=True)

    total_cnodes = sum(j.num_cnodes for j in jobs)
    ps_cnodes = sum(
        j.num_cnodes for j in jobs
        if j.workload_type is Architecture.PS_WORKER
    )
    small_models = sum(
        1 for j in jobs if j.features.weight_bytes < gigabytes(10)
    ) / len(jobs)

    local_results = batch_projection_speedups(
        ps_arrays, Architecture.ALLREDUCE_LOCAL, hardware
    )
    throughput_improved = float(
        (local_results.throughput_speedup > 1.0).mean()
    )

    ethernet = sweep_resource(
        ps_arrays, "ethernet", [gbps(100)], hardware
    ).points[0].average_speedup

    rows = [
        {
            "observation": "distributed training resource share (Sec. II-A2)",
            "paper": "> 85%",
            "measured": f"{_distributed_resource_share(list(jobs)):.1%}",
        },
        {
            "observation": "PS/Worker share of cNodes",
            "paper": "81%",
            "measured": f"{ps_cnodes / total_cnodes:.1%}",
        },
        {
            "observation": "models below 10 GB",
            "paper": "90%",
            "measured": f"{small_models:.1%}",
        },
        {
            "observation": "weight/gradient share of execution time (cNode)",
            "paper": "~62%",
            "measured": f"{cnode_fractions['weight']:.1%}",
        },
        {
            "observation": "compute-bound share (cNode)",
            "paper": "13%",
            "measured": f"{cnode_fractions['compute_bound']:.1%}",
        },
        {
            "observation": "memory-bound share (cNode)",
            "paper": "22%",
            "measured": f"{cnode_fractions['memory_bound']:.1%}",
        },
        {
            "observation": "PS jobs > 80% communication (cNode level)",
            "paper": "> 40%",
            "measured": f"{ps_analyzed.weighted_fraction_exceeding('weight', 0.8, cnode_level=True):.1%}",
        },
        {
            "observation": "PS jobs improved by AllReduce-Local (throughput)",
            "paper": "60%",
            "measured": f"{throughput_improved:.1%}",
        },
        {
            "observation": "average speedup at 100 Gbps Ethernet",
            "paper": "1.7x",
            "measured": f"{ethernet:.2f}x",
        },
    ]
    return ExperimentResult(
        experiment="observations",
        title="Key observations (Sec. III-D + Sec. II-A2)",
        rows=rows,
    )
