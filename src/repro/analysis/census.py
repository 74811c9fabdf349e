"""Bottleneck census: the cluster-health view of the trace.

Labels every job by its dominant execution-time component and reports
the population shares -- before and after the AllReduce-Local
projection, making the Sec. III-C1 bottleneck shift visible as label
migrations rather than averaged percentages.
"""

from __future__ import annotations

from ..core.classify import Bottleneck, bottleneck_census, classify_population
from ..core.projection import project_to_allreduce_local
from ..runtime.result import ExperimentResult
from .context import default_hardware, default_trace, ps_worker_features, trace_features

__all__ = ["run"]


def run(jobs: tuple = None) -> ExperimentResult:
    """Label census for the whole trace and for the projected PS jobs."""
    if jobs is None:
        jobs = default_trace()
    hardware = default_hardware()
    populations = {
        "all jobs": trace_features(jobs),
        "PS/Worker": ps_worker_features(jobs),
        "PS/Worker -> AllReduce-Local": [
            project_to_allreduce_local(f) for f in ps_worker_features(jobs)
        ],
    }
    rows = []
    for name, population in populations.items():
        census = bottleneck_census(
            classify_population(population, hardware), cnode_level=False
        )
        rows.append(
            {
                "population": name,
                "communication": census[Bottleneck.COMMUNICATION],
                "compute": census[Bottleneck.COMPUTE],
                "memory": census[Bottleneck.MEMORY],
                "io": census[Bottleneck.INPUT_IO],
                "balanced": census[Bottleneck.BALANCED],
            }
        )
    before = rows[1]
    after = rows[2]
    notes = [
        f"projection moves communication-bound jobs "
        f"{before['communication']:.1%} -> {after['communication']:.1%} "
        f"and exposes I/O-bound jobs {before['io']:.1%} -> {after['io']:.1%}",
        "labels use a 50% dominance threshold; 'balanced' has no majority "
        "component",
    ]
    return ExperimentResult(
        experiment="census",
        title="Bottleneck census (label view of Figs. 7/10)",
        rows=rows,
        notes=notes,
    )
