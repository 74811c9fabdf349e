"""The Fig. 4 pipeline, closed end-to-end for every case-study model.

Simulate a step, profile it (RunMetadata), extract features, re-apply
the analytical model, and compare against the measured breakdown.  With
both sides at the same 70% efficiency, the loop should close tightly --
this experiment is the self-consistency check of the whole framework.
"""

from __future__ import annotations

from ..core.efficiency import PAPER_DEFAULT_EFFICIENCY
from ..core.timemodel import estimate_breakdown
from ..graphs import all_case_studies, case_study_deployments
from ..profiling import JobMetadata, RunMetadata, extract_features
from ..runtime.result import ExperimentResult
from ..sim.executor import SimulationOptions, simulate_step
from .context import testbed_hardware

__all__ = ["run"]


def run() -> ExperimentResult:
    """Profile -> extract -> estimate, for the six case studies."""
    hardware = testbed_hardware()
    deployments = case_study_deployments()
    rows = []
    for name, graph in all_case_studies().items():
        deployment = deployments[name]
        measurement = simulate_step(
            graph,
            deployment,
            hardware,
            PAPER_DEFAULT_EFFICIENCY,
            options=SimulationOptions(launch_overhead=0.0, check_memory=False),
        )
        metadata = RunMetadata.from_measurement(measurement)
        job = JobMetadata(
            name,
            deployment.architecture,
            num_workers=deployment.num_cnodes,
            batch_size=graph.batch_size,
        )
        extracted = extract_features(metadata, job)
        estimate = estimate_breakdown(extracted, hardware)
        measured = measurement.breakdown()
        closure = (
            abs(estimate.total - measured.total) / measured.total
            if measured.total
            else 0.0
        )
        rows.append(
            {
                "model": name,
                "profiled_ops": len(metadata.entries),
                "measured_s": measured.total,
                "reestimated_s": estimate.total,
                "closure_error": closure,
            }
        )
    worst = max(rows, key=lambda r: r["closure_error"])
    notes = [
        f"worst closure error: {worst['closure_error']:.1%} "
        f"({worst['model']}) -- the pipeline is self-consistent",
        "both sides use the 70% efficiency and zero overhead, so any "
        "residual is collective-model vs flat-S_w accounting",
    ]
    return ExperimentResult(
        experiment="pipeline",
        title="Fig. 4 pipeline self-consistency check",
        rows=rows,
        notes=notes,
    )
