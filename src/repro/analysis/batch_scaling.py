"""Batch-size scaling study for the case-study models.

Fig. 13(c) hints at the theme (larger batches amortize communication);
this experiment makes it systematic: per-step time and throughput as
the per-replica batch grows, for every Table IV model under its own
deployment.  The saturation point -- where throughput stops improving
-- is where the per-step fixed costs (weight sync, framework overhead)
are fully amortized.
"""

from __future__ import annotations

from typing import List

from ..core.efficiency import TABLE_VI_EFFICIENCIES
from ..graphs import all_case_studies, case_study_deployments
from ..runtime.result import ExperimentResult
from ..sim.executor import simulate_step
from .context import testbed_hardware

__all__ = ["run", "BATCH_FACTORS"]

#: Per-replica batch relative to the model's Table V batch size.
BATCH_FACTORS: List[float] = [0.25, 0.5, 1.0, 2.0, 4.0]


def run(models: List[str] = None) -> ExperimentResult:
    """Throughput vs batch factor for the case-study models."""
    hardware = testbed_hardware()
    graphs = all_case_studies()
    deployments = case_study_deployments()
    if models is None:
        models = ["ResNet50", "BERT", "Multi-Interests", "GCN"]
    rows = []
    for name in models:
        graph = graphs[name]
        deployment = deployments[name]
        efficiency = TABLE_VI_EFFICIENCIES[name]
        base_batch = graph.batch_size
        for factor in BATCH_FACTORS:
            batch = max(1, int(round(base_batch * factor)))
            scaled = graph.with_batch_size(batch)
            measurement = simulate_step(
                scaled, deployment, hardware, efficiency
            )
            step = measurement.serial_total
            rows.append(
                {
                    "model": name,
                    "batch": batch,
                    "step_s": step,
                    "samples_per_s": deployment.num_cnodes * batch / step,
                    "comm_share": measurement.weight_time / step,
                }
            )
    notes = [
        "per-step synchronization volume is batch-independent for dense "
        "models, so larger batches amortize it (comm share falls)",
        "embedding-dominated models gain less: their traffic is the "
        "accessed rows, which scale with the batch",
    ]
    return ExperimentResult(
        experiment="batch_scaling",
        title="Batch-size scaling of the case-study models",
        rows=rows,
        notes=notes,
    )
