"""Inference characterization report (the Sec. VIII future work).

Per-model serving latency breakdowns at batch 1 and the batching
trade-off, using the same methodology as the training-side analysis.
"""

from __future__ import annotations

from ..core.units import GB
from ..graphs import all_case_studies
from ..inference import batch_sweep, estimate_latency, inference_features_for
from ..runtime.result import ExperimentResult
from .context import testbed_hardware

__all__ = ["run"]


def run() -> ExperimentResult:
    """Serving characterization for the six case-study models."""
    hardware = testbed_hardware()
    rows = []
    for name, graph in all_case_studies().items():
        serving = inference_features_for(graph, batch_size=1)
        if serving.resident_weight_bytes > hardware.gpu.memory_capacity:
            rows.append(
                {
                    "model": name,
                    "fits_one_gpu": False,
                    "weights_GB": serving.resident_weight_bytes / GB,
                }
            )
            continue
        breakdown = estimate_latency(serving, hardware)
        sweep = batch_sweep(serving, hardware, batches=[1, 16, 128])
        rows.append(
            {
                "model": name,
                "fits_one_gpu": True,
                "weights_GB": serving.resident_weight_bytes / GB,
                "latency_ms_b1": breakdown.total * 1e3,
                "bottleneck": breakdown.bottleneck,
                "throughput_b128": sweep[-1]["throughput_rps"],
            }
        )
    notes = [
        "forward-only, no weight synchronization, optimizer slots dropped",
        "giant-embedding recommenders need partitioned serving, mirroring "
        "the PEARL story on the training side",
    ]
    return ExperimentResult(
        experiment="inference",
        title="Inference characterization (Sec. VIII future work)",
        rows=rows,
        notes=notes,
    )
