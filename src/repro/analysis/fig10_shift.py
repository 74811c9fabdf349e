"""Fig. 10: bottleneck shift after projecting onto AllReduce-Local.

Once the weight traffic moves to NVLink, its share collapses and the
input-I/O share (now contended on PCIe) rises the most.
"""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.population import batch_breakdowns
from ..runtime.result import ExperimentResult
from .context import default_hardware, trace_feature_arrays

__all__ = ["run"]


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 10 before/after breakdown."""
    hardware = default_hardware()
    originals = trace_feature_arrays(jobs, Architecture.PS_WORKER)
    projected = originals.project_ps_to(Architecture.ALLREDUCE_LOCAL)

    before = batch_breakdowns(originals, hardware).average_fractions()
    after = batch_breakdowns(projected, hardware).average_fractions()
    rows = []
    for component in ("data_io", "weight", "compute_bound", "memory_bound"):
        rows.append(
            {
                "component": component,
                "ps_worker_share": before[component],
                "allreduce_local_share": after[component],
                "delta": after[component] - before[component],
            }
        )
    data_row = next(r for r in rows if r["component"] == "data_io")
    weight_row = next(r for r in rows if r["component"] == "weight")
    biggest_gain = max(rows, key=lambda r: r["delta"])
    notes = [
        f"weight share collapses {weight_row['ps_worker_share']:.1%} -> "
        f"{weight_row['allreduce_local_share']:.1%}",
        f"data I/O share rises {data_row['ps_worker_share']:.1%} -> "
        f"{data_row['allreduce_local_share']:.1%} "
        "(paper: 'the portion of data I/O via PCIe increases the most')",
        f"largest increase: {biggest_gain['component']}",
    ]
    return ExperimentResult(
        experiment="fig10",
        title="Bottleneck shift under AllReduce-Local (Fig. 10)",
        rows=rows,
        notes=notes,
    )
