"""Fig. 11: average speedup under hardware-configuration variations.

Four panels: 1w1g, 1wng, PS/Worker, and the PS/Worker population
projected onto AllReduce-Local; each sweeps the Table III candidates of
every resource.
"""

from __future__ import annotations

from typing import Dict

from ..core.architectures import Architecture
from ..core.sweep import SweepSeries, sweep_all_resources
from ..runtime.result import ExperimentResult
from .context import default_hardware, trace_feature_arrays

__all__ = ["run", "panel"]

_PANEL_RESOURCES = {
    "1w1g": ("pcie", "gpu_flops", "gpu_memory"),
    "1wng": ("pcie", "gpu_flops", "gpu_memory"),
    "PS/Worker": ("ethernet", "pcie", "gpu_flops", "gpu_memory"),
    "AllReduce-Local": ("pcie", "gpu_flops", "gpu_memory"),
}


def panel(jobs: tuple, name: str) -> Dict[str, SweepSeries]:
    """One Fig. 11 panel: sweep series for one workload population."""
    hardware = default_hardware()
    if name == "1w1g":
        population = trace_feature_arrays(jobs, Architecture.SINGLE)
    elif name == "1wng":
        population = trace_feature_arrays(jobs, Architecture.LOCAL_CENTRALIZED)
    elif name == "PS/Worker":
        population = trace_feature_arrays(jobs, Architecture.PS_WORKER)
    elif name == "AllReduce-Local":
        population = trace_feature_arrays(
            jobs, Architecture.PS_WORKER
        ).project_ps_to(Architecture.ALLREDUCE_LOCAL)
    else:
        raise KeyError(f"unknown panel: {name!r}")
    series = sweep_all_resources(population, hardware)
    return {
        resource: series[resource] for resource in _PANEL_RESOURCES[name]
    }


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate all four Fig. 11 panels."""
    rows = []
    most_sensitive = {}
    for name in _PANEL_RESOURCES:
        panel_series = panel(jobs, name)
        for resource, series in panel_series.items():
            for point in series.points:
                rows.append(
                    {
                        "panel": name,
                        "resource": resource,
                        "normalized": point.normalized_value,
                        "avg_speedup": point.average_speedup,
                    }
                )
        most_sensitive[name] = max(
            panel_series, key=lambda r: panel_series[r].sensitivity
        )
    ps_eth = next(
        r
        for r in rows
        if r["panel"] == "PS/Worker"
        and r["resource"] == "ethernet"
        and abs(r["normalized"] - 4.0) < 1e-9
    )
    notes = [
        "most sensitive resource per panel: "
        + ", ".join(f"{k}: {v}" for k, v in most_sensitive.items()),
        f"PS/Worker at 100 Gbps Ethernet: {ps_eth['avg_speedup']:.2f}x "
        "(paper: ~1.7x)",
        "paper: 1w1g most sensitive to GPU memory, 1wng to PCIe, "
        "PS/Worker to Ethernet; after projection, GPU memory matters most",
    ]
    return ExperimentResult(
        experiment="fig11",
        title="Hardware-evolution sweeps (Fig. 11)",
        rows=rows,
        notes=notes,
    )
