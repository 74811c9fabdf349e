"""Tables I-III: system settings, taxonomy, hardware variations."""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.hardware import TABLE_III_VARIATIONS
from ..core.units import GIGA, TERA, format_bandwidth
from ..runtime.result import ExperimentResult
from .context import default_hardware

__all__ = ["run_table1", "run_table2", "run_table3"]


def run_table1() -> ExperimentResult:
    """Table I: the base system settings."""
    hardware = default_hardware()
    rows = [
        {"setting": "GPU FLOPs", "value": f"{hardware.gpu.peak_flops / TERA:g} TFLOPs"},
        {
            "setting": "GPU memory bandwidth",
            "value": format_bandwidth(hardware.gpu.memory_bandwidth),
        },
        {
            "setting": "Ethernet",
            "value": f"{hardware.ethernet.bandwidth * 8 / GIGA:g} Gb/s",
        },
        {"setting": "PCIe", "value": format_bandwidth(hardware.pcie.bandwidth)},
        {"setting": "NVLink", "value": format_bandwidth(hardware.nvlink.bandwidth)},
    ]
    return ExperimentResult(
        experiment="table1",
        title="System settings (Table I)",
        rows=rows,
        notes=["paper: 11 TFLOPs, 1 TB/s, 25 Gb/s, 10 GB/s, 50 GB/s"],
    )


def run_table2() -> ExperimentResult:
    """Table II: the five workload types and their weight media."""
    rows = []
    for arch in Architecture:
        if arch is Architecture.PEARL:
            continue  # PEARL is the paper's addition, shown separately
        rows.append(
            {
                "type": str(arch),
                "system_architecture": (
                    "-"
                    if arch is Architecture.SINGLE
                    else ("Centralized" if arch.is_centralized else "Decentralized")
                ),
                "configuration": "Local" if arch.is_local else "Cluster",
                "weight_movement": " & ".join(arch.weight_media) or "-",
            }
        )
    rows.append(
        {
            "type": "PEARL",
            "system_architecture": "Hybrid (partitioned + replicated)",
            "configuration": "Local/Cluster",
            "weight_movement": " & ".join(Architecture.PEARL.weight_media),
        }
    )
    return ExperimentResult(
        experiment="table2",
        title="Workload-type taxonomy (Table II)",
        rows=rows,
    )


def run_table3() -> ExperimentResult:
    """Table III: hardware configuration candidates."""
    rows = []
    hardware = default_hardware()
    for resource in TABLE_III_VARIATIONS.resources():
        candidates = TABLE_III_VARIATIONS.candidates(resource)
        rows.append(
            {
                "resource": resource,
                "candidates": ", ".join(
                    format_bandwidth(v)
                    if resource != "gpu_flops"
                    else f"{v / TERA:g}T"
                    for v in candidates
                ),
                "normalized": ", ".join(
                    f"{hardware.normalized_resource(resource, v):g}"
                    for v in candidates
                ),
            }
        )
    return ExperimentResult(
        experiment="table3",
        title="Hardware configuration variations (Table III)",
        rows=rows,
        notes=[
            "paper: Ethernet {10,25,100} Gbps; PCIe {10,50} GB/s; "
            "GPU {8,16,32,64} TFLOPs; memory {1,2,4} TB/s"
        ],
    )
