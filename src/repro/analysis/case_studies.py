"""Tables IV-VI and Fig. 12: the case-study models and validation."""

from __future__ import annotations

from ..core.efficiency import TABLE_VI_EFFICIENCIES
from ..core.timemodel import estimate_breakdown
from ..core.units import GB, GIGA, MB
from ..graphs import all_case_studies, case_study_deployments, case_study_features
from ..graphs.features_from_graph import Deployment, sync_traffic
from ..core.architectures import Architecture
from ..runtime.result import ExperimentResult
from ..sim.executor import simulate_step
from .context import testbed_hardware
from .paper_constants import TABLE_IV, TABLE_V

__all__ = ["run_table4", "run_table5", "run_table6", "run_fig12"]


def run_table4() -> ExperimentResult:
    """Table IV: model scales (dense / embedding weights, architecture)."""
    graphs = all_case_studies()
    deployments = case_study_deployments()
    rows = []
    for name, graph in graphs.items():
        paper = TABLE_IV[name]
        rows.append(
            {
                "model": name,
                "domain": graph.domain,
                "dense_GB": graph.dense_weight_bytes / GB,
                "paper_dense_GB": paper["dense"] / GB,
                "embedding_GB": graph.embedding_weight_bytes / GB,
                "paper_embedding_GB": paper["embedding"] / GB,
                "architecture": str(deployments[name].architecture),
            }
        )
    return ExperimentResult(
        experiment="table4",
        title="Case-study model scales (Table IV)",
        rows=rows,
        notes=["weights include optimizer slots (momentum 2x, Adam 3x)"],
    )


def run_table5() -> ExperimentResult:
    """Table V: basic workload features, paper vs built models."""
    graphs = all_case_studies()
    deployments = case_study_deployments()
    rows = []
    for name, graph in graphs.items():
        paper = TABLE_V[name]
        deployment = deployments[name]
        if deployment.architecture is Architecture.SINGLE:
            # Table V reports the reference ring-sync volume at n=8 even
            # for the 1w1g Speech deployment.
            traffic, _ = sync_traffic(
                graph, Deployment(Architecture.ALLREDUCE_LOCAL, num_cnodes=8)
            )
        else:
            traffic, _ = sync_traffic(graph, deployment)
        rows.append(
            {
                "model": name,
                "batch": graph.batch_size,
                "flops_G": graph.flop_count / GIGA,
                "paper_flops_G": paper["flop_count"] / GIGA,
                "memory_GB": graph.memory_access_bytes / GB,
                "paper_memory_GB": paper["memory_access"] / GB,
                "pcie_copy_MB": graph.input_bytes / MB,
                "paper_pcie_MB": paper["pcie_copy"] / MB,
                "traffic_MB": traffic / MB,
                "paper_traffic_MB": paper["network_traffic"] / MB,
            }
        )
    return ExperimentResult(
        experiment="table5",
        title="Basic workload features (Table V)",
        rows=rows,
    )


def run_table6() -> ExperimentResult:
    """Table VI: measured per-workload hardware efficiencies."""
    rows = []
    for name, eff in TABLE_VI_EFFICIENCIES.items():
        rows.append(
            {
                "model": name,
                "gpu_tops": eff.compute,
                "gddr": eff.memory,
                "pcie": eff.pcie,
                "network": eff.network,
            }
        )
    return ExperimentResult(
        experiment="table6",
        title="Measured resource efficiencies (Table VI)",
        rows=rows,
        notes=["70% is about the average level (Sec. V-A)"],
    )


def run_fig12() -> ExperimentResult:
    """Fig. 12: estimated vs measured time-breakdown comparison.

    The estimate applies the Sec. II-B model with the uniform 70 %
    efficiency; the measurement simulates the step with the Table VI
    per-workload efficiencies plus framework overheads.  The reported
    percentage is ``(T_predict - T_actual) / T_actual``.
    """
    hardware = testbed_hardware()
    graphs = all_case_studies()
    deployments = case_study_deployments()
    features = case_study_features()
    rows = []
    for name, graph in graphs.items():
        measurement = simulate_step(
            graph, deployments[name], hardware, TABLE_VI_EFFICIENCIES[name]
        )
        estimate = estimate_breakdown(features[name], hardware)
        actual = measurement.serial_total
        predicted = estimate.total
        rows.append(
            {
                "model": name,
                "estimated_s": predicted,
                "measured_s": actual,
                "difference": (predicted - actual) / actual,
                "est_weight_share": estimate.fractions()["weight"],
                "meas_weight_share": measurement.weight_time / actual,
            }
        )
    speech = next(r for r in rows if r["model"] == "Speech")
    others = [abs(r["difference"]) for r in rows if r["model"] != "Speech"]
    notes = [
        f"max |difference| outside Speech: {max(others):.1%} "
        "(paper: below ~10% in most cases)",
        f"Speech difference: {speech['difference']:+.1%} (paper: >66.7% "
        "magnitude, caused by the 3% GDDR efficiency)",
    ]
    return ExperimentResult(
        experiment="fig12",
        title="Model validation: estimated vs measured (Fig. 12)",
        rows=rows,
        notes=notes,
    )
