"""Fig. 13: effectiveness of the Sec. IV-D optimization techniques.

Four panels:

* (a) the BERT-class dense model under default / MP / XLA / MP+XLA;
* (b) the Speech model under XLA;
* (c) the Multi-Interests model under three (batch, attention-layer)
  configurations -- the bottleneck moves with the configuration;
* (d) GCN under PEARL vs the estimated PS/Worker deployment.
"""

from __future__ import annotations

from ..core.architectures import Architecture
from ..core.efficiency import TABLE_VI_EFFICIENCIES
from ..core.timemodel import estimate_breakdown
from ..graphs import (
    build_bert,
    build_gcn,
    build_multi_interests,
    build_speech,
)
from ..graphs.features_from_graph import Deployment, features_for
from ..optim import apply_passes, mixed_precision_pass, xla_fusion_pass
from ..runtime.result import ExperimentResult
from ..sim.executor import simulate_step
from .context import testbed_hardware
from .paper_constants import FIG13

__all__ = [
    "run",
    "run_panel_a",
    "run_panel_b",
    "run_panel_c",
    "run_panel_d",
]


def _measure(graph, deployment, name):
    return simulate_step(
        graph, deployment, testbed_hardware(), TABLE_VI_EFFICIENCIES[name]
    )


def run_panel_a() -> ExperimentResult:
    """Panel (a): MP and XLA on the BERT-class dense model."""
    graph = build_bert()
    deployment = Deployment(
        Architecture.ALLREDUCE_LOCAL, num_cnodes=8, embedding_sync_dense=True
    )
    base = _measure(graph, deployment, "BERT")
    mp = _measure(mixed_precision_pass(graph), deployment, "BERT")
    xla = _measure(xla_fusion_pass(graph), deployment, "BERT")
    both = _measure(
        apply_passes(graph, [mixed_precision_pass, xla_fusion_pass]),
        deployment,
        "BERT",
    )
    matmul_speedup = base.compute_time / mp.compute_time
    rows = [
        {
            "configuration": "default",
            "step_s": base.serial_total,
            "speedup": 1.0,
            "paper_speedup": 1.0,
        },
        {
            "configuration": "MP",
            "step_s": mp.serial_total,
            "speedup": base.serial_total / mp.serial_total,
            "paper_speedup": FIG13["bert_mp_end_to_end"],
        },
        {
            "configuration": "XLA",
            "step_s": xla.serial_total,
            "speedup": base.serial_total / xla.serial_total,
            "paper_speedup": FIG13["bert_xla_end_to_end"],
        },
        {
            "configuration": "MP+XLA",
            "step_s": both.serial_total,
            "speedup": base.serial_total / both.serial_total,
            "paper_speedup": FIG13["bert_mp_xla_end_to_end"],
        },
    ]
    notes = [
        f"MatMul kernel speedup under MP: {matmul_speedup:.2f}x "
        f"(paper: {FIG13['bert_mp_matmul']}x)",
    ]
    return ExperimentResult(
        experiment="fig13a",
        title="MP/XLA on the dense BERT-class model (Fig. 13a)",
        rows=rows,
        notes=notes,
    )


def run_panel_b() -> ExperimentResult:
    """Panel (b): XLA on the Speech model."""
    graph = build_speech()
    deployment = Deployment(Architecture.SINGLE, num_cnodes=1)
    base = _measure(graph, deployment, "Speech")
    xla = _measure(xla_fusion_pass(graph), deployment, "Speech")
    rows = [
        {
            "configuration": "default",
            "step_s": base.serial_total,
            "elementwise_s": base.memory_time,
        },
        {
            "configuration": "XLA",
            "step_s": xla.serial_total,
            "elementwise_s": xla.memory_time,
        },
    ]
    notes = [
        f"element-wise speedup: {base.memory_time / xla.memory_time:.2f}x "
        f"(paper: {FIG13['speech_xla_elementwise']}x)",
        f"end-to-end speedup: {base.serial_total / xla.serial_total:.2f}x "
        f"(paper: {FIG13['speech_xla_end_to_end']}x)",
    ]
    return ExperimentResult(
        experiment="fig13b",
        title="XLA on the Speech model (Fig. 13b)",
        rows=rows,
        notes=notes,
    )


#: The three Fig. 13(c) training configurations (batch, attention layers).
PANEL_C_CONFIGS = ((2048, 2), (8192, 2), (2048, 6))


def run_panel_c() -> ExperimentResult:
    """Panel (c): Multi-Interests under three configurations."""
    deployment = Deployment(Architecture.PS_WORKER, num_cnodes=32)
    rows = []
    for batch, layers in PANEL_C_CONFIGS:
        graph = build_multi_interests(batch_size=batch, attention_layers=layers)
        measurement = _measure(graph, deployment, "Multi-Interests")
        total = measurement.serial_total
        rows.append(
            {
                "batch": batch,
                "attention_layers": layers,
                "step_s": total,
                "elementwise_share": measurement.memory_time / total,
                "comm_share": measurement.weight_time / total,
                "compute_share": measurement.compute_time / total,
            }
        )
    notes = [
        "the bottleneck composition varies significantly across "
        "configurations (paper's claim): larger batches keep element-wise "
        "ops dominant; deeper attention roughly doubles the compute share",
        "deviation: the paper's third configuration is communication-"
        "bound; with our per-sample-calibrated features the extra "
        "attention layers shift time toward compute instead (see "
        "EXPERIMENTS.md)",
    ]
    return ExperimentResult(
        experiment="fig13c",
        title="Multi-Interests configurations (Fig. 13c)",
        rows=rows,
        notes=notes,
    )


def run_panel_d() -> ExperimentResult:
    """Panel (d): GCN under PEARL vs estimated PS/Worker."""
    graph = build_gcn()
    pearl = _measure(graph, Deployment(Architecture.PEARL, num_cnodes=8), "GCN")
    # The PS/Worker bar of Fig. 13(d) is the analytical estimate.
    ps_features = features_for(
        graph, Deployment(Architecture.PS_WORKER, num_cnodes=8)
    )
    ps_estimate = estimate_breakdown(ps_features, testbed_hardware())
    pearl_comm = pearl.weight_time / pearl.serial_total
    ps_comm = ps_estimate.fractions()["weight"]
    rows = [
        {
            "deployment": "PEARL (measured)",
            "step_s": pearl.serial_total,
            "comm_share": pearl_comm,
            "paper_comm_share": FIG13["gcn_pearl_comm_share"],
        },
        {
            "deployment": "PS/Worker (estimated)",
            "step_s": ps_estimate.total,
            "comm_share": ps_comm,
            "paper_comm_share": FIG13["gcn_ps_comm_share"],
        },
    ]
    notes = [
        f"PEARL cuts the communication share from {ps_comm:.0%} to "
        f"{pearl_comm:.0%} by moving partitioned-embedding exchange to "
        "NVLink (paper: 95% -> 25%)",
    ]
    return ExperimentResult(
        experiment="fig13d",
        title="GCN: PEARL vs PS/Worker (Fig. 13d)",
        rows=rows,
        notes=notes,
    )


def run() -> ExperimentResult:
    """All four panels concatenated."""
    panels = [run_panel_a(), run_panel_b(), run_panel_c(), run_panel_d()]
    rows = []
    notes = []
    for panel in panels:
        for row in panel.rows:
            rows.append({"panel": panel.experiment, **row})
        notes.extend(f"[{panel.experiment}] {n}" for n in panel.notes)
    return ExperimentResult(
        experiment="fig13",
        title="Optimization-technique effectiveness (Fig. 13)",
        rows=rows,
        notes=notes,
    )
