"""Extension study: telemetry-only root-cause analysis under injection.

The paper characterizes healthy workloads; production PAI-era clusters
were multi-tenant and failure-prone, and large-scale GPU-datacenter
studies report that anomalies dominate operational behavior.  This
experiment runs the :mod:`repro.faults` scored scenario suite -- 25
seeded scenarios cycling through all five fault kinds, injected into
the step simulator and the scheduling engine -- and grades whether the
detection pipeline localizes each root cause (kind + target + onset)
from :mod:`repro.obs` telemetry alone.

The headline row is the overall localization accuracy; the suite is
fully seeded, so the scores (and the telemetry digests behind them)
are byte-identical across runs.
"""

from __future__ import annotations

from ..faults import ScenarioReport, score_suite
from ..faults.scenarios import DEFAULT_SEED
from ..runtime.result import ExperimentResult

__all__ = ["run", "SUITE_SCENARIOS"]

#: Committed suite size: >= 5 scenarios per fault kind.
SUITE_SCENARIOS = 25


def run() -> ExperimentResult:
    """Run the committed scenario suite and tabulate per-kind accuracy."""
    report: ScenarioReport = score_suite(SUITE_SCENARIOS, DEFAULT_SEED)
    rows = []
    for kind, (localized, total) in sorted(report.by_kind().items()):
        rows.append(
            {
                "fault_kind": kind,
                "scenarios": total,
                "localized": localized,
                "accuracy": localized / total if total else 0.0,
            }
        )
    rows.append(
        {
            "fault_kind": "overall",
            "scenarios": len(report.results),
            "localized": sum(r.localized for r in report.results),
            "accuracy": report.accuracy,
        }
    )
    return ExperimentResult(
        experiment="faults_scenarios",
        title="Telemetry-only fault localization across injected scenarios",
        rows=rows,
        notes=[
            f"suite seed {report.seed}; onset accuracy "
            f"{report.onset_accuracy:.0%}; report digest "
            f"{report.digest[:16]}",
            "detector sees obs telemetry only (never the FaultPlan); "
            "acceptance bar is >= 80% kind+target localization",
        ],
    )
