"""Calibration report: every Sec. III statistic, paper vs synthetic."""

from __future__ import annotations

from ..runtime.result import ExperimentResult
from ..trace.calibration import evaluate_targets
from .context import default_trace

__all__ = ["run"]


def run(jobs: tuple = None) -> ExperimentResult:
    """Check every calibration target against the default trace."""
    if jobs is None:
        jobs = default_trace()
    checks = evaluate_targets(list(jobs))
    rows = [
        {
            "target": check["name"],
            "paper": check["paper"],
            "measured": check["measured"],
            "tolerance": check["tolerance"],
            "ok": check["ok"],
        }
        for check in checks
    ]
    failed = [check["name"] for check in checks if not check["ok"]]
    notes = (
        [f"FAILED targets: {', '.join(failed)}"]
        if failed
        else ["all calibration targets within tolerance"]
    )
    return ExperimentResult(
        experiment="calibration",
        title="Synthetic-trace calibration vs Sec. III statistics",
        rows=rows,
        notes=notes,
    )
