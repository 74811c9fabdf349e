"""Fig. 15: weight-traffic share under hardware-efficiency shifts."""

from __future__ import annotations

from ..core.sensitivity import FIG15_SCENARIOS, weight_share_scenarios
from ..runtime.result import ExperimentResult
from ..trace.statistics import EmpiricalCDF
from .context import default_hardware, default_trace, ps_worker_features

__all__ = ["run"]


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 15 scenario CDFs (quantile summary)."""
    if jobs is None:
        jobs = default_trace()
    population = ps_worker_features(jobs)
    scenarios = weight_share_scenarios(population, default_hardware())
    rows = []
    medians = {}
    for scenario in FIG15_SCENARIOS:
        shares = scenarios[scenario.name]
        cdf = EmpiricalCDF.from_samples(shares)
        medians[scenario.name] = cdf.median
        rows.append(
            {
                "scenario": scenario.name,
                "p25": cdf.quantile(0.25),
                "p50": cdf.median,
                "p75": cdf.quantile(0.75),
                "mean": sum(shares) / len(shares),
                "above_50pct": 1.0 - cdf.probability_at(0.5),
            }
        )
    notes = [
        "lower communication efficiency raises the weight-traffic share; "
        "lower computation efficiency lowers it",
        f"even at computation efficiency 25%, the median weight share is "
        f"{medians['Computation eff. 25%']:.1%} -- weight traffic remains "
        "the dominant time consumer on average (Sec. V-A)",
    ]
    return ExperimentResult(
        experiment="fig15",
        title="Efficiency-assumption sensitivity (Fig. 15)",
        rows=rows,
        notes=notes,
    )
