"""Fig. 16 / Eq. 3: the computation-communication overlap assumption."""

from __future__ import annotations

from ..core.sensitivity import compare_overlap_assumptions, eq3_weight_bound_speedup
from ..runtime.result import ExperimentResult
from ..trace.statistics import EmpiricalCDF
from .context import default_hardware, default_trace, ps_worker_features
from .paper_constants import FIG16

__all__ = ["run"]


def run(jobs: tuple = None) -> ExperimentResult:
    """Regenerate the Fig. 16 comparison and check Eq. 3."""
    if jobs is None:
        jobs = default_trace()
    hardware = default_hardware()
    comparison = compare_overlap_assumptions(
        ps_worker_features(jobs), hardware
    )
    eq3 = eq3_weight_bound_speedup(hardware)
    ideal_cdf = EmpiricalCDF.from_samples(comparison.ideal_overlap_speedups)
    non_cdf = EmpiricalCDF.from_samples(comparison.non_overlap_speedups)
    rows = [
        {
            "composition": "non-overlap",
            "not_sped_up": comparison.non_overlap_not_sped_up,
            "paper_not_sped_up": FIG16["non_overlap_not_sped_up"],
            "p50_speedup": non_cdf.median,
            "p90_speedup": non_cdf.quantile(0.90),
        },
        {
            "composition": "ideal overlap",
            "not_sped_up": comparison.ideal_overlap_not_sped_up,
            "paper_not_sped_up": FIG16["ideal_overlap_not_sped_up"],
            "p50_speedup": ideal_cdf.median,
            "p90_speedup": ideal_cdf.quantile(0.90),
        },
    ]
    at_21x = comparison.fraction_at_speedup(eq3, tolerance=0.05)
    notes = [
        f"Eq. 3 weight-bound speedup: {eq3:.4g}x (paper: exactly 21x)",
        f"ideal-overlap jobs pinned at ~21x: {at_21x:.1%} "
        f"(paper: {FIG16['weight_bound_fraction']:.1%})",
        "the overlap assumption changes the speedup distribution but not "
        "the fundamental-bottleneck conclusion (Sec. V-B)",
    ]
    return ExperimentResult(
        experiment="fig16",
        title="Overlap-assumption sensitivity (Fig. 16)",
        rows=rows,
        notes=notes,
    )
