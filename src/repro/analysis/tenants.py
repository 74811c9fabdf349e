"""Tenant-level cluster analytics (multi-tenant view of the trace)."""

from __future__ import annotations

from ..runtime.result import ExperimentResult
from .context import default_trace
from ..trace.groups import group_profiles, resource_concentration

__all__ = ["run"]


def run(jobs: tuple = None, top: int = 8) -> ExperimentResult:
    """Per-tenant submission/consumption profile of the trace."""
    if jobs is None:
        jobs = default_trace()
    profiles = group_profiles(jobs)
    total_cnodes = sum(p.cnode_total for p in profiles)
    rows = [
        {
            "group": profile.group,
            "jobs": profile.job_count,
            "cnode_share": profile.cnode_total / total_cnodes,
            "dominant_type": str(profile.dominant_type),
            "median_model_MB": profile.median_weight_bytes / 1e6,
        }
        for profile in profiles[:top]
    ]
    concentration = resource_concentration(list(jobs), top_fraction=0.2)
    notes = [
        f"top 20% of tenants hold {concentration:.1%} of cNodes",
        "multi-tenant GPU clusters typically show heavy per-tenant skew "
        "(cf. Jeon et al., cited by the paper)",
    ]
    return ExperimentResult(
        experiment="tenants",
        title="Tenant-level resource consumption",
        rows=rows,
        notes=notes,
    )
