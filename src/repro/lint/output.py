"""Rendering: human one-liners and JSON-lines in the obs event schema.

The JSON format is one event object per line, using the exact field
conventions of :mod:`repro.obs` (``ts`` / ``kind`` / ``level`` plus
flat payload fields): ``lint.finding`` events followed by one
``lint.summary``.  A consumer of ``--log-json`` telemetry can ingest
lint output unchanged.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List

from .engine import LintResult

__all__ = ["render_human", "render_jsonl", "summary_event"]


def summary_event(result: LintResult) -> Dict[str, Any]:
    """The run-level ``lint.summary`` event."""
    return {
        "ts": time.time(),
        "kind": "lint.summary",
        "level": "info" if result.ok else "warning",
        "files": result.files,
        "rules": list(result.rule_ids),
        "findings": len(result.findings),
        "baselined": len(result.baselined),
        "suppressed": result.suppressed,
        "unused_baseline": len(result.unused_baseline),
    }


def render_jsonl(result: LintResult) -> str:
    """Machine-readable output: one obs-schema event per line."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(json.dumps(finding.to_event(), sort_keys=True))
    lines.append(json.dumps(summary_event(result), sort_keys=True))
    return "\n".join(lines) + "\n"


def render_human(result: LintResult) -> str:
    """Human-readable output: findings, then a one-line summary."""
    lines: List[str] = [finding.render() for finding in result.findings]
    summary = (
        f"repro.lint: {len(result.findings)} finding(s) in "
        f"{result.files} file(s) "
        f"({len(result.baselined)} baselined, {result.suppressed} suppressed; "
        f"rules: {', '.join(result.rule_ids)})"
    )
    if result.unused_baseline:
        stale = ", ".join(
            f"{entry.rule}:{entry.path}" for entry in result.unused_baseline
        )
        summary += f"\nstale baseline entries (fixed? remove them): {stale}"
    lines.append(summary)
    return "\n".join(lines) + "\n"
