"""Full-report generation: every experiment, one markdown document.

``write_report`` regenerates the complete experiment suite through the
:mod:`repro.runtime` execution layer (parallel workers, result cache,
per-experiment error isolation) and writes a self-contained markdown
file -- the artifact a reproduction reviewer reads.  Used by
``pai-repro report``.

A failing experiment no longer aborts the run: its traceback lands in a
"Failed experiments" section and every other table still renders.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from ..runtime.result import ExperimentResult, format_value

__all__ = [
    "render_markdown",
    "render_outcomes",
    "write_report",
]


def _markdown_table(result: ExperimentResult) -> str:
    columns = result.columns()
    if not result.rows:
        return "*(no rows)*"
    header = "| " + " | ".join(columns) + " |"
    separator = "| " + " | ".join("---" for _ in columns) + " |"
    body = [
        "| "
        + " | ".join(format_value(row.get(column, "")) for column in columns)
        + " |"
        for row in result.rows
    ]
    return "\n".join([header, separator] + body)


def render_markdown(
    results: List[ExperimentResult],
    failures: Sequence[Tuple[str, str]] = (),
) -> str:
    """Render experiment results as one markdown document.

    ``failures`` are ``(experiment_id, traceback)`` pairs; when present
    they are listed in the contents and detailed in a final "Failed
    experiments" section.
    """
    out = io.StringIO()
    out.write("# Reproduction report\n\n")
    out.write(
        "Regenerated tables and figures for *Characterizing Deep Learning "
        "Training Workloads on Alibaba-PAI* (IISWC 2019).\n\n"
    )
    out.write("## Contents\n\n")
    for result in results:
        out.write(f"- [{result.experiment}](#{result.experiment}): {result.title}\n")
    for experiment_id, _ in failures:
        out.write(f"- [{experiment_id}](#failed-experiments): **FAILED**\n")
    out.write("\n")
    for result in results:
        out.write(f"## {result.experiment}\n\n")
        out.write(f"**{result.title}**\n\n")
        out.write(_markdown_table(result))
        out.write("\n")
        for note in result.notes:
            out.write(f"\n> {note}\n")
        out.write("\n")
    if failures:
        out.write("## Failed experiments\n\n")
        out.write(
            f"{len(failures)} experiment(s) raised; the rest of the suite "
            "ran to completion.\n\n"
        )
        for experiment_id, error in failures:
            out.write(f"### {experiment_id}\n\n")
            out.write("```\n")
            out.write(error if error.endswith("\n") else error + "\n")
            out.write("```\n\n")
    return out.getvalue()


def render_outcomes(outcomes: Sequence) -> str:
    """Render :class:`~repro.runtime.ExperimentOutcome` objects."""
    results = [o.result for o in outcomes if o.ok]
    failures = [(o.experiment_id, o.error) for o in outcomes if not o.ok]
    return render_markdown(results, failures)


def write_report(
    path: Union[str, Path],
    *,
    jobs: int = 1,
    cache: Optional[object] = None,
) -> Path:
    """Run the full suite and write the markdown report; returns the path.

    Experiment failures are recorded in the report rather than raised;
    callers needing an exit code should use
    :func:`repro.runtime.run_suite` directly (as the CLI does).
    """
    from ..runtime import run_suite

    path = Path(path)
    outcomes = run_suite(jobs=jobs, cache=cache)
    path.write_text(render_outcomes(outcomes), encoding="utf-8")
    return path
