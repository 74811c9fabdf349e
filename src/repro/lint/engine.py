"""The analysis driver: files in, filtered findings out.

Execution is two-phase:

1. **Per-file** (parallelizable with ``jobs > 1``): parse, run the
   single dispatch pass (:func:`repro.lint.visitor.run_pass`), apply
   inline suppressions, and collect each project rule's picklable
   summary.  Files are independent, so this phase forks a process pool
   exactly like the experiment suite does.
2. **Project** (parent process): rules with ``check_project`` consume
   the gathered summaries and yield cross-file findings -- the
   determinism call graph lives here.

Baseline filtering applies last, to per-file and project findings
alike.  The engine reports through :mod:`repro.obs` (one
``lint.finding`` event per finding, counters for the totals), so a
``--log-json`` run captures lint traffic in the same event stream as
everything else.
"""

from __future__ import annotations

import ast
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..obs import DEBUG, get_obs
from .baseline import Baseline
from .context import FileContext
from .findings import Finding, finding_sort_key
from .registry import Rule, instantiate, iter_findings
from .visitor import run_pass

__all__ = ["LintResult", "lint_paths", "lint_source", "assert_clean"]


@dataclass
class LintResult:
    """Everything one engine run produced."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    rule_ids: List[str] = field(default_factory=list)
    unused_baseline: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


#: ``(findings, suppressed_count, summaries)`` from one worker.
_FileOutcome = Tuple[List[Finding], int, Dict[str, Any]]


def _analyze_one(
    path_text: str, rule_ids: Sequence[str]
) -> _FileOutcome:
    """Per-file phase for one path.  Module-level so pools can pickle it."""
    path = Path(path_text)
    rules = instantiate(rule_ids)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (SyntaxError, ValueError, UnicodeDecodeError, OSError) as exc:
        finding = Finding(
            rule="parse-error",
            path=str(path),
            line=getattr(exc, "lineno", None) or 1,
            col=getattr(exc, "offset", None) or 0,
            message=f"file does not parse: {exc}",
        )
        return ([finding], 0, {})
    ctx = FileContext(path, source, tree)
    raw = run_pass(ctx, rules)
    findings: List[Finding] = []
    suppressed = 0
    for finding in raw:
        if ctx.suppressed(finding.rule, finding.line):
            suppressed += 1
        else:
            findings.append(finding)
    summaries: Dict[str, Any] = {}
    for rule in rules:
        summary = rule.summarize(ctx)
        if summary is not None:
            summaries[rule.id] = summary
    return (findings, suppressed, summaries)


def iter_python_files(paths: Iterable[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    seen: Dict[Path, None] = {}
    for item in paths:
        path = Path(item)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                seen.setdefault(candidate, None)
        elif path.suffix == ".py" or path.is_file():
            seen.setdefault(path, None)
    return list(seen)


def lint_paths(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Sequence[str]] = None,
    jobs: int = 1,
    baseline: Optional[Baseline] = None,
) -> LintResult:
    """Run the engine over files and directories.

    Args:
        paths: Files and/or directories (recursed for ``*.py``).
        rules: Rule ids to run; defaults to every registered rule.
        jobs: Worker processes for the per-file phase; ``1`` runs
            in-process.
        baseline: Grandfathered findings to subtract.

    Returns:
        A :class:`LintResult`; ``result.ok`` is the pass/fail verdict.
    """
    rule_instances = instantiate(rules)
    rule_ids = [rule.id for rule in rule_instances]
    files = iter_python_files(paths)

    obs = get_obs()
    with obs.trace("lint.files", files=len(files), jobs=jobs):
        if jobs > 1 and len(files) > 1:
            with ProcessPoolExecutor(max_workers=min(jobs, len(files))) as pool:
                outcomes = list(
                    pool.map(
                        _analyze_one,
                        [str(path) for path in files],
                        [rule_ids] * len(files),
                        chunksize=8,
                    )
                )
        else:
            outcomes = [_analyze_one(str(path), rule_ids) for path in files]

    all_findings: List[Finding] = []
    suppressed = 0
    summaries: Dict[str, List[Any]] = {}
    for findings, file_suppressed, file_summaries in outcomes:
        all_findings.extend(findings)
        suppressed += file_suppressed
        for rule_id, summary in file_summaries.items():
            summaries.setdefault(rule_id, []).append(summary)

    with obs.trace("lint.project"):
        for rule in rule_instances:
            if type(rule).check_project is Rule.check_project:
                continue
            all_findings.extend(
                iter_findings(rule.check_project(summaries.get(rule.id, [])))
            )

    result = LintResult(
        suppressed=suppressed, files=len(files), rule_ids=rule_ids
    )
    for finding in sorted(all_findings, key=finding_sort_key):
        if baseline is not None and baseline.match(finding):
            result.baselined.append(finding)
        else:
            result.findings.append(finding)
    if baseline is not None:
        result.unused_baseline = baseline.unused()

    obs.metrics.counter("lint.findings").inc(len(result.findings))
    obs.metrics.counter("lint.baselined").inc(len(result.baselined))
    obs.metrics.counter("lint.suppressed").inc(suppressed)
    # Debug level: the CLI already owns the user-facing rendering; the
    # JSON-lines sink records every event regardless of level.
    for finding in result.findings:
        obs.event("lint.finding", level=DEBUG, **_event_fields(finding))
    return result


def _event_fields(finding: Finding) -> Dict[str, Any]:
    fields = finding.to_event()
    for reserved in ("ts", "kind", "level"):
        fields.pop(reserved, None)
    return fields


def lint_source(
    source: str,
    *,
    filename: str = "<string>",
    module: Optional[str] = None,
    rules: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one in-memory source string (both phases).

    The unit-test workhorse: inline fixtures run through exactly the
    engine code paths, with ``module`` overriding the dotted module
    name (so layering fixtures can claim to be ``repro.core.x``).
    """
    rule_instances = instantiate(rules)
    tree = ast.parse(source, filename=filename)
    ctx = FileContext(Path(filename), source, tree, module=module)
    raw = run_pass(ctx, rule_instances)
    findings = [
        finding
        for finding in raw
        if not ctx.suppressed(finding.rule, finding.line)
    ]
    for rule in rule_instances:
        if type(rule).check_project is Rule.check_project:
            continue
        summary = rule.summarize(ctx)
        summaries = [summary] if summary is not None else []
        findings.extend(iter_findings(rule.check_project(summaries)))
    return sorted(findings, key=finding_sort_key)


def assert_clean(
    paths: Iterable[Union[str, Path]],
    *,
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Baseline] = None,
    jobs: int = 1,
) -> LintResult:
    """The pytest bridge: raise ``AssertionError`` listing any findings."""
    result = lint_paths(paths, rules=rules, jobs=jobs, baseline=baseline)
    if not result.ok:
        rendered = "\n".join(f.render() for f in result.findings)
        raise AssertionError(
            f"repro.lint found {len(result.findings)} problem(s):\n{rendered}"
        )
    return result
