"""``python -m repro.lint`` / ``repro-lint``: the lint CLI.

Usage::

    repro-lint src/                       # all rules, human output
    repro-lint src/ --format json         # obs-schema JSON lines
    repro-lint src/ --format sarif        # SARIF 2.1.0 to stdout
    repro-lint src/ --sarif lint.sarif    # ... or to a file, alongside
    repro-lint src/ --rules no-print,determinism
    repro-lint src/ --jobs 8              # parallel per-file phase
    repro-lint src/ --write-baseline      # grandfather current findings
    repro-lint src/ --prune-baseline      # drop stale baseline entries
    repro-lint --list-rules               # catalog with one-liners

Exit codes: ``0`` clean (or fully baselined/suppressed), ``1`` findings
*or stale baseline entries* (a fixed finding must take its exemption
with it), ``2`` usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .baseline import Baseline, write_baseline
from .engine import lint_paths
from .output import render_human, render_jsonl
from .registry import all_rules
from .sarif import render_sarif

__all__ = ["main", "build_parser"]

#: Default baseline filename, resolved against the working directory.
DEFAULT_BASELINE = "lint-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis enforcing the reproduction's determinism, "
            "layering and fork-safety invariants."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help=(
            "output format: human one-liners, obs-schema JSON lines, "
            "or a SARIF 2.1.0 log"
        ),
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="PATH",
        help="additionally write a SARIF 2.1.0 log to PATH",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="ID[,ID...]",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the per-file phase (default: 1)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=(
            "baseline file of grandfathered findings "
            f"(default: ./{DEFAULT_BASELINE} when it exists)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "rewrite the baseline file without entries that no longer "
            "match any finding"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _resolve_baseline(arg: Optional[str]) -> Optional[Path]:
    if arg is not None:
        return Path(arg)
    default = Path(DEFAULT_BASELINE)
    return default if default.exists() else None


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, rule in sorted(all_rules().items()):
            print(f"{rule_id:18s} {rule.title}")
        return 0

    rules = None
    if args.rules is not None:
        rules = [part.strip() for part in args.rules.split(",") if part.strip()]
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    baseline_path = _resolve_baseline(args.baseline)
    if args.write_baseline:
        target = baseline_path or Path(args.baseline or DEFAULT_BASELINE)
        result = lint_paths(args.paths, rules=rules, jobs=args.jobs)
        count = write_baseline(result.findings, target)
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} to {target}")
        return 0

    baseline = None
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load baseline {baseline_path}: {exc}")
    elif args.prune_baseline:
        parser.error("--prune-baseline requires a baseline file")

    try:
        result = lint_paths(
            args.paths,
            rules=rules,
            jobs=args.jobs,
            baseline=baseline,
        )
    except KeyError as exc:
        parser.error(str(exc))

    if args.prune_baseline and result.unused_baseline:
        stale_keys = {entry.key() for entry in result.unused_baseline}
        pruned = Baseline(
            entry for entry in baseline.entries if entry.key() not in stale_keys
        )
        pruned.write(baseline_path)
        print(
            f"pruned {len(stale_keys)} stale entr"
            f"{'y' if len(stale_keys) == 1 else 'ies'} from {baseline_path}"
        )
        result.unused_baseline = []

    rendered = (
        render_jsonl(result) if args.format == "json" else render_human(result)
    )
    if args.format == "sarif":
        rendered = render_sarif(result)
    if args.sarif:
        Path(args.sarif).write_text(render_sarif(result), encoding="utf-8")
    sys.stdout.write(rendered)
    if result.ok and result.unused_baseline:
        # A stale exemption is a failure: the finding it excused is
        # gone, so the entry must go too (or be --prune-baseline'd).
        sys.stderr.write(
            "repro-lint: stale baseline entries (run --prune-baseline "
            "or delete them)\n"
        )
        return 1
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
