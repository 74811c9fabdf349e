"""``repro.lint`` -- flow-aware static analysis for the reproduction.

The headline guarantees of the runtime layer -- byte-identical
warm-cache reports, crash-isolated fork pools, stdout reserved for the
report -- only hold while every experiment stays a pure function of its
fingerprinted inputs, the package DAG stays acyclic, locks guard what
they claim to guard, and every tmp write commits.  This package
machine-checks those invariants:

* a rule registry (:mod:`repro.lint.registry`) with single-pass visitor
  dispatch (:mod:`repro.lint.visitor`) -- one AST walk per file serves
  every syntactic rule;
* an intraprocedural CFG builder (:mod:`repro.lint.cfg`) and a worklist
  dataflow engine (:mod:`repro.lint.dataflow`) for the flow-sensitive
  rules: held locks (``lock-discipline``), open resources
  (``resource-safety``);
* a whole-project call graph (:mod:`repro.lint.callgraph`) backing the
  determinism rule's experiment reachability;
* per-file parallel analysis plus a cross-file project phase in
  :mod:`repro.lint.engine`;
* inline ``# repro: ignore[rule-id]`` suppressions and a committed
  JSON baseline of justified, grandfathered findings (stale entries
  fail the run);
* human, JSON-lines (:mod:`repro.obs` event schema) and SARIF 2.1.0
  (:mod:`repro.lint.sarif`) output, behind ``python -m repro.lint`` /
  ``repro-lint``;
* a pytest bridge (:func:`assert_clean`) so CI and the test suite run
  the same engine.

See ``docs/LINT.md`` for the architecture and the rule catalog.
"""

from .baseline import Baseline, BaselineEntry, write_baseline
from .callgraph import CallGraph, Reachability
from .cfg import CFG, Block, WithExit, build_cfg
from .dataflow import (
    ForwardAnalysis,
    HeldLocks,
    OpenResources,
    ReachingDefinitions,
    run_forward,
)
from .engine import LintResult, assert_clean, lint_paths, lint_source
from .findings import Finding
from .registry import Rule, all_rules, get_rule, register, rule_ids
from .sarif import render_sarif, to_sarif

__all__ = [
    "Baseline",
    "BaselineEntry",
    "Block",
    "CFG",
    "CallGraph",
    "Finding",
    "ForwardAnalysis",
    "HeldLocks",
    "LintResult",
    "OpenResources",
    "Reachability",
    "ReachingDefinitions",
    "Rule",
    "WithExit",
    "all_rules",
    "assert_clean",
    "build_cfg",
    "get_rule",
    "lint_paths",
    "lint_source",
    "register",
    "render_sarif",
    "rule_ids",
    "run_forward",
    "to_sarif",
    "write_baseline",
]
