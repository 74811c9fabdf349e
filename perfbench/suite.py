"""Workload ``report_suite``: the ``pai-repro all`` user path.

The full 27-experiment ``run_suite`` runs over a 20k-job calibrated
trace read from a columnar store through ``PAI_REPRO_TRACE_PATH``: one
cold pass with two fork workers and a fresh ``ResultCache``, then
:data:`WARM_PASSES` passes served from that cache.  Most of the time
goes to trace, core, analysis, runtime, sim and faults; sched gets
about a third through ``sched_policies`` and ``sched_whatif``.

An operation is one experiment of the cold pass.  The latency
percentiles are over the warm passes: the time a cache-warm
``pai-repro all`` takes to fingerprint and load all 27 results.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import List

from common import RoundResult, scoped_env, sha256_text
from kernel import Calibration

JOBS = 20000
WORKERS = 2
#: Warm passes per round, about 2.5 s.  A run keeps adding rounds until
#: it has ``run.MIN_LATENCY_SAMPLES`` of them.
WARM_PASSES = 200


@dataclasses.dataclass
class Inputs:
    store: Path
    workdir: Path


def prepare(seed: int, workdir: Path) -> Inputs:
    """Generate the trace and write it as a columnar store (untimed)."""
    from repro.trace.columnar import write_columnar
    from repro.trace.generator import generate_trace

    store = workdir / "suite-store"
    write_columnar(generate_trace(num_jobs=JOBS, seed=seed), store)
    return Inputs(store=store, workdir=workdir)


def run_round(
    inputs: Inputs, cal: Calibration, tracing=nullcontext, workers: int = WORKERS
) -> RoundResult:
    """Set up from the store, run the suite cold, then warm."""
    from repro.analysis.context import (
        TRACE_PATH_ENV_VAR,
        clear_caches,
        default_trace,
        trace_feature_arrays,
    )
    from repro.analysis.report import render_outcomes
    from repro.runtime import ResultCache, run_suite

    cache_dir = Path(
        inputs.workdir / f"suite-cache-{time.perf_counter_ns()}"
    )
    problems: List[str] = []
    with scoped_env({TRACE_PATH_ENV_VAR: str(inputs.store)}):
        clear_caches()
        cal.sample()
        with tracing():
            start = time.perf_counter()
            default_trace()
            trace_feature_arrays()
            end = time.perf_counter()
        setup = (start, end)
        cache = ResultCache(cache_dir)
        pair = workers > 1
        cal.sample()
        if pair:
            cal.sample_pair()
        with tracing():
            start = time.perf_counter()
            cold = run_suite(jobs=workers, cache=cache)
            end = time.perf_counter()
        cold_span = (start, end)
        if pair:
            cal.sample_pair()
        cal.sample()
        report = render_outcomes(cold)
        failed = sum(1 for outcome in cold if not outcome.ok)
        problems.extend(
            f"experiment {o.experiment_id} failed" for o in cold if not o.ok
        )
        attempted = len(cold)
        warm_marks = []
        for _ in range(WARM_PASSES):
            cal.tick()
            with tracing():
                start = time.perf_counter()
                warm = run_suite(jobs=workers, cache=cache)
                end = time.perf_counter()
            warm_marks.append((start, end))
            attempted += len(warm)
            failed += sum(1 for outcome in warm if not outcome.ok)
            if not all(outcome.cached for outcome in warm):
                problems.append("a warm pass was not fully cache-served")
            if render_outcomes(warm) != report:
                problems.append("a warm report differs from the cold report")
        cal.sample()
    shutil.rmtree(cache_dir, ignore_errors=True)

    worked = sum(o.duration_s for o in cold if not o.cached)
    return RoundResult(
        setup=setup,
        timed=[cold_span],
        ops=len(cold),
        latencies=[(start, end, end - start) for start, end in warm_marks],
        attempted=attempted,
        failed=failed,
        digest=sha256_text(report),
        problems=problems,
        extra={
            "pool_efficiency": worked / (workers * (cold_span[1] - cold_span[0]))
        },
        pair=pair,
    )
