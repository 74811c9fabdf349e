"""Workload ``serve_dashboard``: the resident dashboard path.

A closed loop with one client (one connection at a time,
``ServeClient(retries=0)``) drives a ``TraceService`` with 4 shards and
a ``ResultCache`` in a temporary directory, preloaded with a 20k-job
base population.  The loop sends :data:`INGEST_BATCHES` times a
``POST /ingest`` of :data:`BATCH_JOBS` jobs followed by
:data:`READ_ROUNDS` rounds over the six dashboard reads: 1,250
requests.  Writes run beside reads on ``serve.state`` and
``runtime.cache``; each ingest is followed by 6 cache misses (the
first pays the snapshot merge) and 18 hits.  ``core.batch_breakdowns``
runs on ~50-row shard slices, the opposite regime from
``report_suite``.

The drained state must equal ``batch_reference`` leaf by leaf.  Above
the sketch capacity a quantile is checked by its rank in the exact
population, since that is what the sketch bounds: a compacted centroid
of an integer metric such as ``num_cnodes`` can sit between two
adjacent values (14.4 where the exact p90 is 14) at no rank error.

An operation is one HTTP request; latency is what the client observes.
"""

from __future__ import annotations

import dataclasses
import http.client
import math
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import RoundResult, canonical_digest
from kernel import Calibration

BASE_JOBS = 20000
INGEST_BATCHES = 50
BATCH_JOBS = 200
READ_ROUNDS = 4
SHARDS = 4
#: Quantile levels of the ``quantiles`` leaves of a reference payload.
QUANTILE_LEVELS = {"p50": 0.50, "p90": 0.90, "p99": 0.99}
#: Rank error allowed on a sketched quantile, in units of 1/capacity.
#: ``StreamingCDF`` promises ~1 after compaction; the merge of four
#: shards compacts three times, so twice that is allowed.  The worst
#: seen over 62 seeds was 1.09.
SKETCH_RANK_TOL = 2.0


@dataclasses.dataclass
class Inputs:
    base: list
    batches: List[list]
    reference: Dict[str, object]
    #: Sorted exact samples of every CDF metric, for the rank check.
    samples: Dict[str, np.ndarray]
    workdir: Path


def prepare(seed: int, workdir: Path) -> Inputs:
    """Generate the base population, the ingest batches and the batch-path
    reference the drained service must equal (untimed)."""
    from repro.core.efficiency import PAPER_DEFAULT_EFFICIENCY
    from repro.core.hardware import pai_default_hardware
    from repro.core.population import FeatureArrays, batch_breakdowns
    from repro.core.timemodel import PAPER_MODEL_OPTIONS
    from repro.serve import batch_reference
    from repro.trace.generator import generate_trace

    jobs = generate_trace(
        num_jobs=BASE_JOBS + INGEST_BATCHES * BATCH_JOBS, seed=seed
    )
    base = sorted(jobs[:BASE_JOBS], key=lambda job: (job.submit_day, job.job_id))
    rest = jobs[BASE_JOBS:]
    batches = [
        rest[i * BATCH_JOBS : (i + 1) * BATCH_JOBS] for i in range(INGEST_BATCHES)
    ]
    # The per-job samples behind batch_reference's CDFs, by the same path.
    arrays = FeatureArrays.from_workloads(job.features for job in jobs)
    breakdown = batch_breakdowns(
        arrays, pai_default_hardware(), PAPER_DEFAULT_EFFICIENCY, PAPER_MODEL_OPTIONS
    )
    samples = dict(breakdown.fractions())
    samples["step_time"] = breakdown.total_for(PAPER_MODEL_OPTIONS.overlap)
    samples["num_cnodes"] = arrays.num_cnodes
    return Inputs(
        base=base,
        batches=batches,
        reference=batch_reference(jobs),
        samples={
            metric: np.sort(np.asarray(values, dtype=float))
            for metric, values in samples.items()
        },
        workdir=workdir,
    )


def rank_error(sorted_samples: np.ndarray, value: float, q: float) -> float:
    """How far ``q`` lies outside the ranks ``value`` holds in the samples."""
    count = sorted_samples.size
    below = np.searchsorted(sorted_samples, value, side="left") / count
    at_or_below = np.searchsorted(sorted_samples, value, side="right") / count
    return max(0.0, below - q, q - at_or_below)


def verify_against_batch(served, inputs: Inputs, exact: bool) -> List[str]:
    """Drained service vs one-shot batch path, leaf by leaf.

    Exact within 1e-9, except sketched quantiles when ``exact`` is
    false: their rank in the exact samples must be within
    :data:`SKETCH_RANK_TOL` / capacity of the level.
    """
    from repro.serve import payload_leaves
    from repro.serve.stats import DEFAULT_SKETCH_CAPACITY

    problems = []
    for (path, got), (ref_path, want) in zip(
        payload_leaves(served), payload_leaves(inputs.reference)
    ):
        if path != ref_path:
            return [f"payload shapes differ: {path} vs {ref_path}"]
        if path.startswith("quantiles.") and not exact:
            _, metric, level = path.split(".")
            error = rank_error(inputs.samples[metric], got, QUANTILE_LEVELS[level])
            if error > SKETCH_RANK_TOL / DEFAULT_SKETCH_CAPACITY:
                problems.append(
                    f"serve/batch rank drift at {path}: {got!r} vs {want!r} "
                    f"(rank off by {error:.6f})"
                )
        elif isinstance(want, float):
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12):
                problems.append(f"serve/batch drift at {path}: {got!r} vs {want!r}")
        elif got != want:
            problems.append(f"serve/batch mismatch at {path}: {got!r} vs {want!r}")
    return problems


def run_round(inputs: Inputs, cal: Calibration, tracing=nullcontext) -> RoundResult:
    """Start and preload a service, run the request loop, verify."""
    from repro.runtime import ResultCache
    from repro.serve import (
        ServeClient,
        ServiceError,
        ShardedState,
        TraceReplayer,
        TraceService,
    )
    from repro.serve.stats import DEFAULT_SKETCH_CAPACITY

    cache_dir = inputs.workdir / f"serve-cache-{time.perf_counter_ns()}"
    cal.sample()
    with tracing():
        start = time.perf_counter()
        service = TraceService(
            state=ShardedState(num_shards=SHARDS), cache=ResultCache(cache_dir)
        )
        service.start()
        try:
            service.start_replay(TraceReplayer(inputs.base))
            service.wait_for_ingest()
        except BaseException:
            service.stop()
            raise
        end = time.perf_counter()
    setup = (start, end)

    client = ServeClient(service.url, retries=0)
    reads = (
        client.stats,
        client.census,
        lambda: client.cdf("step_time", points=20),
        lambda: client.cdf("weight"),
        lambda: client.cdf("data_io"),
        lambda: client.cdf("compute_bound"),
    )
    marks = []  # (start, end, is_write)
    problems: List[str] = []
    failed = 0
    floor = 0
    try:
        with tracing():
            for batch in inputs.batches:
                requests = [(lambda batch=batch: client.ingest(batch), True)]
                requests += [(read, False) for _ in range(READ_ROUNDS) for read in reads]
                for request, is_write in requests:
                    start = time.perf_counter()
                    try:
                        payload = request()
                    except (ServiceError, OSError, http.client.HTTPException) as error:
                        failed += 1
                        problems.append(f"request failed: {error!r}")
                        continue
                    finally:
                        marks.append((start, time.perf_counter(), is_write))
                    jobs = payload.get("jobs", -1)
                    if jobs < floor:
                        problems.append(f"job count went backwards: {jobs} < {floor}")
                    floor = max(floor, jobs)
                    cal.tick()
    finally:
        service.stop()
    cal.sample()

    served = service.state.snapshot().stats.reference_payload()
    exact = service.state.job_count <= DEFAULT_SKETCH_CAPACITY
    problems.extend(verify_against_batch(served, inputs, exact))
    return RoundResult(
        setup=setup,
        timed=[(a, b) for a, b, _ in marks],
        ops=len(marks) - failed,
        latencies=[(a, b, b - a) for a, b, _ in marks],
        attempted=len(marks),
        failed=failed,
        digest=canonical_digest(served),
        problems=problems,
        extra={"marks": marks},
    )
