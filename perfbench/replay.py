"""Workload ``replay_policies``: a capacity-planning replay under four policies.

8,000 jobs, streamed as ``ColumnarTrace.iter_views()`` rows, are
replayed onto ``Fleet(128)`` under FIFO, SJF, backfill and priority,
with durations from ``ModelRuntimePredictor``.  Nearly all the work is
in ``repro.sched``; ``core`` only prices one batch per admission day.

The jobs arrive over :data:`TRACE_DAYS` days, a quarter of the
generator's default load, so queues stay short and the replay's cost is
the engine's per-job path: admission, placement and release on a
128-server fleet.  Under heavy load the cost of backfill reservations
and priority preemptions varies twofold from one seed to the next,
which no cross-seed comparison can hold within a bound; those paths
run on a fixed stressed trace in ``report_suite`` instead.

An operation is one job scheduled or rejected, summed over the four
policies.  The latency percentiles are over simulated days: the time
the replay takes from admitting one day's arrivals to admitting the
next day's, which is every event, decision and placement of that day.
The lead-in before the first day (sorting and admission screening) and
the drain after the last day count towards throughput only.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from common import RoundResult, canonical_digest
from kernel import Calibration

JOBS = 8000
TRACE_DAYS = 204
FLEET_SERVERS = 128
POLICY_NAMES = ("fifo", "sjf", "backfill", "priority")


@dataclasses.dataclass
class Inputs:
    store: Path
    job_ids: List[int]


def prepare(seed: int, workdir: Path) -> Inputs:
    """Generate the trace and write it as a columnar store (untimed)."""
    from repro.trace.columnar import write_columnar
    from repro.trace.generator import TraceConfig, generate_trace

    jobs = generate_trace(
        config=TraceConfig(num_jobs=JOBS, seed=seed, trace_days=TRACE_DAYS)
    )
    store = workdir / "replay-store"
    write_columnar(jobs, store)
    return Inputs(store=store, job_ids=sorted(job.job_id for job in jobs))


def _policies() -> Dict[str, Callable[[], object]]:
    from repro.sched import BackfillPolicy, FifoPolicy, PriorityPolicy, SjfPolicy

    return {
        "fifo": FifoPolicy,
        "sjf": SjfPolicy,
        "backfill": BackfillPolicy,
        "priority": PriorityPolicy,
    }


class _DayStamps:
    """Delegates to a predictor and time-stamps every day's admission.

    The day-batched engine prices each submission day's arrivals with
    one ``batch_duration_hours`` call, so the stamps mark the start of
    every simulated day.
    """

    def __init__(self, predictor: object, stamps: List[float]) -> None:
        self._predictor = predictor
        self._stamps = stamps

    def __getattr__(self, name: str):
        return getattr(self._predictor, name)

    def batch_duration_hours(self, jobs):
        self._stamps.append(time.perf_counter())
        return self._predictor.batch_duration_hours(jobs)


def placement_pairs(placement) -> List[Tuple[int, int]]:
    """Sorted nonzero ``(server, gpus)`` pairs of a placement.

    Reads the dense ``gpus_by_server`` tuple, or any placement made of
    two parallel sequences (server indices and GPU counts), so the
    digest does not depend on how placements are stored.
    """
    dense = getattr(placement, "gpus_by_server", None)
    if dense is not None:
        return [(index, int(count)) for index, count in enumerate(dense) if count]
    sequences = [
        getattr(placement, f.name)
        for f in dataclasses.fields(placement)
        if not isinstance(getattr(placement, f.name), (int, float, str))
    ]
    if len(sequences) != 2 or len(sequences[0]) != len(sequences[1]):
        raise TypeError(f"cannot read (server, gpus) pairs from {placement!r}")
    return sorted(
        (int(server), int(count))
        for server, count in zip(*sequences)
        if count
    )


def check_outcome(outcome, job_ids: List[int], total_gpus: int) -> Tuple[str, List[str]]:
    """Digest of one policy's outcome, and every invariant it breaks."""
    problems: List[str] = []
    seen = sorted(
        [o.job.job_id for o in outcome.outcomes]
        + [job.job_id for job in outcome.rejected]
    )
    if seen != job_ids:
        problems.append(
            f"{outcome.policy}: {len(seen)} jobs completed or rejected, "
            f"expected each of {len(job_ids)} exactly once"
        )
    deltas: List[Tuple[float, int]] = []
    rows = []
    for o in sorted(outcome.outcomes, key=lambda o: o.job.job_id):
        segments = []
        for segment in o.segments:
            pairs = placement_pairs(segment.placement)
            if segment.start_hour < o.arrival_hour:
                problems.append(
                    f"{outcome.policy}: job {o.job.job_id} starts at "
                    f"{segment.start_hour} before its arrival {o.arrival_hour}"
                )
            gpus = sum(count for _, count in pairs)
            deltas.append((segment.start_hour, gpus))
            deltas.append((segment.end_hour, -gpus))
            segments.append([segment.start_hour, segment.end_hour, pairs])
        rows.append([o.job.job_id, o.arrival_hour, o.service_hours, o.retries, segments])
    busy = 0
    # Releases sort before starts at the same hour.
    for hour, delta in sorted(deltas):
        busy += delta
        if busy > total_gpus:
            problems.append(
                f"{outcome.policy}: {busy} GPUs busy at hour {hour}, "
                f"fleet has {total_gpus}"
            )
            break
    rejected = sorted(job.job_id for job in outcome.rejected)
    return canonical_digest({"jobs": rows, "rejected": rejected}), problems


def run_round(inputs: Inputs, cal: Calibration, tracing=nullcontext) -> RoundResult:
    """Open the store, then replay it under each policy in turn."""
    from repro.sched import Fleet, ModelRuntimePredictor, run_schedule
    from repro.trace.columnar import ColumnarTrace

    cal.sample()
    with tracing():
        start = time.perf_counter()
        views = list(ColumnarTrace.open(inputs.store).iter_views())
        setup_end = time.perf_counter()
    setup = (start, setup_end)

    policies = _policies()
    replays = []
    digests: Dict[str, str] = {}
    problems: List[str] = []
    failed = 0
    ops = 0
    for name in POLICY_NAMES:
        cal.sample()
        stamps: List[float] = []
        fleet = Fleet(FLEET_SERVERS)
        predictor = _DayStamps(ModelRuntimePredictor(), stamps)
        with tracing():
            start = time.perf_counter()
            try:
                outcome = run_schedule(
                    views, fleet, policies[name](), predictor=predictor
                )
            except Exception as error:  # counted as a failed replay
                failed += 1
                problems.append(f"{name}: replay raised {error!r}")
                continue
            end = time.perf_counter()
        replays.append([start] + stamps + [end])
        ops += len(outcome.outcomes) + len(outcome.rejected)
        digests[name], found = check_outcome(
            outcome, inputs.job_ids, fleet.total_gpus
        )
        problems.extend(found)
    cal.sample()

    return RoundResult(
        setup=setup,
        timed=[(marks[0], marks[-1]) for marks in replays],
        ops=ops,
        latencies=[
            (marks[0], marks[-1], b - a)
            for marks in replays
            for a, b in zip(marks[1:-2], marks[2:-1])
        ],
        attempted=len(POLICY_NAMES),
        failed=failed,
        digest=canonical_digest(digests),
        problems=problems,
    )
