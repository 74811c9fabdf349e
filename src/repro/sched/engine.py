"""The discrete-event gang-scheduling engine.

:func:`run_schedule` replays a trace of :class:`~repro.trace.schema.JobRecord`
arrivals (jobs arrive at ``submit_day * 24`` hours) against a
:class:`~repro.sched.fleet.Fleet` under a pluggable
:class:`~repro.sched.policies.Policy`.  The engine owns the mechanics
-- the event clock, placements, preemption bookkeeping and telemetry
sampling -- while the policy owns every ordering decision.

The loop is the textbook one: pop all events at the next timestamp
(completions release GPUs, arrivals join the queue), then repeatedly
ask the policy for a :class:`~repro.sched.policies.SchedulingDecision`
and apply it until the policy has nothing more to do.  Preempted jobs
re-queue with their remaining hours reduced by the time they ran, so
work is conserved; every run of a job is recorded as an
:class:`~repro.sched.outcomes.ExecutionSegment` and the per-job
history rolls up into :class:`~repro.sched.outcomes.JobOutcome`.

Determinism: given the same jobs, durations, fleet geometry and
policy, the engine produces the identical schedule -- every tie is
broken on (hour, sequence number) and policies are required to order
deterministically.

Arrivals are admitted one *submission day* at a time
(:func:`repro.trace.schema.iter_day_groups`): each day is one heap
event carrying the lowest sequence numbers, so a day's batch joins the
queue before anything else happening at that hour.  A day's
model-predicted durations come from one vectorized
:meth:`~repro.sched.predictor.ModelRuntimePredictor.batch_duration_hours`
call, and for non-preempting policies a whole-queue feasibility screen
(:meth:`~repro.sched.fleet.Fleet.any_fits`) skips the policy round when
nothing can start.  Both are exact reductions of the
per-job path: the same floats, the same event ordering, the same
schedule.  Golden digests of whole
:class:`~repro.sched.outcomes.ScheduleOutcome` values, recorded when a
per-event reference engine still existed and agreed byte for byte,
pin this in ``tests/sched/test_day_batch.py``.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.architectures import Architecture
from ..obs import DEBUG, WARNING, get_obs
from ..trace.schema import JobRecord, iter_day_groups
from .faults import SchedFaults
from .fleet import Fleet, Placement
from .outcomes import (
    ExecutionSegment,
    FleetTelemetry,
    JobOutcome,
    ScheduleOutcome,
    TelemetrySample,
)
from .policies import (
    PendingJob,
    Policy,
    RunningJob,
    SchedulingContext,
    SchedulingDecision,
)
from .predictor import ModelRuntimePredictor, sample_durations

__all__ = ["run_schedule"]

_HOURS_PER_DAY = 24.0

#: Safety bound on policy invocations per event timestamp; a correct
#: policy converges in a handful of rounds, so running out raises.
_MAX_DECISION_ROUNDS = 10000

# Event kinds.  Ties on the hour break on the sequence number, which is
# unique per event; day admissions hold the lowest ones.
_COMPLETION = 0
_ARRIVAL = 1  # a crashed job's retry, after its backoff
_CRASH = 2
_STORM_TICK = 3
_DAY = 4


class _JobState:
    """Mutable per-job bookkeeping inside one engine run."""

    __slots__ = (
        "job",
        "arrival_hour",
        "service_hours",
        "remaining_hours",
        "segments",
        "placement",
        "segment_start",
        "incarnation",
        "retries",
    )

    def __init__(self, job: JobRecord, arrival_hour: float, service_hours: float):
        self.job = job
        self.arrival_hour = arrival_hour
        self.service_hours = service_hours
        self.remaining_hours = service_hours
        self.segments: List[ExecutionSegment] = []
        self.placement: Optional[Placement] = None
        self.segment_start = 0.0
        #: Bumped on every (re)start so stale completion events are
        #: recognizable after a preemption.
        self.incarnation = 0
        #: Failure/requeue cycles (injected worker crashes).
        self.retries = 0


def run_schedule(
    jobs: Iterable[JobRecord],
    fleet: Fleet,
    policy: Policy,
    durations: Optional[Dict[int, float]] = None,
    predictor: Optional[ModelRuntimePredictor] = None,
    collect_telemetry: bool = True,
    faults: Optional[SchedFaults] = None,
) -> ScheduleOutcome:
    """Schedule a trace onto a fleet under a policy.

    Args:
        jobs: The trace; arrivals happen at ``submit_day * 24`` hours.
            Accepts :class:`~repro.trace.schema.JobRecord` objects or
            the lazy :class:`~repro.trace.schema.JobView` rows a
            columnar store streams.
        fleet: The cluster.  Mutated during the run; pass a fresh one.
        policy: The scheduling discipline.
        durations: Per-job service hours keyed by job id.  When absent,
            ``predictor`` supplies them, one batch per submission day;
            when that is absent too, the log-normal
            :func:`~repro.sched.predictor.sample_durations` draw is used.
        predictor: Model-based runtime predictor (see
            :class:`~repro.sched.predictor.ModelRuntimePredictor`).
        collect_telemetry: Sample fleet state at every event timestamp.
        faults: Injected disruptions (worker crashes, preemption
            storms); ``None`` = failure-free replay.

    Returns:
        The per-job outcomes, rejects and fleet telemetry.  A job wider
        than the fleet, or one whose shape can never fit it (say, more
        PS workers than servers), is recorded in ``rejected``.

    Raises:
        RuntimeError: The policy leaves placeable jobs queued on an idle
            fleet with nothing left to happen, or does not converge
            within ``_MAX_DECISION_ROUNDS`` decisions at one timestamp.
    """
    if faults is None:
        faults = SchedFaults()
    obs = get_obs()
    policy_name = getattr(policy, "name", type(policy).__name__)
    trace = sorted(jobs, key=lambda j: (j.submit_day, j.job_id))
    if durations is None and predictor is None:
        durations = sample_durations(trace)

    rejected: List[JobRecord] = []
    admitted: List[JobRecord] = []
    #: Admission screen memo: geometry feasibility is a pure function
    #: of (architecture, width), so a million-job trace asks the fleet
    #: once per distinct shape instead of once per job.
    feasible: Dict[Tuple[Architecture, int], bool] = {}
    for job in trace:
        shape = (job.workload_type, job.num_cnodes)
        placeable = feasible.get(shape)
        if placeable is None:
            placeable = fleet.can_ever_place(*shape)
            feasible[shape] = placeable
        if placeable:
            admitted.append(job)
        else:
            rejected.append(job)

    # Event heap: (hour, sequence, kind, key, incarnation).  Day
    # admissions take the lowest sequence numbers, so a day's batch
    # joins the queue before any other event at its hour; injected
    # faults follow (key = index into ``faults.crashes`` /
    # ``faults.storms``), then every completion and retry pushed while
    # the replay runs.  Crashes and storm ticks only arm at pop time and
    # fire after the timestamp's scheduling pass, so a crash can hit a
    # job that just started.
    day_groups = list(iter_day_groups(admitted))
    events: List[Tuple[float, int, int, int, int]] = [
        (day * _HOURS_PER_DAY, index, _DAY, index, 0)
        for index, (day, _) in enumerate(day_groups)
    ]
    sequence = len(events)
    for crash_index, crash in enumerate(faults.crashes):
        events.append((crash.hour, sequence, _CRASH, crash_index, 0))
        sequence += 1
    for storm_index, storm in enumerate(faults.storms):
        for tick in storm.tick_hours():
            events.append((tick, sequence, _STORM_TICK, storm_index, 0))
            sequence += 1
    heapq.heapify(events)

    states: Dict[int, _JobState] = {}
    queue: List[PendingJob] = []
    running: Dict[int, RunningJob] = {}
    finished: List[JobOutcome] = []
    samples: List[TelemetrySample] = []
    active_gpu_hours = 0.0
    previous_hour = events[0][0] if events else 0.0
    #: Skip the policy round entirely when the queue provably cannot
    #: start anything -- exact only for policies that never preempt.
    screen_queue = not getattr(policy, "may_preempt", True)
    #: Fault events whose hour has passed but which have not found a
    #: running victim yet (indices into ``faults.crashes`` /
    #: ``faults.storms``).
    pending_crashes: List[int] = []
    pending_storm_ticks: List[int] = []

    def start_job(state: _JobState, placement: Placement, now: float) -> None:
        nonlocal sequence
        state.placement = placement
        state.segment_start = now
        state.incarnation += 1
        end = now + state.remaining_hours
        sequence += 1
        heapq.heappush(
            events,
            (end, sequence, _COMPLETION, state.job.job_id, state.incarnation),
        )
        running[state.job.job_id] = RunningJob(
            job=state.job, placement=placement, start_hour=now, end_hour=end
        )
        obs.metrics.counter("sched.starts").inc()

    def preempt_job(state: _JobState, now: float) -> None:
        obs.metrics.counter("sched.preemptions").inc()
        obs.event(
            "sched.preempted",
            level=DEBUG,
            job_id=state.job.job_id,
            hour=now,
            num_cnodes=state.job.num_cnodes,
        )
        state.segments.append(
            ExecutionSegment(
                start_hour=state.segment_start,
                end_hour=now,
                placement=state.placement,
            )
        )
        state.remaining_hours -= now - state.segment_start
        fleet.release(state.placement)
        state.placement = None
        state.incarnation += 1  # invalidate the in-flight completion
        del running[state.job.job_id]
        queue.append(
            PendingJob(
                job=state.job,
                arrival_hour=state.arrival_hour,
                remaining_hours=state.remaining_hours,
            )
        )

    def crash_job(state: _JobState, now: float, backoff_hours: float) -> None:
        """A worker of a running job dies: fail, back off, re-queue.

        Work is conserved (the retry resumes from the crashed segment's
        progress, as checkpoint-restore would); the operational symptom
        is the failure event, the retry counter and the backoff gap --
        not lost service hours.
        """
        nonlocal sequence
        state.segments.append(
            ExecutionSegment(
                start_hour=state.segment_start,
                end_hour=now,
                placement=state.placement,
            )
        )
        state.remaining_hours -= now - state.segment_start
        fleet.release(state.placement)
        state.placement = None
        state.incarnation += 1  # invalidate the in-flight completion
        state.retries += 1
        del running[state.job.job_id]
        obs.metrics.counter("sched.failures").inc()
        obs.event(
            "sched.job_failed",
            level=WARNING,
            job_id=state.job.job_id,
            hour=now,
            retries=state.retries,
            backoff_hours=backoff_hours,
        )
        # The retry is a fresh arrival after the backoff.
        sequence += 1
        heapq.heappush(
            events,
            (now + backoff_hours, sequence, _ARRIVAL, state.job.job_id, 0),
        )

    while events:
        now = events[0][0]
        # Integrate GPU activity over the idle gap just ended.
        active_gpu_hours += fleet.busy_gpus * (now - previous_hour)
        previous_hour = now
        while events and events[0][0] == now:
            _, _, kind, key, incarnation = heapq.heappop(events)
            if kind == _DAY:
                # Admit the day's arrivals as one batch: durations in one
                # vectorized model evaluation, queue entries in one
                # append pass.
                _, group = day_groups[key]
                day_service = (
                    durations
                    if durations is not None
                    else predictor.batch_duration_hours(group)
                )
                for job in group:
                    state = _JobState(job, now, day_service[job.job_id])
                    states[job.job_id] = state
                    queue.append(
                        PendingJob(
                            job=job,
                            arrival_hour=now,
                            remaining_hours=state.remaining_hours,
                        )
                    )
                continue
            if kind == _CRASH:
                # Crashes fire after this timestamp's scheduling pass
                # (below), when jobs started at this instant are
                # visible as running victims.
                pending_crashes.append(key)
                continue
            if kind == _STORM_TICK:
                pending_storm_ticks.append(key)
                continue
            state = states[key]
            if kind == _COMPLETION:
                if incarnation != state.incarnation or state.placement is None:
                    continue  # stale completion of a preempted run
                state.segments.append(
                    ExecutionSegment(
                        start_hour=state.segment_start,
                        end_hour=now,
                        placement=state.placement,
                    )
                )
                state.remaining_hours = 0.0
                fleet.release(state.placement)
                state.placement = None
                del running[key]
                finished.append(
                    JobOutcome(
                        job=state.job,
                        arrival_hour=state.arrival_hour,
                        service_hours=state.service_hours,
                        segments=tuple(state.segments),
                        retries=state.retries,
                    )
                )
                obs.metrics.counter("sched.completions").inc()
            else:
                queue.append(
                    PendingJob(
                        job=state.job,
                        arrival_hour=state.arrival_hour,
                        remaining_hours=state.remaining_hours,
                    )
                )

        if queue and screen_queue and not fleet.any_fits(
            pending.job for pending in queue
        ):
            # Provably empty decision: skip the policy round.
            obs.metrics.counter("sched.screened_rounds").inc()
        else:
            for _ in range(_MAX_DECISION_ROUNDS):
                if not queue:
                    break
                context = SchedulingContext(
                    now=now,
                    fleet=fleet,
                    queue=tuple(queue),
                    running=tuple(running.values()),
                )
                decision: SchedulingDecision = policy.select(context)
                if decision.is_empty:
                    break
                applied = 0
                for job_id in decision.preemptions:
                    state = states.get(job_id)
                    if state is None or state.placement is None:
                        continue  # policy named a job that is not running
                    preempt_job(state, now)
                    applied += 1
                pending_by_id = {p.job_id: p for p in queue}
                for job_id in decision.starts:
                    pending = pending_by_id.get(job_id)
                    if pending is None:
                        continue  # policy named a job that is not queued
                    state = states[job_id]
                    placement = fleet.try_place(
                        state.job.workload_type, state.job.num_cnodes
                    )
                    if placement is None:
                        continue  # plan no longer fits the live fleet
                    if pending is not queue[0]:
                        # Started past an older waiter: a backfill (or
                        # priority jump) by the policy's own choice.
                        obs.metrics.counter("sched.backfills").inc()
                    queue.remove(pending)
                    start_job(state, placement, now)
                    applied += 1
                if applied == 0:
                    break  # non-empty decision that changed nothing
            else:
                raise RuntimeError(
                    f"scheduler stuck: policy {policy_name!r} did not "
                    f"converge within {_MAX_DECISION_ROUNDS} decision rounds "
                    f"at hour {now}"
                )

        # Injected faults fire once the timestamp's scheduling settled:
        # storms evict whoever is running now; a crash kills its victim
        # (or waits armed until one exists).  Evicted/failed jobs sit
        # queued until the next event -- their freed GPUs are claimed
        # then, exactly as a monitoring-loop detection lag would.
        if pending_storm_ticks:
            for storm_index in pending_storm_ticks:
                storm = faults.storms[storm_index]
                for victim in sorted(running)[: storm.victims_per_tick]:
                    preempt_job(states[victim], now)
            pending_storm_ticks.clear()
        if pending_crashes:
            still_armed: List[int] = []
            for crash_index in pending_crashes:
                crash = faults.crashes[crash_index]
                victim: Optional[int] = None
                if running:
                    if crash.job_id is not None and crash.job_id in running:
                        victim = crash.job_id
                    else:
                        victim = min(running)
                if victim is None:
                    still_armed.append(crash_index)
                    continue
                crash_job(states[victim], now, crash.backoff_hours)
            pending_crashes[:] = still_armed

        if collect_telemetry:
            samples.append(
                TelemetrySample(
                    hour=now,
                    busy_gpus=fleet.busy_gpus,
                    free_gpus=fleet.free_gpus,
                    running_jobs=len(running),
                    queue_depth=len(queue),
                    fragmentation=fleet.fragmentation(),
                )
            )
            # Mirror the sample into the metric registry so fleet state
            # shows up in the obs summary alongside everything else.
            obs.metrics.gauge("sched.queue_depth").set(len(queue))
            obs.metrics.gauge("sched.busy_gpus").set(fleet.busy_gpus)
            obs.metrics.gauge("sched.fragmentation").set(fleet.fragmentation())
        if not events and queue and not running:
            # Placeable jobs remain, nothing running, no future events:
            # the policy refuses to start them and never will.
            raise RuntimeError(
                "scheduler stuck: policy left placeable jobs queued on an "
                "idle cluster"
            )

    outcomes = sorted(
        finished, key=lambda o: (o.job.submit_day, o.job.job_id)
    )
    telemetry = FleetTelemetry(
        samples=tuple(samples),
        total_gpus=fleet.total_gpus,
        active_gpu_hours=active_gpu_hours,
    )
    if rejected:
        obs.metrics.counter("sched.rejections").inc(len(rejected))
    obs.metrics.gauge("sched.utilization").set(telemetry.average_utilization())
    obs.event(
        "sched.done",
        level=DEBUG,
        policy=policy_name,
        jobs=len(trace),
        finished=len(finished),
        rejected=len(rejected),
        utilization=telemetry.average_utilization(),
        active_gpu_hours=active_gpu_hours,
    )
    return ScheduleOutcome(
        policy=policy_name,
        outcomes=outcomes,
        total_gpus=fleet.total_gpus,
        rejected=rejected,
        telemetry=telemetry,
    )
