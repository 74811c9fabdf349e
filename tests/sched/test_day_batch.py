"""The engine's output, pinned by golden digests.

Each digest (:func:`sched_helpers.outcome_digest`) covers a whole
:class:`~repro.sched.outcomes.ScheduleOutcome`: outcomes, segments and
placements, rejections and telemetry samples.  They were recorded while
the repo still carried a per-event reference engine beside the
day-batched one, and both engines produced each digest byte for byte.
So a match here means the engine still schedules exactly as the
per-event reference did -- on the suite's 20k-job default trace across
every bundled policy, with and without injected faults, and on small
traces that reach paths the big run may miss.
"""

import random
from types import SimpleNamespace

import pytest

from repro.analysis.context import default_trace
from repro.core.architectures import Architecture
from repro.sched import engine
from repro.sched.engine import run_schedule
from repro.sched.faults import CrashSpec, SchedFaults, StormSpec
from repro.sched.fleet import Fleet
from repro.sched.policies import (
    BackfillPolicy,
    FifoPolicy,
    PriorityPolicy,
    SchedulingDecision,
    SjfPolicy,
)
from repro.sched.predictor import ModelRuntimePredictor
from repro.trace.generator import TraceConfig, generate_trace

from sched_helpers import make_job, outcome_digest

#: Fleet geometry for the 20k regression: loaded enough that queues
#: form (so policies actually decide) while keeping each replay in
#: seconds rather than minutes.
_SERVERS = 160

_POLICIES = {
    "fifo": FifoPolicy,
    "sjf": SjfPolicy,
    "backfill": BackfillPolicy,
    "priority": PriorityPolicy,
}

#: Crashes and a storm landing inside the default trace's submission
#: window (days 23-43), so every fault actually fires mid-replay.
_FAULTS = SchedFaults(
    crashes=(
        CrashSpec(hour=23 * 24.0 + 5.0),
        CrashSpec(hour=30 * 24.0 + 1.0, job_id=7, backoff_hours=3.0),
    ),
    storms=(
        StormSpec(
            start_hour=26 * 24.0,
            ticks=3,
            interval_hours=4.0,
            victims_per_tick=2,
        ),
    ),
)

_GOLDEN = {
    "healthy-backfill": "71c574448b9e29123c61f44032845d5ecc4e5e90e78f50087b75736fa70c195b",
    "healthy-fifo": "5640cbb475468c00a452e7f3a68afdb5915f4f90e0fa6d0533039835a968b16c",
    "healthy-priority": "633919b692b3da6455516b7cab1f6c2d33c16f3769a3d32ccc5007e48c980449",
    "healthy-sjf": "c5e7aec9b20079a7675185c835dc14d19ea54d5abda7e821398f286d257a74d9",
    "faults-backfill": "3d7787a0090424f50b766b965e065cdbee7a65f52099747e2b38d304cd8418c8",
    "faults-fifo": "5abe03c6669cfeed529aed857984595570bad46b26b54ef5a72c381da0edb583",
    "faults-priority": "3455d3679f347e9d0beafd9d7474c7d667d46d982ce4dd64e1d4ca1b53116880",
    "faults-sjf": "1eb2a64d7883ac354df968a9c99284a926e27da571f173b43b525a9d9e2967e1",
    "model_predicted": "715d72dbccc8128ba32492c2c0baa3bed8b4509ca743e83fe62cbba484791f93",
    "explicit_durations": "af25c6388a95d8af6401604cfc2aa1ae7b59cf7f1aae2c655c17ab3ad56cadbb",
    "non_preempting_priority": "dbf0ca2c5c6f0a2d8efbdaf15ba14a0c5e555c6d2953c379f33e1f5869a47ce5",
    "faults_before_first_arrival": "005888dae3bd140302e53eb4b712140124305d6caaa714c22404660cea2e378c",
    "rejections": "1555ecbe0eca897f1b83bee3bc8625c92f681e2c51b40c1f12e2d517428a7226",
    "empty": "d7eafcb76ef391947568e8d36e9e4f0bc6c45ee34f0016268078f2d60aec568a",
}


@pytest.mark.slow
@pytest.mark.parametrize("policy_name", sorted(_POLICIES))
@pytest.mark.parametrize("faulty", [False, True], ids=["healthy", "faults"])
def test_day_engine_matches_event_engine_on_default_trace(
    policy_name, faulty
):
    trace = default_trace()
    assert len(trace) == 20000
    outcome = run_schedule(
        trace,
        Fleet(_SERVERS),
        _POLICIES[policy_name](),
        faults=_FAULTS if faulty else None,
    )
    case = f"{'faults' if faulty else 'healthy'}-{policy_name}"
    assert outcome_digest(outcome) == _GOLDEN[case]


class TestDayEngineSmall:
    """Cheap golden cases exercising paths the big run may miss."""

    @pytest.fixture(scope="class")
    def trace(self):
        return generate_trace(config=TraceConfig(num_jobs=600, seed=17))

    def test_model_predicted_durations_resolve_per_day(self, trace):
        """Predicted durations come from one vectorized batch per day;
        they must reproduce the per-job floats exactly."""
        outcome = run_schedule(
            trace, Fleet(8), SjfPolicy(), predictor=ModelRuntimePredictor()
        )
        assert outcome_digest(outcome) == _GOLDEN["model_predicted"]

    def test_explicit_duration_dict(self, trace):
        durations = {job.job_id: 0.5 + (job.job_id % 7) for job in trace}
        outcome = run_schedule(
            trace, Fleet(8), FifoPolicy(), durations=durations
        )
        assert outcome_digest(outcome) == _GOLDEN["explicit_durations"]

    def test_non_preempting_priority_is_screened_identically(self, trace):
        policy = PriorityPolicy(preempt=False)
        assert policy.may_preempt is False
        outcome = run_schedule(trace, Fleet(6), policy)
        assert outcome_digest(outcome) == _GOLDEN["non_preempting_priority"]

    def test_faults_firing_before_first_arrival(self, trace):
        late = [job for job in trace if job.submit_day >= 2]
        faults = SchedFaults(
            crashes=(CrashSpec(hour=1.0),),
            storms=(StormSpec(start_hour=2.0),),
        )
        outcome = run_schedule(late, Fleet(6), FifoPolicy(), faults=faults)
        assert outcome_digest(outcome) == _GOLDEN["faults_before_first_arrival"]

    def test_rejections_preserve_trace_order(self, trace):
        outcome = run_schedule(trace, Fleet(2), FifoPolicy())
        assert len(outcome.rejected) > 0
        assert outcome_digest(outcome) == _GOLDEN["rejections"]

    def test_empty_trace(self):
        outcome = run_schedule([], Fleet(2), FifoPolicy())
        assert outcome.outcomes == []
        assert outcome.rejected == []
        assert outcome_digest(outcome) == _GOLDEN["empty"]


class _Flapping:
    """A policy that never converges: it starts the head, then evicts it.

    With a second job waiting the queue never drains, so the engine asks
    again after every eviction and every start.
    """

    name = "flapping"

    def select(self, context):
        if context.running:
            return SchedulingDecision(
                preemptions=(context.running[0].job.job_id,)
            )
        return SchedulingDecision(starts=(context.queue[0].job_id,))


class TestDecisionRounds:
    def test_exhausting_the_bound_raises(self, monkeypatch):
        monkeypatch.setattr(engine, "_MAX_DECISION_ROUNDS", 5)
        with pytest.raises(RuntimeError, match="5 decision rounds at hour 24.0"):
            run_schedule(
                [make_job(0, submit_day=1), make_job(1, submit_day=1)],
                Fleet(1),
                _Flapping(),
                durations={0: 1.0, 1: 1.0},
            )

    def test_screened_timestamps_do_not_exhaust_the_bound(self, monkeypatch):
        # Two rounds suffice when each timestamp starts at most one job;
        # at hour 24 the full fleet screens job 1 out without a round.
        monkeypatch.setattr(engine, "_MAX_DECISION_ROUNDS", 2)
        jobs = [
            make_job(0, Architecture.ALLREDUCE_LOCAL, 8, submit_day=0),
            make_job(1, Architecture.ALLREDUCE_LOCAL, 8, submit_day=1),
        ]
        outcome = run_schedule(
            jobs, Fleet(1), FifoPolicy(), durations={0: 48.0, 1: 1.0}
        )
        assert [o.first_start_hour for o in outcome.outcomes] == [0.0, 48.0]
        assert [s.hour for s in outcome.telemetry.samples] == [
            0.0,
            24.0,
            48.0,
            49.0,
        ]


class TestMayPreempt:
    def test_bundled_policies_declare_preemption(self):
        assert FifoPolicy().may_preempt is False
        assert SjfPolicy().may_preempt is False
        assert BackfillPolicy().may_preempt is False
        assert PriorityPolicy().may_preempt is True
        assert PriorityPolicy(preempt=False).may_preempt is False

    def test_unknown_policies_are_treated_as_preempting(self):
        class Opaque:
            name = "opaque"

            def select(self, context):  # pragma: no cover - never called
                raise AssertionError

        assert getattr(Opaque(), "may_preempt", True) is True


class TestFeasibilityCaps:
    """``fits`` answers exactly what a trial placement would.

    ``fits``, the engine's queue screen (``any_fits``) and
    ``can_ever_place`` ask one predicate; these tests pin it against the
    ground truth: ``try_place`` on a clone succeeds.
    """

    @staticmethod
    def occupancies(fleet, seed, steps=40):
        """Yield ``fleet`` after each step of a seeded place/release walk."""
        rng = random.Random(seed)
        held = []
        architectures = list(Architecture)
        for _ in range(steps):
            if held and rng.random() < 0.4:
                fleet.release(held.pop(rng.randrange(len(held))))
            else:
                width = rng.randint(1, fleet.gpus_per_server + 2)
                placement = fleet.try_place(rng.choice(architectures), width)
                if placement is not None:
                    held.append(placement)
            yield fleet

    def test_caps_match_fits_across_occupancies(self):
        for seed, geometry in enumerate([(5, 8), (5, 8), (3, 4), (7, 2)]):
            for state in self.occupancies(Fleet(*geometry), seed):
                for architecture in Architecture:
                    for width in range(1, state.total_gpus + 2):
                        trial = state.clone().try_place(architecture, width)
                        placed = trial is not None
                        job = SimpleNamespace(
                            workload_type=architecture, num_cnodes=width
                        )
                        where = (state.free_by_server, architecture, width)
                        assert state.fits(architecture, width) is placed, where
                        assert state.any_fits([job]) is placed, where

    def test_can_ever_place_is_fits_on_an_empty_fleet(self):
        for num_servers, gpus_per_server in [(5, 8), (3, 4), (7, 2), (1, 1)]:
            fleet = Fleet(num_servers, gpus_per_server)
            fleet.try_place(Architecture.SINGLE, 1)
            for architecture in Architecture:
                for width in range(1, fleet.total_gpus + 2):
                    empty = Fleet(num_servers, gpus_per_server)
                    assert fleet.can_ever_place(architecture, width) is (
                        empty.fits(architecture, width)
                    ), (num_servers, gpus_per_server, architecture, width)


class TestBatchDurations:
    def test_batch_matches_scalar_exactly(self):
        trace = generate_trace(config=TraceConfig(num_jobs=400, seed=23))
        predictor = ModelRuntimePredictor()
        batch = predictor.batch_duration_hours(trace)
        for job in trace:
            assert batch[job.job_id] == predictor.duration_hours(job)

    def test_empty_batch(self):
        assert ModelRuntimePredictor().batch_duration_hours([]) == {}
