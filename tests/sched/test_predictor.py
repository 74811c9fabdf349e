"""Model-predicted runtimes: determinism, clamping, architecture effects."""

import pytest

from repro.core.architectures import Architecture
from repro.sched import ModelRuntimePredictor
from repro.sched.predictor import sample_durations

from sched_helpers import make_job

#: ``sample_durations(jobs 0-2, seed=3)``, as drawn since the log-normal
#: runtimes were introduced.
LEGACY_DRAW = {
    0: 23.155912007492375,
    1: 2.0425754860086305,
    2: 2.562802441271627,
}


class TestValidation:
    def test_median_steps_positive(self):
        with pytest.raises(ValueError):
            ModelRuntimePredictor(median_steps=0.0)

    def test_sigma_non_negative(self):
        with pytest.raises(ValueError):
            ModelRuntimePredictor(sigma=-0.1)

    def test_max_hours_positive(self):
        with pytest.raises(ValueError):
            ModelRuntimePredictor(max_hours=0.0)


class TestPrediction:
    def test_deterministic_per_job_id(self):
        predictor = ModelRuntimePredictor()
        job = make_job(42)
        assert predictor.duration_hours(job) == predictor.duration_hours(job)
        again = ModelRuntimePredictor()
        assert predictor.duration_hours(job) == again.duration_hours(job)

    def test_seed_changes_step_budget(self):
        job = make_job(42)
        first = ModelRuntimePredictor(seed=1).num_steps(job.job_id)
        second = ModelRuntimePredictor(seed=2).num_steps(job.job_id)
        assert first != second

    def test_step_budget_is_architecture_independent(self):
        # The same job id keeps its training work across deployments;
        # only the step *time* changes.  This is what makes the what-if
        # comparison apples-to-apples.
        predictor = ModelRuntimePredictor()
        assert predictor.num_steps(7) == predictor.num_steps(7)

    def test_faster_architecture_predicts_shorter_job(self):
        predictor = ModelRuntimePredictor(max_hours=None)
        heavy_sync = make_job(
            0, Architecture.PS_WORKER, 16, weight_traffic=4e9
        )
        light_sync = make_job(
            0, Architecture.ALLREDUCE_LOCAL, 8, weight_traffic=4e7
        )
        assert predictor.duration_hours(light_sync) < predictor.duration_hours(
            heavy_sync
        )

    def test_clamp(self):
        job = make_job(0, Architecture.PS_WORKER, 16, weight_traffic=1e12)
        clamped = ModelRuntimePredictor(max_hours=1.0)
        assert clamped.duration_hours(job) == 1.0
        unclamped = ModelRuntimePredictor(max_hours=None)
        assert unclamped.duration_hours(job) > 1.0

    def test_durations_keyed_by_job_id(self):
        predictor = ModelRuntimePredictor()
        jobs = [make_job(3), make_job(8)]
        durations = predictor.durations(jobs)
        assert set(durations) == {3, 8}
        assert all(value > 0 for value in durations.values())


class TestSampleDurations:
    def test_matches_legacy_draw(self):
        """The draw is keyed on ``(seed, job_id)`` and must not drift:
        every default-duration schedule in the reports is built on it."""
        jobs = [make_job(i) for i in range(3)]
        assert sample_durations(jobs, seed=3) == LEGACY_DRAW

    def test_different_seeds_differ(self, small_trace):
        assert sample_durations(small_trace, seed=3) != sample_durations(
            small_trace, seed=4
        )

    def test_positive(self, small_trace):
        assert all(hours > 0 for hours in sample_durations(small_trace).values())

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_durations([], median_hours=0.0)
