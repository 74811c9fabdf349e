"""Opt-in failed-experiment retries in ``run_suite``."""

import pytest

from repro.runtime import ResultCache, failed_ids, run_suite
from repro.runtime.result import ExperimentResult


def _toy_registry(monkeypatch, experiments):
    import repro.analysis.registry as registry_module

    monkeypatch.setattr(registry_module, "EXPERIMENTS", experiments)


def _toy(experiment_id, value):
    return ExperimentResult(
        experiment=experiment_id, title="toy", rows=[{"v": value}]
    )


def _flaky(experiment_id, failures, calls):
    """An experiment that fails its first ``failures`` calls."""

    def run():
        calls.append(experiment_id)
        if calls.count(experiment_id) <= failures:
            raise RuntimeError(f"transient failure in {experiment_id}")
        return _toy(experiment_id, 1)

    return run


class TestRetries:
    def test_default_is_no_retry(self, monkeypatch):
        calls = []
        _toy_registry(monkeypatch, {"flaky": _flaky("flaky", 1, calls)})
        outcomes = run_suite(["flaky"], jobs=1)
        assert failed_ids(outcomes) == ["flaky"]
        assert calls == ["flaky"]
        assert outcomes[0].retries == 0

    def test_retry_recovers_transient_failure(self, monkeypatch):
        calls = []
        _toy_registry(monkeypatch, {"flaky": _flaky("flaky", 1, calls)})
        outcomes = run_suite(["flaky"], jobs=1, retries=1)
        assert outcomes[0].ok
        assert outcomes[0].retries == 1
        assert calls == ["flaky", "flaky"]

    def test_budget_is_bounded(self, monkeypatch):
        calls = []
        _toy_registry(monkeypatch, {"flaky": _flaky("flaky", 10, calls)})
        outcomes = run_suite(["flaky"], jobs=1, retries=2)
        assert failed_ids(outcomes) == ["flaky"]
        assert outcomes[0].retries == 2
        assert len(calls) == 3  # initial attempt + 2 retries

    def test_only_failures_are_retried(self, monkeypatch):
        calls = []
        _toy_registry(
            monkeypatch,
            {
                "steady": _flaky("steady", 0, calls),
                "flaky": _flaky("flaky", 1, calls),
            },
        )
        outcomes = run_suite(["steady", "flaky"], jobs=1, retries=1)
        assert [o.experiment_id for o in outcomes] == ["steady", "flaky"]
        assert all(o.ok for o in outcomes)
        assert outcomes[0].retries == 0
        assert outcomes[1].retries == 1
        assert calls.count("steady") == 1
        assert calls.count("flaky") == 2

    def test_recovered_result_is_cached(self, monkeypatch, tmp_path):
        calls = []
        _toy_registry(monkeypatch, {"flaky": _flaky("flaky", 1, calls)})
        cache = ResultCache(tmp_path)
        first = run_suite(["flaky"], jobs=1, cache=cache, retries=1)
        second = run_suite(["flaky"], jobs=1, cache=cache, retries=1)
        assert first[0].ok and not first[0].cached
        assert second[0].ok and second[0].cached
        assert calls.count("flaky") == 2  # never re-run after recovery

    def test_retry_emits_obs_events(self, monkeypatch):
        from repro.obs import MemorySink, get_obs, reset_obs

        reset_obs()
        sink = get_obs().add_sink(MemorySink())
        try:
            calls = []
            _toy_registry(monkeypatch, {"flaky": _flaky("flaky", 1, calls)})
            run_suite(["flaky"], jobs=1, retries=3)
        finally:
            reset_obs()
        events = sink.of_kind("runtime.retry")
        assert len(events) == 1
        assert events[0]["experiment"] == "flaky"
        assert events[0]["attempt"] == 1

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            run_suite(["fig5"], jobs=1, retries=-1)
