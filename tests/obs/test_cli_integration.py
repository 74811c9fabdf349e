"""The CLI wires obs flags through and leaves stdout untouched."""

import json

import pytest

from repro.analysis.cli import build_parser, main
from repro.obs import reset_obs
from repro.runtime.result import ExperimentResult


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_obs()
    yield
    reset_obs()


@pytest.fixture()
def toy_suite(monkeypatch):
    import repro.analysis.registry as registry_module

    def toy(experiment_id):
        return lambda: ExperimentResult(
            experiment=experiment_id, title="toy", rows=[{"v": 1}]
        )

    monkeypatch.setattr(
        registry_module,
        "EXPERIMENTS",
        {"alpha": toy("alpha"), "beta": toy("beta")},
    )


class TestParser:
    def test_obs_flags_on_all_report_trace(self):
        parser = build_parser()
        for argv in (
            ["all", "-v", "--log-json", "e.jsonl"],
            ["report", "-q"],
            ["trace", "--log-json", "e.jsonl"],
        ):
            args = parser.parse_args(argv)
            assert hasattr(args, "log_json")

    def test_verbose_and_quiet_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["all", "-v", "-q"])


class TestAllCommand:
    def test_log_json_captures_spans_and_summary(
        self, toy_suite, tmp_path, capsys
    ):
        events_path = tmp_path / "events.jsonl"
        rc = main(
            ["all", "--jobs", "1", "--no-cache", "--log-json", str(events_path)]
        )
        assert rc == 0
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        spans = [
            e
            for e in events
            if e["kind"] == "span" and e.get("name") == "experiment"
        ]
        assert {s["id"] for s in spans} == {"alpha", "beta"}
        (summary,) = [e for e in events if e["kind"] == "summary"]
        assert summary["metrics"]["counters"]["experiments.ok"] == 2

    def test_summary_table_goes_to_stderr_not_stdout(
        self, toy_suite, capsys
    ):
        assert main(["all", "--jobs", "1", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "run summary:" in captured.err
        assert "run summary:" not in captured.out

    def test_quiet_suppresses_the_summary_table(self, toy_suite, capsys):
        assert main(["all", "--jobs", "1", "--no-cache", "-q"]) == 0
        assert "run summary:" not in capsys.readouterr().err

    def test_cache_counters_reach_the_event_log(
        self, toy_suite, tmp_path, capsys
    ):
        events_path = tmp_path / "events.jsonl"
        cache_args = [
            "all",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main(cache_args) == 0
        reset_obs()
        assert main(cache_args + ["--log-json", str(events_path)]) == 0
        events = [
            json.loads(line)
            for line in events_path.read_text().splitlines()
        ]
        (summary,) = [e for e in events if e["kind"] == "summary"]
        counters = summary["metrics"]["counters"]
        assert counters["cache.hit"] == 2
        spans = [
            e
            for e in events
            if e["kind"] == "span" and e.get("name") == "experiment"
        ]
        assert all(s["cached"] for s in spans)

    def test_warm_stdout_is_byte_identical_to_cold(
        self, toy_suite, tmp_path, capsys
    ):
        args = [
            "all",
            "--jobs",
            "1",
            "--cache-dir",
            str(tmp_path / "cache"),
            "--log-json",
            str(tmp_path / "events.jsonl"),
        ]
        assert main(args) == 0
        cold = capsys.readouterr().out
        reset_obs()
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert warm == cold
