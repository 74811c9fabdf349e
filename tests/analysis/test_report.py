"""Markdown report generation and the extended CLI."""

from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.report import render_markdown
from repro.runtime import suite_experiment_ids
from repro.runtime.result import ExperimentResult

#: The committed output of ``pai-repro report --no-cache -o report.md``.
COMMITTED_REPORT = Path(__file__).resolve().parents[2] / "report.md"


def toy_results():
    return [
        ExperimentResult(
            experiment="figX",
            title="Toy experiment",
            rows=[{"a": 1, "b": 0.5}],
            notes=["a note"],
        ),
        ExperimentResult(
            experiment="tableY",
            title="Another",
            rows=[],
        ),
    ]


class TestRenderMarkdown:
    def test_structure(self):
        text = render_markdown(toy_results())
        assert text.startswith("# Reproduction report")
        assert "## figX" in text
        assert "| a | b |" in text
        assert "> a note" in text
        assert "*(no rows)*" in text

    def test_contents_links(self):
        text = render_markdown(toy_results())
        assert "- [figX](#figX): Toy experiment" in text


def _patch_suite(monkeypatch, experiments):
    """Shrink the registry so the CLI suite commands run fast."""
    import repro.analysis.registry as registry_module

    monkeypatch.setattr(registry_module, "EXPERIMENTS", experiments)


class TestCliReport:
    def test_report_command_writes_file(self, tmp_path, capsys, monkeypatch):
        results = toy_results()
        _patch_suite(
            monkeypatch,
            {r.experiment: (lambda r=r: r) for r in results},
        )
        out = tmp_path / "report.md"
        code = main(
            ["report", "-o", str(out), "--jobs", "1", "--no-cache"]
        )
        assert code == 0
        assert out.exists()
        assert "figX" in out.read_text()

    def test_report_records_failures_and_exits_nonzero(
        self, tmp_path, capsys, monkeypatch
    ):
        ok = toy_results()[0]

        def broken():
            raise RuntimeError("injected failure")

        _patch_suite(
            monkeypatch, {"figX": lambda: ok, "broken": broken}
        )
        out = tmp_path / "report.md"
        code = main(
            ["report", "-o", str(out), "--jobs", "1", "--no-cache"]
        )
        assert code == 1
        text = out.read_text()
        # The healthy experiment still rendered...
        assert "## figX" in text
        # ...and the failure is documented instead of aborting the run.
        assert "## Failed experiments" in text
        assert "injected failure" in text
        err = capsys.readouterr().err
        assert "1 of 2 experiments failed: broken" in err


class TestCommittedReport:
    def test_every_suite_experiment_is_listed_and_rendered(self):
        lines = COMMITTED_REPORT.read_text(encoding="utf-8").splitlines()
        for experiment_id in suite_experiment_ids():
            link = f"- [{experiment_id}](#{experiment_id})"
            assert any(line.startswith(link) for line in lines), experiment_id
            assert f"## {experiment_id}" in lines, experiment_id


class TestRenderMarkdownFailures:
    def test_failure_section(self):
        text = render_markdown(
            toy_results(), failures=[("figZ", "Traceback: boom")]
        )
        assert "- [figZ](#failed-experiments): **FAILED**" in text
        assert "### figZ" in text
        assert "Traceback: boom" in text


class TestCliTrace:
    def test_trace_command_round_trips(self, tmp_path, capsys):
        from repro.trace import load_trace

        out = tmp_path / "trace.jsonl"
        assert main(["trace", "-o", str(out), "-n", "150", "--seed", "5"]) == 0
        jobs = load_trace(out)
        assert len(jobs) == 150
        assert "wrote 150 jobs" in capsys.readouterr().out

    def test_trace_check_passes_on_default_seed(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        code = main(["trace", "-o", str(out), "-n", "8000", "--check"])
        output = capsys.readouterr().out
        assert code == 0, output
        assert "all calibration targets within tolerance" in output
