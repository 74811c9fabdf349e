"""Experiment-result container and rendering."""

import pytest

from repro.runtime.result import ExperimentResult, format_value, render_table


class TestFormatValue:
    def test_floats(self):
        assert format_value(0.2263) == "0.2263"
        assert format_value(1.7) == "1.7"

    def test_extreme_floats_use_scientific(self):
        assert "e" in format_value(3.5e9)
        assert "e" in format_value(1e-6)

    def test_bools(self):
        assert format_value(True) == "yes"
        assert format_value(False) == "no"

    def test_strings_pass_through(self):
        assert format_value("PS/Worker") == "PS/Worker"


class TestRenderTable:
    def test_alignment(self):
        rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
        text = render_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert len(lines) == 4  # header, separator, two rows
        assert lines[0].startswith("a")

    def test_missing_cells_are_blank(self):
        rows = [{"a": 1}, {"b": 2}]
        text = render_table(rows, ["a", "b"])
        assert "2" in text

    def test_empty(self):
        assert render_table([], ["a"]) == "(no rows)"


class TestExperimentResult:
    def test_columns_in_first_seen_order(self):
        result = ExperimentResult(
            experiment="x",
            title="t",
            rows=[{"b": 1, "a": 2}, {"c": 3}],
        )
        assert result.columns() == ["b", "a", "c"]

    def test_render_contains_title_and_notes(self):
        result = ExperimentResult(
            experiment="fig9",
            title="Projection speedups",
            rows=[{"curve": "local", "value": 0.226}],
            notes=["matches the paper"],
        )
        text = result.render()
        assert "fig9" in text
        assert "Projection speedups" in text
        assert "note: matches the paper" in text

    def test_rejects_empty_id(self):
        with pytest.raises(ValueError):
            ExperimentResult(experiment="", title="t", rows=[])
