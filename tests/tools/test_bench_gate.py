"""The CI bench gate over the committed trajectory entry."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "tools" / "bench_gate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_gate = _load_gate()


@pytest.fixture()
def baseline():
    path = ROOT / "benchmarks" / "BENCH_1.7.0.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture()
def current(baseline):
    """A fresh run as ``bench_runtime.py`` now writes it: sched rows
    carry replay seconds only, no engine-versus-engine ratio."""
    run = copy.deepcopy(baseline)
    run["sched"] = [
        {
            key: value
            for key, value in row.items()
            if key not in ("event_s", "day_speedup", "outcomes_identical")
        }
        for row in run["sched"]
    ]
    return run


def test_committed_baseline_passes_a_run_without_day_speedup(
    baseline, current
):
    assert all("day_speedup" not in row for row in current["sched"])
    assert bench_gate.check(baseline, current, 0.25) == []


def test_vectorized_speedup_drop_beyond_threshold_fails(baseline, current):
    row = current["populations"][0]
    row["vectorized_speedup"] = baseline["populations"][0][
        "vectorized_speedup"
    ] * 0.7
    failures = bench_gate.check(baseline, current, 0.25)
    assert len(failures) == 1
    assert "vectorized_speedup regressed" in failures[0]

