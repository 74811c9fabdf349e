"""Run the benchmark several times and report how much each metric spreads.

Usage (from the repository root)::

    python3 perfbench/steadiness.py --workload serve_dashboard --first-seed 1

It makes :data:`RUNS` runs of ``run_seconds`` (from ``BENCHMARK.json``),
each with another seed, starting at ``--first-seed``.  For every end-to-end metric the report
gives the median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound in
``BENCHMARK.json``; ``raw_ops_per_s`` is the uncalibrated throughput,
for comparison with the calibrated ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

RUNS = 10


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}

    values = {}
    for seed in range(args.first_seed, args.first_seed + RUNS):
        command = list(config["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        lines = subprocess.run(
            command, cwd=ROOT, check=True, capture_output=True, text=True
        ).stdout.splitlines()
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        values.setdefault("raw_ops_per_s", []).append(detail["raw_ops_per_s"])
        print(
            f"seed {seed}: "
            + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            + f" raw_ops_per_s={detail['raw_ops_per_s']:.5g}",
            flush=True,
        )
    print(f"{args.workload}: {RUNS} runs of {seconds}s")
    for name, series in values.items():
        median, share = spread(series)
        bound = bounds.get(name)
        limit = f"bound {bound}" if bound is not None else "(raw, no bound)"
        print(f"  {name:14s} median {median:12.5g}  iqr/median {share:.4f}  {limit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
