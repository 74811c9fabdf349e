"""Benchmark of the ``repro`` package: three workloads, calibrated timings.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report_suite --seed 20190501 \\
        --seconds 30 --trace 0

``--trace 0`` runs the workload in rounds for ``--seconds`` seconds and
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced round and prints the per-layer metrics.  Each round checks the
program's outputs.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries details (raw throughput, sample counts, digests).

See ``perfbench/README.md`` for the workloads, the metrics and the
calibration.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Workload name -> module in this directory.
WORKLOADS = {
    "report_suite": "suite",
    "replay_policies": "replay",
    "serve_dashboard": "serve",
}

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: Latency samples a run pools at least, so that its 99th percentile
#: has ten samples beyond it however fast the host is.
MIN_LATENCY_SAMPLES = 1000


def _run_rounds(module, inputs, cal, seconds: float):
    """Whole rounds until the next one would end past ``seconds``.

    A run that has fewer than :data:`MIN_LATENCY_SAMPLES` latency
    samples by then goes on until it has them.  Each round starts from a
    collected heap, so garbage a previous round left behind cannot add
    to the peak resident set.
    """
    rounds = []
    samples = 0
    began = time.perf_counter()
    while True:
        gc.collect()
        rounds.append(module.run_round(inputs, cal))
        samples += len(rounds[-1].latencies)
        elapsed = time.perf_counter() - began
        if (
            elapsed * (len(rounds) + 1) / len(rounds) > seconds
            and samples >= MIN_LATENCY_SAMPLES
        ):
            return rounds


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    reference = json.loads((HERE / "reference.json").read_text())

    from common import first_problem, scoped_env, summarize
    from kernel import Calibration
    from repro.obs import get_obs

    module = importlib.import_module(WORKLOADS[args.workload])
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    # Nothing the program or its libraries write lands outside the
    # checkout, and the user's result cache is never read.
    env = {
        "TMPDIR": str(workdir),
        "PAI_REPRO_CACHE_DIR": str(workdir / "user-cache"),
    }
    obs = get_obs()
    saved_sinks, obs.sinks = obs.sinks, []  # no logging on the timed path
    try:
        with scoped_env(env):
            tempfile.tempdir = str(workdir)
            cal = Calibration(reference["c_ref_s"], reference["c_ref_pair_s"])
            cal.sample()
            inputs = module.prepare(args.seed, workdir)
            if args.trace:
                import layers

                result = layers.traced_run(module, args.workload, inputs, cal, workdir)
                rounds = result.rounds
                metrics = result.metrics
                detail = result.detail
                units = layers.PER_LAYER
            else:
                rounds = _run_rounds(module, inputs, cal, args.seconds)
                metrics = summarize(rounds, cal)
                units = UNITS
                detail = {
                    "rounds": len(rounds),
                    "latency_samples": sum(len(r.latencies) for r in rounds),
                    "raw_ops_per_s": sum(r.ops for r in rounds)
                    / sum(r.raw_busy_s for r in rounds),
                }
            detail["calibration_samples"] = len(cal.samples)
            detail["calibration_ms"] = cal.median_s * 1e3
            if cal.pair_samples:
                detail["pair_calibration_ms"] = (
                    statistics.median(seconds for _, seconds in cal.pair_samples) * 1e3
                )
            detail["digests"] = sorted({r.digest for r in rounds})
    finally:
        tempfile.tempdir = None
        obs.sinks = saved_sinks
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still holds a work directory

    problem = first_problem(rounds)
    golden = reference["golden"].get(args.workload)
    if args.seed == reference["default_seed"] and golden is not None:
        if any(r.digest != golden for r in rounds):
            problem = problem or (
                f"output digest {rounds[0].digest} differs from the "
                f"golden {golden} of seed {args.seed}"
            )
    if len(detail["digests"]) != 1:
        problem = problem or "rounds of one run produced different outputs"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    print(
        json.dumps(
            {
                "correct": problem is None and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
