"""Helpers shared by the three workloads."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from kernel import LATENCY_WINDOW_S

Interval = Tuple[float, float]


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_digest(obj) -> str:
    """SHA-256 of ``obj`` as sorted-key JSON (floats round-trip exactly)."""
    return sha256_text(json.dumps(obj, sort_keys=True, separators=(",", ":")))


def peak_rss_mb() -> float:
    """Peak resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@contextmanager
def scoped_env(values: Dict[str, str]) -> Iterator[None]:
    """Set environment variables for a block, then restore them."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


@dataclass
class RoundResult:
    """What one round of a workload measured, as raw clock readings.

    ``setup`` is the set-up interval before the timed phase.  ``timed``
    are the intervals in which the round's ``ops`` operations ran.
    ``latencies`` are ``(start, end, seconds)``: one latency sample and
    the interval it was observed in, which decides its calibration.
    ``pair`` marks ``timed`` intervals that ran on two processes at
    once; they are calibrated by the kernel's pair samples.
    """

    setup: Interval
    timed: List[Interval]
    ops: int
    latencies: List[Tuple[float, float, float]]
    attempted: int
    failed: int
    digest: str
    problems: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)
    pair: bool = False

    @property
    def raw_busy_s(self) -> float:
        return sum(end - start for start, end in self.timed)

    @property
    def raw_ops_per_s(self) -> float:
        return self.ops / self.raw_busy_s

    def busy_s(self, cal) -> float:
        return sum(cal.calibrated(start, end, self.pair) for start, end in self.timed)

    def latencies_ms(self, cal) -> List[float]:
        return [
            seconds * cal.scale(start, end, window=LATENCY_WINDOW_S) * 1e3
            for start, end, seconds in self.latencies
        ]


def summarize(rounds: List[RoundResult], cal) -> Dict[str, float]:
    """The end-to-end metrics over a run's rounds, calibrated."""
    latencies = [ms for r in rounds for ms in r.latencies_ms(cal)]
    return {
        "setup_s": statistics.median(cal.calibrated(*r.setup) for r in rounds),
        "ops_per_s": sum(r.ops for r in rounds) / sum(r.busy_s(cal) for r in rounds),
        "op_p50_ms": percentile(latencies, 0.50),
        "op_p99_ms": percentile(latencies, 0.99),
        "peak_rss_mb": peak_rss_mb(),
    }


def first_problem(rounds: List[RoundResult]) -> Optional[str]:
    for r in rounds:
        if r.problems:
            return r.problems[0]
    return None
