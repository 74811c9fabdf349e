"""The calibration kernel: a fixed probe of how fast the host runs right now.

The host this benchmark runs on is shared, and its speed drifts by up
to 2x over tens of seconds.  Every timing the benchmark reports is
therefore scaled by how long a fixed kernel took *around the same
moment*: ``calibrated = raw * C_ref / C_local``, where ``C_ref`` is the
kernel time recorded in ``reference.json`` and ``C_local`` is the kernel
time measured next to the operation being timed.  A calibrated second
is a second of the reference host at its median speed.

The kernel shares no code with ``repro``.  It mixes the three kinds of
work the workloads do: an interpreted integer loop, heap and dict churn
(object allocation and hashing), and a NumPy sort (vectorized memory
traffic).

A phase that runs on two processes at once, such as the suite's cold
pass on two fork workers, depends on the speed of both CPUs, which one
kernel process cannot see.  Such phases are calibrated by pair samples
instead: the kernel run in two forked processes at the same moment.
"""

from __future__ import annotations

import heapq
import os
import statistics
import struct
import time
from bisect import bisect_left
from typing import List, Tuple

import numpy as np

#: Work sizes; together about 55-80 ms on a 2-vCPU cloud host.
INT_LOOP_STEPS = 240_000
HEAP_CHURN_STEPS = 50_000
HEAP_LIMIT = 512
SORT_ELEMENTS = 300_000

#: Seconds between the kernel samples :meth:`Calibration.tick` takes
#: inside a long phase.
INTERVAL_S = 1.0

#: Half-width of the time window whose kernel samples calibrate an
#: interval (see :meth:`Calibration.local_s`).
WINDOW_S = 10.0

#: The narrower window for single latency samples: an operation of a
#: few milliseconds feels the host's speed of that moment, not of the
#: last ten seconds.
LATENCY_WINDOW_S = 3.0


def kernel() -> Tuple[int, int, float]:
    """Run the fixed kernel once; returns a checksum of its results."""
    acc = 0
    for step in range(INT_LOOP_STEPS):
        acc = (acc * 31 + step) & 0xFFFFFFFF
    heap: List[int] = []
    table = {}
    for step in range(HEAP_CHURN_STEPS):
        key = (step * 2654435761) & 0xFFFFF
        heapq.heappush(heap, key)
        table[key] = step
        if len(heap) > HEAP_LIMIT:
            table.pop(heapq.heappop(heap), None)
    values = np.random.default_rng(12345).random(SORT_ELEMENTS)
    ordered = np.sort(values)
    return acc, len(table), float(ordered[SORT_ELEMENTS // 2])


def _pair_kernel() -> Tuple[float, Tuple[int, int, float]]:
    """Run the kernel in two forked processes released at once.

    Returns the mean of their kernel times and their common checksum.
    """
    go_read, go_write = os.pipe()
    out_read, out_write = os.pipe()
    pids = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:  # child: wait for the release, time the kernel, report
            status = 1
            try:
                os.close(go_write)
                os.close(out_read)
                os.read(go_read, 1)
                start = time.perf_counter()
                acc, entries, middle = kernel()
                seconds = time.perf_counter() - start
                os.write(out_write, struct.pack("=dqqd", seconds, acc, entries, middle))
                status = 0
            finally:
                os._exit(status)
        pids.append(pid)
    os.close(go_read)
    os.close(out_write)
    try:
        os.write(go_write, b"go")
        reports = []
        with os.fdopen(out_read, "rb") as out:
            for _ in pids:
                reports.append(struct.unpack("=dqqd", out.read(struct.calcsize("=dqqd"))))
    finally:
        os.close(go_write)
        for pid in pids:
            os.waitpid(pid, 0)
    checksums = {report[1:] for report in reports}
    if len(checksums) != 1:
        raise RuntimeError("calibration kernel returned different results")
    return statistics.fmean(report[0] for report in reports), checksums.pop()


class Calibration:
    """Kernel samples taken through a run, and the scale they imply.

    :meth:`tick` is called at operation boundaries and samples the
    kernel when :data:`INTERVAL_S` has passed since the last sample, so
    a long timed phase carries a sample about once per interval.
    :meth:`scale` turns a raw interval into calibrated units using the
    samples nearest to it.  With ``pair=True`` the methods use the pair
    samples and ``pair_reference_s`` instead.
    """

    def __init__(self, reference_s: float, pair_reference_s: float) -> None:
        if reference_s <= 0 or pair_reference_s <= 0:
            raise ValueError("reference times must be positive")
        self.reference_s = reference_s
        self.pair_reference_s = pair_reference_s
        #: ``(midpoint, seconds)`` per sample, in time order.
        self.samples: List[Tuple[float, float]] = []
        self.pair_samples: List[Tuple[float, float]] = []
        self._checksum = None
        self._last_end = float("-inf")

    def _check(self, checksum) -> None:
        if self._checksum is None:
            self._checksum = checksum
        elif checksum != self._checksum:
            raise RuntimeError("calibration kernel returned a different result")

    def sample(self) -> float:
        """Time the kernel once; returns its duration in seconds."""
        start = time.perf_counter()
        checksum = kernel()
        end = time.perf_counter()
        self._check(checksum)
        self.samples.append(((start + end) / 2, end - start))
        self._last_end = end
        return end - start

    def sample_pair(self) -> float:
        """Time the kernel in two processes at once; returns their mean."""
        start = time.perf_counter()
        seconds, checksum = _pair_kernel()
        end = time.perf_counter()
        self._check(checksum)
        self.pair_samples.append(((start + end) / 2, seconds))
        return seconds

    def tick(self) -> None:
        """Sample the kernel if the last sample is :data:`INTERVAL_S` old."""
        if time.perf_counter() - self._last_end >= INTERVAL_S:
            self.sample()

    @property
    def median_s(self) -> float:
        """The median kernel time of the whole run."""
        return statistics.median(seconds for _, seconds in self.samples)

    def local_s(
        self, start: float, end: float, pair: bool = False, window: float = WINDOW_S
    ) -> float:
        """The kernel time around ``[start, end]``.

        The mean of the samples taken within ``window`` seconds of the
        interval, and at least of the nearest sample on each side.  The
        host's speed flips within a second, so one sample says little;
        it also drifts over tens of seconds, so the run's median misses
        the drift.  Measured on the three workloads, :data:`WINDOW_S`
        gave the narrowest run-to-run spread of throughput, and
        :data:`LATENCY_WINDOW_S` that of the latency percentiles.
        """
        samples = self.pair_samples if pair else self.samples
        if not samples:
            raise RuntimeError("no calibration samples taken")
        mids = [mid for mid, _ in samples]
        lo = max(0, min(bisect_left(mids, start - window), bisect_left(mids, start) - 1))
        hi = min(len(mids), max(bisect_left(mids, end + window), bisect_left(mids, end) + 1))
        return statistics.fmean(seconds for _, seconds in samples[lo:hi])

    def scale(
        self, start: float, end: float, pair: bool = False, window: float = WINDOW_S
    ) -> float:
        """Factor that turns raw seconds in ``[start, end]`` calibrated."""
        reference = self.pair_reference_s if pair else self.reference_s
        return reference / self.local_s(start, end, pair, window)

    def calibrated(self, start: float, end: float, pair: bool = False) -> float:
        """Calibrated length of the raw interval ``[start, end]``."""
        return (end - start) * self.scale(start, end, pair)
